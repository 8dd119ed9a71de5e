#include "fusion/lca.h"

#include <algorithm>
#include <cmath>

#include "util/math.h"

namespace veritas {

FusionResult SimpleLcaFusion::FuseCompiled(const CompiledDatabase& c,
                                           const PriorSet& priors,
                                           const FusionOptions& opts,
                                           const FusionResult* warm) const {
  FusionResult result(c, opts.initial_accuracy);
  std::vector<double> honesty =
      WarmStartAccuracies(warm, c.num_sources(), opts.initial_accuracy);
  const std::span<double> probs = result.mutable_probs();
  const std::vector<char> fixed = MarkFixedItems(c, priors, probs);
  const std::vector<SourceId>& claim_sources = c.claim_sources();
  const std::vector<std::uint32_t>& source_claims = c.source_vote_claims();

  bool converged = false;
  std::size_t iter = 0;
  std::vector<double> scores;
  while (iter < opts.max_iterations) {
    // Hard stop: bail at the iteration boundary with converged=false; the
    // posteriors from the completed E-steps stay internally consistent.
    if (HardStopRequested(opts.cancel)) break;
    ++iter;
    // E-step: claim posteriors from source honesty.
    for (ItemId i = 0; i < c.num_items(); ++i) {
      if (fixed[i]) continue;
      const std::uint32_t g = c.claim_offset(i);
      const std::size_t n = c.item_num_claims(i);
      const double false_values = static_cast<double>(n) - 1.0;
      scores.assign(n, 0.0);
      for (std::size_t k = 0; k < n; ++k) {
        double score = 0.0;
        for (std::uint32_t v = c.claim_sources_begin(g + k);
             v < c.claim_sources_end(g + k); ++v) {
          const double h = ClampAccuracy(honesty[claim_sources[v]]);
          // A vote for claim k (vs. the source's counterfactual dishonest
          // vote spread over the other claims).
          score += std::log(h) - std::log((1.0 - h) / false_values);
        }
        scores[k] = score;
      }
      const std::vector<double> posterior = SoftmaxFromLogScores(scores);
      std::copy(posterior.begin(), posterior.end(), probs.begin() + g);
    }
    // M-step: smoothed honesty.
    double max_delta = 0.0;
    for (SourceId j = 0; j < c.num_sources(); ++j) {
      const std::uint32_t begin = c.source_votes_begin(j);
      const std::uint32_t end = c.source_votes_end(j);
      if (begin == end) continue;
      double sum = 0.0;
      for (std::uint32_t v = begin; v < end; ++v) sum += probs[source_claims[v]];
      const double updated = ClampAccuracy(
          (sum + smoothing_ * opts.initial_accuracy) /
          (static_cast<double>(end - begin) + smoothing_));
      max_delta = std::max(max_delta, std::fabs(updated - honesty[j]));
      honesty[j] = updated;
    }
    if (max_delta < opts.tolerance) {
      converged = true;
      break;
    }
  }
  *result.mutable_accuracies() = std::move(honesty);
  result.set_iterations(iter);
  result.set_converged(converged);
  return result;
}

}  // namespace veritas
