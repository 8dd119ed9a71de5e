#include "fusion/accu.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"

namespace veritas {

namespace {

// Stable softmax of scores[0..n) written into probs[0..n).
void SoftmaxInto(const double* scores, std::size_t n, double* probs) {
  double max_score = scores[0];
  for (std::size_t k = 1; k < n; ++k) {
    if (scores[k] > max_score) max_score = scores[k];
  }
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += std::exp(scores[k] - max_score);
  const double lse = max_score + std::log(sum);
  for (std::size_t k = 0; k < n; ++k) probs[k] = std::exp(scores[k] - lse);
}

}  // namespace

std::vector<double> AccuFusion::ClaimLogScores(
    const CompiledDatabase& c, ItemId item,
    const std::vector<double>& accuracies) {
  const std::size_t n = c.item_num_claims(item);
  const double false_values = static_cast<double>(n) - 1.0;
  const std::vector<SourceId>& claim_sources = c.claim_sources();
  std::vector<double> scores(n, 0.0);
  for (ClaimIndex k = 0; k < n; ++k) {
    const std::uint32_t g = c.claim_offset(item) + k;
    double score = 0.0;
    for (std::uint32_t v = c.claim_sources_begin(g);
         v < c.claim_sources_end(g); ++v) {
      const double a = ClampAccuracy(accuracies[claim_sources[v]]);
      score += std::log(false_values * a / (1.0 - a));
    }
    scores[k] = score;
  }
  return scores;
}

std::vector<double> AccuFusion::ClaimProbabilities(
    const CompiledDatabase& c, ItemId item,
    const std::vector<double>& accuracies) {
  if (c.item_num_claims(item) == 1) return {1.0};
  return SoftmaxFromLogScores(ClaimLogScores(c, item, accuracies));
}

// The alternation of Eq. (1) and Eq. (2) over the CSR view: all state lives
// in flat arrays indexed by global claim id / source id, and the per-source
// log-odds ln(A/(1-A)) is tabulated once per iteration so the claim-scoring
// loop does lookups instead of a std::log per (claim, source) pair. The
// per-item factor ln(|V_i|-1) folds in as voters * log_false_values(i).
FusionResult AccuFusion::FuseCompiled(const CompiledDatabase& c,
                                      const PriorSet& priors,
                                      const FusionOptions& opts,
                                      const FusionResult* warm) const {
  VERITAS_SPAN("fuse.accu");
  static Counter* fuse_calls =
      MetricsRegistry::Global().GetCounter("fusion.accu.fuse_calls");
  static Counter* nonconverged =
      MetricsRegistry::Global().GetCounter("fusion.accu.nonconverged");
  static Histogram* iterations_hist = MetricsRegistry::Global().GetHistogram(
      "fusion.accu.iterations", MetricsRegistry::CountEdges());
  static Histogram* residual_hist = MetricsRegistry::Global().GetHistogram(
      "fusion.accu.residual",
      {1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  fuse_calls->Add(1);

  FusionResult result(c, opts.initial_accuracy);
  std::vector<double> accuracies =
      WarmStartAccuracies(warm, c.num_sources(), opts.initial_accuracy);

  const std::span<double> probs = result.mutable_probs();
  const std::vector<char> fixed = MarkFixedItems(c, priors, probs);

  const std::vector<SourceId>& claim_sources = c.claim_sources();
  std::vector<double> logit(c.num_sources(), 0.0);
  std::vector<double> scores;

  const auto update_probabilities = [&]() {
    for (SourceId j = 0; j < c.num_sources(); ++j) {
      const double a = ClampAccuracy(accuracies[j]);
      logit[j] = std::log(a / (1.0 - a));
    }
    for (ItemId i = 0; i < c.num_items(); ++i) {
      if (fixed[i]) continue;
      const std::uint32_t g = c.claim_offset(i);
      const std::size_t n = c.item_num_claims(i);
      const double lf = c.log_false_values(i);
      scores.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t begin = c.claim_sources_begin(g + k);
        const std::uint32_t end = c.claim_sources_end(g + k);
        double score = static_cast<double>(end - begin) * lf;
        for (std::uint32_t v = begin; v < end; ++v) {
          score += logit[claim_sources[v]];
        }
        scores[k] = score;
      }
      SoftmaxInto(scores.data(), n, probs.data() + g);
    }
  };

  bool converged = false;
  std::size_t iter = 0;
  double last_residual = 0.0;
  while (iter < opts.max_iterations) {
    // Hard stop: bail at the iteration boundary with converged=false. The
    // final probability pass below still runs, so the partial result is
    // internally consistent (P matches the current A).
    if (HardStopRequested(opts.cancel)) break;
    ++iter;
    update_probabilities();
    // Eq. (2).
    const double max_delta = UpdateMeanVoteAccuracies(c, probs, &accuracies);
    last_residual = max_delta;
    if (max_delta < opts.tolerance) {
      converged = true;
      break;
    }
  }
  iterations_hist->Observe(static_cast<double>(iter));
  residual_hist->Observe(last_residual);
  if (!converged) nonconverged->Add(1);
  // Final probability pass so P is consistent with the final A.
  update_probabilities();

  *result.mutable_accuracies() = std::move(accuracies);
  result.set_iterations(iter);
  result.set_converged(converged);
  return result;
}

}  // namespace veritas
