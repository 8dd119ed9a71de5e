#include "fusion/lca.h"

#include <algorithm>
#include <cmath>

#include "util/math.h"

namespace veritas {

FusionResult SimpleLcaFusion::FuseCompiled(const CompiledDatabase& c,
                                           const PriorSet& priors,
                                           const FusionOptions& opts,
                                           const FusionResult* warm) const {
  static const FixedPointInstruments instruments("lca");
  FixedPointDriver driver(instruments, c, priors, opts, warm);
  const std::vector<char>& fixed = driver.fixed();
  const std::vector<SourceId>& claim_sources = c.claim_sources();
  const std::vector<std::uint32_t>& source_claims = c.source_vote_claims();

  // E-step: claim posteriors from source honesty.
  const auto e_step = [&](const std::vector<double>& honesty,
                          std::span<double> probs) {
    for (ItemId i = 0; i < c.num_items(); ++i) {
      if (fixed[i]) continue;
      const std::uint32_t g = c.claim_offset(i);
      const std::size_t n = c.item_num_claims(i);
      const double false_values = static_cast<double>(n) - 1.0;
      for (std::size_t k = 0; k < n; ++k) {
        double score = 0.0;
        for (std::uint32_t v = c.claim_sources_begin(g + k);
             v < c.claim_sources_end(g + k); ++v) {
          const double h = ClampAccuracy(honesty[claim_sources[v]]);
          // A vote for claim k (vs. the source's counterfactual dishonest
          // vote spread over the other claims).
          score += std::log(h) - std::log((1.0 - h) / false_values);
        }
        probs[g + k] = score;
      }
      SoftmaxInPlace(probs.subspan(g, n));
    }
  };
  // M-step: smoothed honesty.
  const auto m_step = [&](std::span<const double> probs,
                          std::vector<double>* honesty) {
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
      max_delta = std::max(max_delta, std::fabs(updated - (*honesty)[j]));
      (*honesty)[j] = updated;
    }
    return max_delta;
  };

  driver.Run(e_step, m_step);
  return driver.Finish();
}

}  // namespace veritas
