#include "fusion/pooled_investment.h"

#include <cmath>

#include "util/math.h"

namespace veritas {

FusionResult PooledInvestmentFusion::FuseCompiled(
    const CompiledDatabase& c, const PriorSet& priors,
    const FusionOptions& opts, const FusionResult* warm) const {
  static const FixedPointInstruments instruments("pooled_investment");
  FixedPointDriver driver(instruments, c, priors, opts, warm);
  const std::vector<char>& fixed = driver.fixed();
  const std::vector<SourceId>& claim_sources = c.claim_sources();

  // Claim pooled returns H(v) = sum_s trust(s)/N(s), grown by G, then
  // normalized per item into a distribution.
  const auto update_probabilities = [&](const std::vector<double>& trust,
                                        std::span<double> probs) {
    for (ItemId i = 0; i < c.num_items(); ++i) {
      if (fixed[i]) continue;
      const std::uint32_t g = c.claim_offset(i);
      const std::size_t n = c.item_num_claims(i);
      for (std::size_t k = 0; k < n; ++k) {
        double h = 0.0;
        for (std::uint32_t v = c.claim_sources_begin(g + k);
             v < c.claim_sources_end(g + k); ++v) {
          const SourceId s = claim_sources[v];
          h += trust[s] / static_cast<double>(c.source_degree(s));
        }
        probs[g + k] = std::pow(h, g_);
      }
      NormalizeInPlace(probs.subspan(g, n));
    }
  };

  // Eq. (2) is the driver's mean-vote source step.
  driver.Run(update_probabilities);
  return driver.Finish();
}

}  // namespace veritas
