#include "fusion/pooled_investment.h"

#include <algorithm>
#include <cmath>

#include "util/math.h"

namespace veritas {

FusionResult PooledInvestmentFusion::FuseCompiled(
    const CompiledDatabase& c, const PriorSet& priors,
    const FusionOptions& opts, const FusionResult* warm) const {
  FusionResult result(c, opts.initial_accuracy);
  std::vector<double> trust =
      WarmStartAccuracies(warm, c.num_sources(), opts.initial_accuracy);
  const std::span<double> probs = result.mutable_probs();
  const std::vector<char> fixed = MarkFixedItems(c, priors, probs);
  const std::vector<SourceId>& claim_sources = c.claim_sources();

  bool converged = false;
  std::size_t iter = 0;
  std::vector<double> returns;
  while (iter < opts.max_iterations) {
    // Hard stop: bail at the iteration boundary with converged=false.
    if (HardStopRequested(opts.cancel)) break;
    ++iter;
    // Claim pooled returns H(v) = sum_s trust(s)/N(s), grown by G, then
    // normalized per item into a distribution.
    for (ItemId i = 0; i < c.num_items(); ++i) {
      if (fixed[i]) continue;
      const std::uint32_t g = c.claim_offset(i);
      const std::size_t n = c.item_num_claims(i);
      returns.assign(n, 0.0);
      for (std::size_t k = 0; k < n; ++k) {
        double h = 0.0;
        for (std::uint32_t v = c.claim_sources_begin(g + k);
             v < c.claim_sources_end(g + k); ++v) {
          const SourceId s = claim_sources[v];
          h += trust[s] / static_cast<double>(c.source_degree(s));
        }
        returns[k] = std::pow(h, g_);
      }
      const std::vector<double> shares = Normalize(returns);
      std::copy(shares.begin(), shares.end(), probs.begin() + g);
    }
    // Trust update: mean probability of the source's claims.
    const double max_delta = UpdateMeanVoteAccuracies(c, probs, &trust);
    if (max_delta < opts.tolerance) {
      converged = true;
      break;
    }
  }
  *result.mutable_accuracies() = std::move(trust);
  result.set_iterations(iter);
  result.set_converged(converged);
  return result;
}

}  // namespace veritas
