#include "fusion/truthfinder.h"

#include "obs/trace.h"

namespace veritas {

// Trust/confidence alternation over the CSR view. The per-source score
// tau(s) is tabulated once per iteration, so the claim confidence loop is
// additions over flat arrays.
FusionResult TruthFinderFusion::FuseCompiled(const CompiledDatabase& c,
                                             const PriorSet& priors,
                                             const FusionOptions& opts,
                                             const FusionResult* warm) const {
  VERITAS_SPAN("fuse.truthfinder");
  static const FixedPointInstruments instruments("truthfinder");
  FixedPointDriver driver(instruments, c, priors, opts, warm);
  const std::vector<char>& fixed = driver.fixed();
  std::vector<double> tau(c.num_sources(), 0.0);
  const auto tau_of = [&](SourceId s) { return tau[s]; };

  // Claim confidences -> per-item distributions.
  const auto update_probabilities = [&](const std::vector<double>& trust,
                                        std::span<double> probs) {
    for (SourceId j = 0; j < c.num_sources(); ++j) {
      tau[j] = SourceTerm(trust[j]);
    }
    for (ItemId i = 0; i < c.num_items(); ++i) {
      if (fixed[i]) continue;
      const std::span<double> p =
          probs.subspan(c.claim_offset(i), c.item_num_claims(i));
      GatherClaimScores(c, i, 0.0, tau_of, p.data());
      ConfidenceShares(gamma_, p, p);
    }
  };

  // Eq. (2) is the driver's mean-vote source step.
  driver.Run(update_probabilities);
  return driver.Finish();
}

}  // namespace veritas
