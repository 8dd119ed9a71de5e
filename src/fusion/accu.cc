#include "fusion/accu.h"

#include "obs/trace.h"
#include "util/math.h"

namespace veritas {

std::vector<double> AccuFusion::ClaimLogScores(
    const CompiledDatabase& c, ItemId item,
    const std::vector<double>& accuracies) {
  std::vector<double> scores(c.item_num_claims(item));
  GatherClaimScores(
      c, item, c.log_false_values(item),
      [&](SourceId s) { return SourceTerm(accuracies[s]); }, scores.data());
  return scores;
}

std::vector<double> AccuFusion::ClaimProbabilities(
    const CompiledDatabase& c, ItemId item,
    const std::vector<double>& accuracies) {
  std::vector<double> probs = ClaimLogScores(c, item, accuracies);
  SoftmaxInPlace(probs);
  return probs;
}

// The alternation of Eq. (1) and Eq. (2) over the CSR view. The per-source
// log-odds is tabulated once per iteration, so the claim-scoring loop does
// lookups instead of a std::log per (claim, source) pair; each item's
// scores are gathered straight into its distribution and softmaxed there.
FusionResult AccuFusion::FuseCompiled(const CompiledDatabase& c,
                                      const PriorSet& priors,
                                      const FusionOptions& opts,
                                      const FusionResult* warm) const {
  VERITAS_SPAN("fuse.accu");
  static const FixedPointInstruments instruments("accu");
  FixedPointDriver driver(instruments, c, priors, opts, warm);
  const std::vector<char>& fixed = driver.fixed();
  std::vector<double> logit(c.num_sources(), 0.0);
  const auto logit_of = [&](SourceId s) { return logit[s]; };

  // Eq. (1).
  const auto update_probabilities = [&](const std::vector<double>& accuracies,
                                        std::span<double> probs) {
    for (SourceId j = 0; j < c.num_sources(); ++j) {
      logit[j] = SourceTerm(accuracies[j]);
    }
    for (ItemId i = 0; i < c.num_items(); ++i) {
      if (fixed[i]) continue;
      const std::span<double> p =
          probs.subspan(c.claim_offset(i), c.item_num_claims(i));
      GatherClaimScores(c, i, c.log_false_values(i), logit_of, p.data());
      SoftmaxInPlace(p);
    }
  };

  // Eq. (2) is the driver's mean-vote source step.
  driver.Run(update_probabilities);
  // Final probability pass so P is consistent with the final A, also when
  // the run hit the iteration cap or a hard stop.
  update_probabilities(driver.accuracies(), driver.result().mutable_probs());
  return driver.Finish();
}

}  // namespace veritas
