// AccuNoDep (Dong, Berti-Equille, Srivastava, PVLDB 2009): Bayesian fusion
// with independent sources — the fusion substrate the paper builds on (§3).
//
// The model alternates between
//   (1) claim probabilities from source accuracies (Eq. 1), computed here in
//       log space as a softmax over per-claim scores
//         score(v) = sum_{s in S(v)} ln((|V_i|-1) * A(s) / (1 - A(s))),
//   (2) source accuracies as the mean probability of their claims (Eq. 2),
// until the accuracies converge or the iteration cap is hit. Convergence is
// not guaranteed (§3); the result records whether it was reached.
#ifndef VERITAS_FUSION_ACCU_H_
#define VERITAS_FUSION_ACCU_H_

#include "fusion/fusion_model.h"

namespace veritas {

/// The AccuNoDep fusion model.
class AccuFusion : public FusionModel {
 public:
  std::string name() const override { return "accu"; }

  /// Recomputes the probabilities of a single item from given source
  /// accuracies (one application of Eq. 1). Exposed for Approx-MEU tests and
  /// diagnostics. `accuracies` are clamped internally.
  static std::vector<double> ClaimProbabilities(
      const CompiledDatabase& c, ItemId item,
      const std::vector<double>& accuracies);

  /// Log-space claim scores for one item:
  /// score_k = sum_{s in S(v_i^k)} ln((|V_i|-1) A(s) / (1 - A(s))).
  static std::vector<double> ClaimLogScores(
      const CompiledDatabase& c, ItemId item,
      const std::vector<double>& accuracies);

 protected:
  FusionResult FuseCompiled(const CompiledDatabase& c, const PriorSet& priors,
                            const FusionOptions& opts,
                            const FusionResult* warm) const override;
};

}  // namespace veritas

#endif  // VERITAS_FUSION_ACCU_H_
