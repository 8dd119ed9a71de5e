// Majority voting: the classic baseline fusion model. The probability of a
// claim is the fraction of the item's voters that support it (Eq. 5) — the
// same quantity QBC builds its vote entropy on.
#ifndef VERITAS_FUSION_VOTING_H_
#define VERITAS_FUSION_VOTING_H_

#include "fusion/fusion_model.h"

namespace veritas {

/// Majority-voting fusion. Non-iterative; "accuracy" of a source is reported
/// as the mean vote-share of the claims it supports.
class VotingFusion : public FusionModel {
 public:
  std::string name() const override { return "voting"; }

  /// Vote-share distribution of one item (Eq. 5). Exposed for QBC.
  static std::vector<double> VoteShares(const CompiledDatabase& c,
                                        ItemId item);

 protected:
  FusionResult FuseCompiled(const CompiledDatabase& c, const PriorSet& priors,
                            const FusionOptions& opts,
                            const FusionResult* warm) const override;
};

}  // namespace veritas

#endif  // VERITAS_FUSION_VOTING_H_
