// TruthFinder (Yin, Han, Yu, TKDE 2008): iterative trust/confidence fusion.
//
// Included as a second Bayesian fusion variant to demonstrate that the
// feedback framework is fusion-model-agnostic (paper §6: "the item-level
// ranking algorithms and the general decision-theoretic algorithm (MEU) are
// applicable to any generic data fusion system").
//
// Per iteration:
//   tau(s)    = -ln(1 - t(s))                       (source trust score)
//   sigma(v)  = sum_{s in S(v)} tau(s)              (claim raw confidence)
//   conf(v)   = 1 / (1 + exp(-gamma * sigma(v)))    (dampened logistic)
//   p_i^k     = conf normalized per item            (so P is a distribution)
//   t(s)      = mean of p over the source's claims
// Pinned (validated) items keep their prior distribution.
#ifndef VERITAS_FUSION_TRUTHFINDER_H_
#define VERITAS_FUSION_TRUTHFINDER_H_

#include "fusion/fusion_model.h"

namespace veritas {

/// TruthFinder-style fusion adapted to emit per-item distributions.
class TruthFinderFusion : public FusionModel {
 public:
  /// `gamma` is TruthFinder's dampening factor (0.3 in the original paper).
  explicit TruthFinderFusion(double gamma = 0.3) : gamma_(gamma) {}

  std::string name() const override { return "truthfinder"; }

  double gamma() const { return gamma_; }

 protected:
  FusionResult FuseCompiled(const CompiledDatabase& c, const PriorSet& priors,
                            const FusionOptions& opts,
                            const FusionResult* warm) const override;

 private:
  double gamma_;
};

}  // namespace veritas

#endif  // VERITAS_FUSION_TRUTHFINDER_H_
