// PooledInvestment (Pasternack & Roth, COLING 2010): sources "invest" their
// trust uniformly across their claims; claim returns are grown by a
// super-linear function G(x) = x^g before being normalized per item.
//
// Third fusion variant, again to exercise the black-box property of the
// feedback framework. Adapted (like TruthFinder) to emit normalized per-item
// claim distributions and a [0,1] trust value per source.
#ifndef VERITAS_FUSION_POOLED_INVESTMENT_H_
#define VERITAS_FUSION_POOLED_INVESTMENT_H_

#include "fusion/fusion_model.h"

namespace veritas {

/// PooledInvestment-style fusion.
class PooledInvestmentFusion : public FusionModel {
 public:
  /// `g` is the investment growth exponent (1.4 in the original paper).
  explicit PooledInvestmentFusion(double g = 1.4) : g_(g) {}

  std::string name() const override { return "pooled_investment"; }

  double growth() const { return g_; }

 protected:
  FusionResult FuseCompiled(const CompiledDatabase& c, const PriorSet& priors,
                            const FusionOptions& opts,
                            const FusionResult* warm) const override;

 private:
  double g_;
};

}  // namespace veritas

#endif  // VERITAS_FUSION_POOLED_INVESTMENT_H_
