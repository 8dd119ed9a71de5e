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

#include <cmath>
#include <span>

#include "fusion/fusion_model.h"
#include "util/math.h"

namespace veritas {

/// TruthFinder-style fusion adapted to emit per-item distributions.
class TruthFinderFusion : public FusionModel {
 public:
  /// `gamma` is TruthFinder's dampening factor (0.3 in the original paper).
  explicit TruthFinderFusion(double gamma = 0.3) : gamma_(gamma) {}

  std::string name() const override { return "truthfinder"; }

  double gamma() const { return gamma_; }

  /// The per-source term tau(s) = -ln(1 - t(s)) of the clamped trust. A
  /// claim's raw confidence sigma is the sum of its voters' terms
  /// (GatherClaimScores with no per-vote constant).
  static double SourceTerm(double trust) {
    return -std::log(1.0 - ClampAccuracy(trust));
  }

  /// The item's distribution from its claims' raw confidences: the
  /// dampened logistic 1 / (1 + exp(-gamma * sigma)) of each claim,
  /// normalized over the item. `out` may alias `sigma`.
  static void ConfidenceShares(double gamma, std::span<const double> sigma,
                               std::span<double> out) {
    double total = 0.0;
    for (std::size_t k = 0; k < sigma.size(); ++k) {
      out[k] = 1.0 / (1.0 + std::exp(-gamma * sigma[k]));
      total += out[k];
    }
    for (double& p : out) p /= total;
  }

 protected:
  FusionResult FuseCompiled(const CompiledDatabase& c, const PriorSet& priors,
                            const FusionOptions& opts,
                            const FusionResult* warm) const override;

 private:
  double gamma_;
};

}  // namespace veritas

#endif  // VERITAS_FUSION_TRUTHFINDER_H_
