// SimpleLCA — Latent Credibility Analysis (Pasternack & Roth, WWW 2013),
// simple variant. Cited in the paper's related work ([30]) as a
// probabilistic-graphical-model approach to fusion; included as the fourth
// alternative substrate behind the FusionModel interface.
//
// Each source has an honesty parameter H(s); a claim's posterior is
// proportional to
//   prod_{s in S(v)} H(s) * prod_{s votes elsewhere on the item}
//     (1 - H(s)) / (|V_i| - 1),
// which in log space is a softmax over
//   score(v) = sum_{s in S(v)} [ ln H(s) - ln((1-H(s))/(|V_i|-1)) ]
// (per-item constants cancel). Honesty updates as the expected fraction of
// a source's claims that are true, smoothed toward the initial value.
#ifndef VERITAS_FUSION_LCA_H_
#define VERITAS_FUSION_LCA_H_

#include "fusion/fusion_model.h"

namespace veritas {

/// SimpleLCA-style fusion.
class SimpleLcaFusion : public FusionModel {
 public:
  /// `smoothing` is the pseudo-count pulling honesty toward the initial
  /// accuracy (stabilizes sources with few claims).
  explicit SimpleLcaFusion(double smoothing = 1.0) : smoothing_(smoothing) {}

  std::string name() const override { return "lca"; }

  double smoothing() const { return smoothing_; }

 protected:
  FusionResult FuseCompiled(const CompiledDatabase& c, const PriorSet& priors,
                            const FusionOptions& opts,
                            const FusionResult* warm) const override;

 private:
  double smoothing_;
};

}  // namespace veritas

#endif  // VERITAS_FUSION_LCA_H_
