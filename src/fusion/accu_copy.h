// AccuCopy — Accu with source-dependence (copy) detection, after Dong,
// Berti-Equille, Srivastava, "Integrating conflicting data: the role of
// source dependence" (PVLDB 2009). The paper's §3 fusion model (AccuNoDep)
// is the independence special case of this model; the paper cites the full
// model as the basis of the Accu family [6,7,24].
//
// Core ideas implemented here:
//  * Pairwise dependence: for each pair of sources with enough overlapping
//    items, a Bayesian posterior P(dependent | observations) is computed
//    from how often the pair shares the (currently believed) true value,
//    shares a false value — strong evidence of copying — or differs:
//      P(same true | indep) = A1 A2
//      P(same false | indep) = (1-A1)(1-A2)/n
//      P(same true | copy)  = c A2 + (1-c) A1 A2
//      P(same false | copy) = c (1-A2) + (1-c)(1-A1)(1-A2)/n
//      P(diff | copy)       = (1-c) P(diff | indep)
//    with copy rate c and n false values per item.
//  * Vote discounting: when scoring a claim, the vote of source s is
//    weighted by its independence factor
//      I(s | v) = prod_{s' also voting v} (1 - c P(s ~ s')),
//    so a clique of copiers contributes barely more than one vote.
//  * The usual Accu alternation between claim probabilities and source
//    accuracies, with the dependence matrix re-estimated each round.
//
// Complexity: O(|S|^2 * overlap) per dependence update — intended for up to
// a few hundred sources (flights-style data); the paper's datasets with
// thousands of sources would use blocking, which is out of scope here.
#ifndef VERITAS_FUSION_ACCU_COPY_H_
#define VERITAS_FUSION_ACCU_COPY_H_

#include <mutex>
#include <vector>

#include "fusion/fusion_model.h"

namespace veritas {

/// Knobs of the copy-detection model.
struct AccuCopyOptions {
  /// Prior probability that an arbitrary source pair is dependent (alpha).
  double prior_copy_probability = 0.1;
  /// Probability that a dependent source copies (rather than independently
  /// provides) any particular shared item (c).
  double copy_rate = 0.8;
  /// Pairs with fewer overlapping items than this are assumed independent.
  std::size_t min_overlap = 3;
  /// Rounds of (dependence, probabilities, accuracies) alternation.
  std::size_t dependence_rounds = 3;
};

/// Accu with pairwise copy detection and vote discounting.
class AccuCopyFusion : public FusionModel {
 public:
  explicit AccuCopyFusion(AccuCopyOptions copy_options = {})
      : copy_options_(copy_options) {}

  std::string name() const override { return "accu_copy"; }

  /// Posterior dependence probabilities of the last completed Fuse call, as
  /// a dense symmetric matrix indexed [s1 * num_sources + s2] (diagonal 0).
  /// Exposed for diagnostics, tests and the copy-detection bench. Fuse works
  /// on per-call scratch and publishes here once at the end, so concurrent
  /// Fuse calls are safe; do not read the reference while a Fuse is running.
  const std::vector<double>& last_dependence() const { return dependence_; }

  /// Convenience accessor into last_dependence(). Safe to call concurrently
  /// with Fuse (reads under the publish lock).
  double DependenceProbability(SourceId a, SourceId b) const;

  const AccuCopyOptions& copy_options() const { return copy_options_; }

 protected:
  FusionResult FuseCompiled(const CompiledDatabase& c, const PriorSet& priors,
                            const FusionOptions& opts,
                            const FusionResult* warm) const override;

 private:
  AccuCopyOptions copy_options_;
  // Diagnostics snapshot of the last Fuse, published under diag_mutex_
  // (mutable: Fuse is logically const). The fusion itself never reads it.
  mutable std::mutex diag_mutex_;
  mutable std::vector<double> dependence_;
  mutable std::size_t last_num_sources_ = 0;
};

}  // namespace veritas

#endif  // VERITAS_FUSION_ACCU_COPY_H_
