// FusionResult: the <P, A> output of a fusion system (Definition 2) —
// per-claim correctness probabilities plus source accuracies.
//
// Probabilities are stored flat by global claim id, in the layout of the
// CompiledDatabase the result was fused over: claim k of item i lives at
// claim_offset(i) + k. item_probs(i) is a view into that array, so a reader
// that wants every probability (the delta engine's base state, the
// checkpoint codec) walks one contiguous run.
#ifndef VERITAS_FUSION_FUSION_RESULT_H_
#define VERITAS_FUSION_FUSION_RESULT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "model/compiled_database.h"
#include "model/database.h"
#include "model/types.h"

namespace veritas {

/// Probabilities of claims and accuracies of sources after fusion.
class FusionResult {
 public:
  FusionResult() = default;
  /// Shaped like `c` (all probabilities zero), with every source accuracy
  /// at `initial_accuracy`.
  FusionResult(const CompiledDatabase& c, double initial_accuracy);
  /// Same shape, read from the nested database (no CSR build).
  FusionResult(const Database& db, double initial_accuracy);

  /// p_i^k: probability that claim k of item i is true.
  double prob(ItemId item, ClaimIndex claim) const {
    return probs_[claim_offsets_[item] + claim];
  }
  std::span<const double> item_probs(ItemId item) const {
    return {probs_.data() + claim_offsets_[item],
            probs_.data() + claim_offsets_[item + 1]};
  }
  std::span<double> mutable_item_probs(ItemId item) {
    return {probs_.data() + claim_offsets_[item],
            probs_.data() + claim_offsets_[item + 1]};
  }
  /// Every probability, by global claim id.
  std::span<const double> probs() const { return probs_; }
  std::span<double> mutable_probs() { return probs_; }
  std::size_t num_items() const {
    return claim_offsets_.empty() ? 0 : claim_offsets_.size() - 1;
  }

  /// A_j: accuracy of source j.
  double accuracy(SourceId source) const { return accuracies_[source]; }
  const std::vector<double>& accuracies() const { return accuracies_; }
  std::vector<double>* mutable_accuracies() { return &accuracies_; }

  /// Claim with the highest probability (the model's pick, §3).
  ClaimIndex WinningClaim(ItemId item) const;

  /// Shannon entropy (nats) of item i's claim distribution (Eq. 3).
  double ItemEntropy(ItemId item) const;

  /// Sum of entropies over all items — the uncertainty metric (§5) and the
  /// negated entropy utility of Definition 5.
  double TotalEntropy() const;

  /// Iterations the fusion model ran.
  std::size_t iterations() const { return iterations_; }
  void set_iterations(std::size_t n) { iterations_ = n; }

  /// Whether the accuracy fixed-point iteration converged (the model is not
  /// guaranteed to converge, §3).
  bool converged() const { return converged_; }
  void set_converged(bool c) { converged_ = c; }

  /// True when every probability and accuracy is finite — the sanity gate a
  /// session checks before accepting a re-fusion (a NaN here would silently
  /// poison every downstream strategy score).
  bool AllFinite() const;

 private:
  std::vector<std::uint32_t> claim_offsets_;  // num_items + 1
  std::vector<double> probs_;                 // By global claim id.
  std::vector<double> accuracies_;
  std::size_t iterations_ = 0;
  bool converged_ = false;
};

}  // namespace veritas

#endif  // VERITAS_FUSION_FUSION_RESULT_H_
