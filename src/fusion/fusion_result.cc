#include "fusion/fusion_result.h"

#include <cmath>

#include "util/math.h"

namespace veritas {

FusionResult::FusionResult(const CompiledDatabase& c,
                           double initial_accuracy) {
  claim_offsets_.resize(c.num_items() + 1);
  for (ItemId i = 0; i <= c.num_items(); ++i) {
    claim_offsets_[i] = c.claim_offset(i);
  }
  probs_.assign(c.num_claims(), 0.0);
  accuracies_.assign(c.num_sources(), initial_accuracy);
}

FusionResult::FusionResult(const Database& db, double initial_accuracy) {
  claim_offsets_.reserve(db.num_items() + 1);
  claim_offsets_.push_back(0);
  for (ItemId i = 0; i < db.num_items(); ++i) {
    claim_offsets_.push_back(claim_offsets_.back() +
                             static_cast<std::uint32_t>(db.num_claims(i)));
  }
  probs_.assign(db.num_claims(), 0.0);
  accuracies_.assign(db.num_sources(), initial_accuracy);
}

ClaimIndex FusionResult::WinningClaim(ItemId item) const {
  return static_cast<ClaimIndex>(ArgMax(item_probs(item)));
}

double FusionResult::ItemEntropy(ItemId item) const {
  return Entropy(item_probs(item));
}

double FusionResult::TotalEntropy() const {
  // Per-item sums first, then the total: the association every caller's
  // recorded entropies were computed with.
  double total = 0.0;
  for (ItemId i = 0; i < num_items(); ++i) total += Entropy(item_probs(i));
  return total;
}

bool FusionResult::AllFinite() const {
  for (double p : probs_) {
    if (!std::isfinite(p)) return false;
  }
  for (double a : accuracies_) {
    if (!std::isfinite(a)) return false;
  }
  return true;
}

}  // namespace veritas
