// PriorSet: validated knowledge injected into fusion (paper §2, §4.4).
//
// A prior pins an item's claim distribution: fusion models do not recompute
// the item's probabilities, but the pinned probabilities still drive source
// accuracy updates. Exact validation pins a one-hot distribution;
// confidence-weighted or conflicting (crowd) feedback pins an arbitrary
// distribution over the item's claims.
#ifndef VERITAS_FUSION_PRIORS_H_
#define VERITAS_FUSION_PRIORS_H_

#include <unordered_map>
#include <vector>

#include "model/database.h"
#include "model/types.h"
#include "util/status.h"

namespace veritas {

/// Fixed claim distributions for validated items.
class PriorSet {
 public:
  /// Pins `item` to the one-hot distribution with `claim` true (p = 1).
  Status SetExact(const Database& db, ItemId item, ClaimIndex claim);

  /// SetExact without the checks, for an item and claim read off the view
  /// (lookahead hypotheses); asserts claim < num_claims.
  void PinExact(ItemId item, std::size_t num_claims, ClaimIndex claim);

  /// Pins `item` to an arbitrary distribution over its claims. `probs` must
  /// have one entry per claim, each in [0, 1], summing to 1 (tolerance 1e-6).
  Status SetDistribution(const Database& db, ItemId item,
                         std::vector<double> probs);

  /// Removes the prior on `item` (no-op if absent).
  void Erase(ItemId item) { priors_.erase(item); }

  /// True when `item` has a pinned distribution.
  bool Has(ItemId item) const { return priors_.count(item) > 0; }

  /// The pinned distribution. Precondition: Has(item).
  const std::vector<double>& Get(ItemId item) const {
    return priors_.at(item);
  }

  /// Zero-extends every pinned distribution to its item's current claim
  /// count. Streaming appends can add claims to an already-validated item;
  /// the validated answer keeps probability 1 and the newcomer claims get 0
  /// (the oracle's verdict stands — a late claim is not evidence against
  /// it). Returns the number of priors extended.
  std::size_t ExtendForNewClaims(const Database& db);

  std::size_t size() const { return priors_.size(); }
  bool empty() const { return priors_.empty(); }
  void Clear() { priors_.clear(); }

  /// Ids of all pinned items (unordered).
  std::vector<ItemId> Items() const;

  auto begin() const { return priors_.begin(); }
  auto end() const { return priors_.end(); }

 private:
  std::unordered_map<ItemId, std::vector<double>> priors_;
};

}  // namespace veritas

#endif  // VERITAS_FUSION_PRIORS_H_
