#include "fusion/priors.h"

#include <cassert>
#include <cmath>

#include "util/math.h"

namespace veritas {

Status PriorSet::SetExact(const Database& db, ItemId item, ClaimIndex claim) {
  if (item >= db.num_items()) {
    return Status::OutOfRange("prior: item id out of range");
  }
  if (claim >= db.num_claims(item)) {
    return Status::OutOfRange("prior: claim index out of range for item '" +
                              db.item(item).name + "'");
  }
  PinExact(item, db.num_claims(item), claim);
  return Status::OK();
}

void PriorSet::PinExact(ItemId item, std::size_t num_claims,
                        ClaimIndex claim) {
  assert(claim < num_claims && "PinExact: claim index out of range");
  std::vector<double> probs(num_claims, 0.0);
  probs[claim] = 1.0;
  priors_[item] = std::move(probs);
}

Status PriorSet::SetDistribution(const Database& db, ItemId item,
                                 std::vector<double> probs) {
  if (item >= db.num_items()) {
    return Status::OutOfRange("prior: item id out of range");
  }
  if (probs.size() != db.num_claims(item)) {
    return Status::InvalidArgument(
        "prior: distribution size does not match claim count of item '" +
        db.item(item).name + "'");
  }
  // NaN compares false against every bound, so the range checks below would
  // silently accept a poisoned distribution; reject non-finite values first.
  VERITAS_RETURN_IF_ERROR(CheckFinite(probs, "prior distribution"));
  double sum = 0.0;
  for (double p : probs) {
    if (p < -1e-12 || p > 1.0 + 1e-12) {
      return Status::InvalidArgument("prior: probability out of [0,1]");
    }
    sum += p;
  }
  if (std::fabs(sum - 1.0) > 1e-6) {
    return Status::InvalidArgument("prior: distribution does not sum to 1");
  }
  priors_[item] = std::move(probs);
  return Status::OK();
}

std::size_t PriorSet::ExtendForNewClaims(const Database& db) {
  std::size_t extended = 0;
  for (auto& [item, probs] : priors_) {
    if (item < db.num_items() && probs.size() < db.num_claims(item)) {
      probs.resize(db.num_claims(item), 0.0);
      ++extended;
    }
  }
  return extended;
}

std::vector<ItemId> PriorSet::Items() const {
  std::vector<ItemId> out;
  out.reserve(priors_.size());
  for (const auto& [item, _] : priors_) out.push_back(item);
  return out;
}

}  // namespace veritas
