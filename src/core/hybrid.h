// Approx-MEU_k (§4.3 optimization 1, §B.3): the hybrid strategy that blends
// the insights of QBC, US and MEU. Unvalidated items are ranked primarily by
// vote entropy (QBC) and secondarily by fusion-output entropy (US); only the
// top k% participate as validation candidates AND as the impact set of the
// Approx-MEU estimate, shrinking the all-pairs cost from O(kappa m^2) to
// O(kappa K^2).
#ifndef VERITAS_CORE_HYBRID_H_
#define VERITAS_CORE_HYBRID_H_

#include "core/candidate_scan.h"
#include "core/strategy.h"

namespace veritas {

/// Approx-MEU restricted to the top k% most-disputed items.
class ApproxMeuKStrategy : public Strategy {
 public:
  /// `k_percent` in (0, 100]: fraction of the unvalidated conflicting items
  /// kept as candidates (at least one is always kept). `num_threads` > 1
  /// fans the impact scoring over the CandidateScan pool (lane-count-
  /// independent results, as for ApproxMeuStrategy).
  explicit ApproxMeuKStrategy(double k_percent, std::size_t num_threads = 1);

  std::string name() const override;

  std::vector<ItemId> SelectBatch(const StrategyContext& ctx,
                                  std::size_t batch) override;

  double k_percent() const { return k_percent_; }

  /// The filtered candidate list (top k% by vote entropy, then fusion
  /// entropy). Exposed for tests.
  static std::vector<ItemId> FilterCandidates(const StrategyContext& ctx,
                                              double k_percent);

 private:
  double k_percent_;
  CandidateScan scan_;
};

}  // namespace veritas

#endif  // VERITAS_CORE_HYBRID_H_
