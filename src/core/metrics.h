// Performance metrics of §5 plus the utility functions of §4.2.1:
//   distance_to_ground_truth  — average error of fusion w.r.t. truth,
//   uncertainty               — total output entropy,
//   ground-truth utility      — Definition 3 (GUB's objective),
//   entropy utility           — Definition 5 (MEU's objective).
#ifndef VERITAS_CORE_METRICS_H_
#define VERITAS_CORE_METRICS_H_

#include "fusion/fusion_result.h"
#include "model/ground_truth.h"

namespace veritas {

/// distance_to_ground_truth = sum_{i : truth known} (1 - p_i^true) / |O|.
/// Items with unknown truth contribute zero (partial silver standards).
double DistanceToGroundTruth(const FusionResult& fusion,
                             const GroundTruth& truth);

/// uncertainty = sum_i H_i, the total Shannon entropy (nats) of the output.
double Uncertainty(const FusionResult& fusion);

/// Ground-truth utility (Definition 3):
///   U = (1/|V|) * sum_i p_i^true / |V_i|,
/// i.e. the average correctness of true claims. 1 means fusion is certain of
/// every true claim. Items with unknown truth contribute zero.
double GroundTruthUtility(const FusionResult& fusion,
                          const GroundTruth& truth);

/// Entropy utility (Definition 5): EU = -sum_i H_i. Closer to 0 is better.
double EntropyUtility(const FusionResult& fusion);

/// Fraction of items with known truth whose winning claim is the true claim
/// (a conventional accuracy readout, used in examples and reports).
double FusionAccuracy(const FusionResult& fusion, const GroundTruth& truth);

}  // namespace veritas

#endif  // VERITAS_CORE_METRICS_H_
