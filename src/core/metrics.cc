#include "core/metrics.h"

namespace veritas {

double DistanceToGroundTruth(const FusionResult& fusion,
                             const GroundTruth& truth) {
  if (fusion.num_items() == 0) return 0.0;
  double sum = 0.0;
  for (ItemId i = 0; i < fusion.num_items(); ++i) {
    const ClaimIndex t = truth.TrueClaim(i);
    if (t == kInvalidClaim) continue;
    sum += 1.0 - fusion.prob(i, t);
  }
  return sum / static_cast<double>(fusion.num_items());
}

double Uncertainty(const FusionResult& fusion) {
  return fusion.TotalEntropy();
}

double GroundTruthUtility(const FusionResult& fusion,
                          const GroundTruth& truth) {
  if (fusion.probs().empty()) return 0.0;
  double sum = 0.0;
  for (ItemId i = 0; i < fusion.num_items(); ++i) {
    const ClaimIndex t = truth.TrueClaim(i);
    if (t == kInvalidClaim) continue;
    sum += fusion.prob(i, t) /
           static_cast<double>(fusion.item_probs(i).size());
  }
  return sum / static_cast<double>(fusion.probs().size());
}

double EntropyUtility(const FusionResult& fusion) {
  return -fusion.TotalEntropy();
}

double FusionAccuracy(const FusionResult& fusion, const GroundTruth& truth) {
  std::size_t known = 0;
  std::size_t correct = 0;
  for (ItemId i = 0; i < fusion.num_items(); ++i) {
    const ClaimIndex t = truth.TrueClaim(i);
    if (t == kInvalidClaim) continue;
    ++known;
    if (fusion.WinningClaim(i) == t) ++correct;
  }
  if (known == 0) return 0.0;
  return static_cast<double>(correct) / static_cast<double>(known);
}

}  // namespace veritas
