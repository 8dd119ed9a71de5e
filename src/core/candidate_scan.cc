#include "core/candidate_scan.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/metrics.h"
#include "util/cancellation.h"

namespace veritas {

std::vector<double> CandidateScan::Gains(
    const std::vector<ItemId>& candidates, const Scorer& score,
    const CancellationToken* cancel, const std::vector<std::size_t>* order) {
  const std::size_t n = candidates.size();
  std::vector<double> gains(n, 0.0);
  const ThreadPool::Body body = [&](std::size_t lane, std::size_t begin,
                                    std::size_t end) {
    for (std::size_t pos = begin; pos < end; ++pos) {
      if (HardStopRequested(cancel)) return;
      const std::size_t idx = order != nullptr ? (*order)[pos] : pos;
      gains[idx] = score(lane, idx);
    }
  };
  if (lanes_ <= 1 || n < kSerialCutoff) {
    body(/*lane=*/0, 0, n);
  } else {
    // Built on first use: a scan that only ever sees tiny rounds never
    // starts a thread.
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(lanes_);
    pool_->ParallelFor(n, kChunkSize, body);
  }
  return gains;
}

std::vector<ItemId> CandidateScan::SelectTopK(
    const std::vector<ItemId>& candidates, const std::vector<double>& gains,
    std::size_t k, const CanonicalScorer& canonical,
    const CancellationToken* cancel) {
  static Counter* rescored =
      MetricsRegistry::Global().GetCounter("scan.near_tie_rescored");
  const std::size_t take = std::min(k, candidates.size());
  if (!canonical || take == 0 || HardStopRequested(cancel)) {
    return TopKByScore(candidates, gains, k);
  }
  std::vector<double> sorted = gains;
  std::nth_element(sorted.begin(), sorted.begin() + (take - 1), sorted.end(),
                   std::greater<>());
  const double g_k = sorted[take - 1];
  const double cutoff =
      g_k - kNearTieRel * std::max(std::fabs(g_k), kNearTieFloor);
  std::vector<std::size_t> window;
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    if (gains[idx] >= cutoff) window.push_back(idx);
  }
  if (window.size() <= 1) return TopKByScore(candidates, gains, k);

  rescored->Add(window.size());
  std::vector<ItemId> items;
  std::vector<double> canonical_gains;
  items.reserve(window.size());
  canonical_gains.reserve(window.size());
  for (std::size_t idx : window) {
    items.push_back(candidates[idx]);
    canonical_gains.push_back(canonical(idx));
  }
  return TopKByScore(items, canonical_gains, k);
}

}  // namespace veritas
