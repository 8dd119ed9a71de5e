#include "core/candidate_scan.h"

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

}  // namespace veritas
