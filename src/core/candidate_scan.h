// CandidateScan: the one candidate-scan kernel behind the lookahead
// strategies (MEU, Approx-MEU, Approx-MEU_k, GUB; DESIGN.md §5f).
//
// Every lookahead strategy scores each candidate validation against the same
// fusion result and keeps the best. The strategies differ only in the
// per-candidate scorer; the scan around it is shared: the lane count, the
// lazily built persistent ThreadPool, the serial cutoff for tiny rounds, the
// chunk size, the hard-stop poll before every candidate, and the final
// TopKByScore.
//
// Determinism: the scorer writes nothing shared — its return value lands in
// the candidate's own slot — so the gains, and the selection, are the same
// for every lane count as long as the scorer's value does not depend on the
// schedule. (MEU's pruned scorer may return a schedule-dependent *bound*
// for a losing candidate; see meu.h for why that cannot change the top-k.)
#ifndef VERITAS_CORE_CANDIDATE_SCAN_H_
#define VERITAS_CORE_CANDIDATE_SCAN_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/strategy.h"
#include "util/thread_pool.h"

namespace veritas {

class CandidateScan {
 public:
  /// Candidate sets smaller than this run inline on the caller thread —
  /// pool dispatch costs more than it buys on tiny rounds.
  static constexpr std::size_t kSerialCutoff = 32;
  /// Candidates per pool chunk.
  static constexpr std::size_t kChunkSize = 8;

  /// Scores one candidate: `idx` indexes the candidate list, `lane` in
  /// [0, lanes()) indexes per-lane scratch. Returns the candidate's gain.
  using Scorer = std::function<double(std::size_t lane, std::size_t idx)>;

  /// `lanes` > 1 scores candidates concurrently; 0 means 1.
  explicit CandidateScan(std::size_t lanes = 1)
      : lanes_(lanes == 0 ? 1 : lanes) {}

  std::size_t lanes() const { return lanes_; }

  /// Gains parallel to `candidates`. Candidates are visited in `order` (a
  /// permutation of candidate indices; null = list order), so with more
  /// than one lane the front of the order still runs first. A hard stop on
  /// `cancel` abandons the scan and leaves the unscored gains at 0 — the
  /// session discards such a round.
  std::vector<double> Gains(const std::vector<ItemId>& candidates,
                            const Scorer& score,
                            const CancellationToken* cancel,
                            const std::vector<std::size_t>* order = nullptr);

  /// The top `k` candidates by Gains (TopKByScore tie-breaking).
  std::vector<ItemId> Select(const std::vector<ItemId>& candidates,
                             std::size_t k, const Scorer& score,
                             const CancellationToken* cancel) {
    return TopKByScore(candidates, Gains(candidates, score, cancel), k);
  }

 private:
  std::size_t lanes_;
  std::unique_ptr<ThreadPool> pool_;  // Lazy; persists across rounds.
};

}  // namespace veritas

#endif  // VERITAS_CORE_CANDIDATE_SCAN_H_
