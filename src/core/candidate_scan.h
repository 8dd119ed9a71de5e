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
//
// Near ties: a fast scorer may sum in another order than the canonical one
// and so differ from it in the last bits. Two gains that close would swap
// whenever the summation order changes. A strategy that owns a canonical
// evaluator passes it to the final selection (SelectTopK): take g_k, the
// k-th best fast gain; re-score every candidate whose fast gain is at least
// g_k - kNearTieRel * max(|g_k|, kNearTieFloor) canonically; select by
// (canonical gain desc, item id asc). While the fast path stays within
// half that window of the canonical gain, this is exactly the canonical
// top k: a candidate below the window cannot overtake the k candidates at
// or above g_k. Approx-MEU and Approx-MEU_k pass the per-hypothesis body as
// the canonical scorer (core/approx_meu.h); MEU and GUB pass none and keep
// plain TopKByScore. Each re-scored candidate counts in
// `scan.near_tie_rescored`.
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
  /// The canonical gain of candidate `idx`, for the near-tie step. Runs
  /// serially on the caller thread.
  using CanonicalScorer = std::function<double(std::size_t idx)>;

  /// Width of the near-tie window relative to max(|g_k|, kNearTieFloor):
  /// twice the documented error of the fast Approx-MEU kernel, whose gains
  /// stay within 1e-9 * max(|gain|, kNearTieFloor) of the canonical ones
  /// (DifferentialInvariantTest in tests/property_strategies_test.cc).
  static constexpr double kNearTieRel = 2e-9;
  /// One nat. A gain is the difference of two entropy totals, so its
  /// rounding error is absolute, not relative to the gain; the floor keeps
  /// the window from shrinking with the gain.
  static constexpr double kNearTieFloor = 1.0;

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

  /// The top `k` of `candidates` by `gains` (parallel), best first. Without
  /// a `canonical` scorer this is TopKByScore. With one, the candidates in
  /// the near-tie window of the k-th best gain are re-scored canonically
  /// and ranked by (canonical gain desc, item id asc); the window is
  /// skipped when it holds one candidate, and after a hard stop on
  /// `cancel` (whose round the session discards).
  static std::vector<ItemId> SelectTopK(const std::vector<ItemId>& candidates,
                                        const std::vector<double>& gains,
                                        std::size_t k,
                                        const CanonicalScorer& canonical,
                                        const CancellationToken* cancel);

 private:
  std::size_t lanes_;
  std::unique_ptr<ThreadPool> pool_;  // Lazy; persists across rounds.
};

}  // namespace veritas

#endif  // VERITAS_CORE_CANDIDATE_SCAN_H_
