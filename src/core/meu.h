// MEU — Maximum Expected Utility (§4.2.2, Algorithm 1): the exact VPI
// framework over the entropy utility function (Definition 5).
//
// For every candidate item o_i and every claim v_i^k, MEU pins v_i^k as true,
// re-runs fusion, and measures the resulting total entropy. The expected
// utility of validating o_i is the p_i^k-weighted average of those entropies;
// the item maximizing the expected entropy reduction (Eq. 7) is selected.
//
// Cost: O(m * kappa) re-fusions per action — exact but expensive. The scan
// engine here attacks that from three sides (DESIGN.md §5f):
//   * the shared CandidateScan kernel (core/candidate_scan.h): a persistent
//     pool with per-lane delta-fusion workspaces, reused across SelectNext
//     rounds (no thread spawns);
//   * branch-and-bound pruning: candidates are visited best-first (seeded by
//     last round's ranking), a shared monotone threshold tracks the batch-th
//     best exact gain, and a candidate is abandoned — a priori or mid-claim —
//     once an upper bound on its gain falls below that threshold;
//   * the delta engine's flat SoA frontier passes (fusion/delta_fusion.h).
// The bound is a heuristic, not a proof: (1 + kPruneMarginRel) * H_item
// caps a pin's ripple into other items only empirically (for Accu the
// ripple is unbounded in adversarial constructions; Voting has none, so
// there the bound is exact). When it fails, a pruned candidate's true gain
// beats the selection, so pruned MEU can pick other items than the exact
// unpruned scan. Which candidates are pruned also depends on the order in
// which lanes raise the shared threshold, so selections can differ between
// thread counts too: `perfbench/run.py --workload meu_books --seed 13`
// trips the gate with "selections differ between 1 and 2 lanes" (see the
// ROADMAP's selection-identity item). Requires ctx.model and
// ctx.fusion_opts.
#ifndef VERITAS_CORE_MEU_H_
#define VERITAS_CORE_MEU_H_

#include <utility>
#include <vector>

#include "core/candidate_scan.h"
#include "core/strategy.h"
#include "fusion/delta_fusion.h"
#include "fusion/sharded_scan.h"

namespace veritas {

/// Knobs of the pruned lookahead scan.
struct MeuScanOptions {
  /// Branch-and-bound pruning of candidates whose (heuristic) gain bound
  /// falls below the running threshold. Only active on the delta-fusion
  /// path with more candidates than the batch.
  bool prune = true;
};

/// Exact one-step-lookahead VPI strategy with the entropy utility.
class MeuStrategy : public Strategy {
 public:
  /// Relative margin of the per-claim gain bound for models with cross-item
  /// influence: a pin on o_i is assumed to reduce total entropy by at most
  /// (1 + margin) * H(o_i). Voting uses the exact bound H(o_i); for Accu and
  /// TruthFinder the ripple through source accuracies is a heuristic bound,
  /// not a theorem — dense synthetic data has been observed at 1.9x H(o_i),
  /// so the margin leaves ~60% headroom. Validated empirically by the
  /// equivalence suite and the exported meu.max_gain_bound_ratio gauge
  /// (see DESIGN.md §5f).
  static constexpr double kPruneMarginRel = 2.0;
  /// How many of last round's best candidates seed the front of the scan.
  static constexpr std::size_t kSeedLimit = 64;

  /// `num_threads` > 1 scores candidates concurrently on the CandidateScan
  /// pool (the lookahead re-fusions are independent). Selected items are
  /// identical for every thread count. All built-in fusion models are
  /// thread-safe.
  explicit MeuStrategy(std::size_t num_threads = 1, MeuScanOptions options = {})
      : scan_(num_threads), options_(options) {}

  std::string name() const override { return "meu"; }

  std::size_t num_threads() const { return scan_.lanes(); }

  /// Clears the cross-round seed ranking and the cached shard partition (the
  /// pool survives).
  void Reset() override {
    seed_ranking_.clear();
    shard_plan_ = ShardedScanPlan();
  }

  std::vector<ItemId> SelectBatch(const StrategyContext& ctx,
                                  std::size_t batch) override;

  /// Gains (Eq. 7 Delta-EU) parallel to `candidates`. With `allow_prune`,
  /// entries that provably cannot reach the top `top_k` may hold an upper
  /// bound on their gain instead of the exact value (always strictly below
  /// the top_k-th best exact gain, so TopKByScore over the result is
  /// unchanged); without it every entry is exact. Used by SequentialMeu for
  /// its (necessarily unpruned) myopic preselection.
  std::vector<double> ScoreCandidateGains(const StrategyContext& ctx,
                                          const std::vector<ItemId>& candidates,
                                          std::size_t top_k, bool allow_prune);

  /// Expected total entropy after validating `item` (the EU* of Table 6):
  ///   sum_k p_i^k * TotalEntropy(F(D | v_i^k = true)).
  /// Exposed for the worked-example tests and diagnostics.
  static double ExpectedEntropyAfterValidation(const StrategyContext& ctx,
                                               ItemId item);

  /// Delta-fusion fast path: same quantity, computed by propagating each
  /// hypothetical pin from `base` (prepared from ctx.fusion) with reusable
  /// scratch `ws`. Precondition: ctx.delta != nullptr. Candidate scans call
  /// this with one shared base and a per-worker workspace.
  static double ExpectedEntropyAfterValidation(
      const StrategyContext& ctx, ItemId item,
      const DeltaFusionEngine::BaseState& base, DeltaFusionEngine::Workspace& ws);

 private:
  /// The scan order: indices into `candidates`, last round's ranking first,
  /// then descending current item entropy (ties: lower item id). Purely a
  /// function of (seed_ranking_, ctx) — identical for every thread count.
  std::vector<std::size_t> ScanOrder(const StrategyContext& ctx,
                                     const std::vector<ItemId>& candidates) const;

  /// The scan body behind ScoreCandidateGains. With a non-null `plan`, gains
  /// are shard-confined *estimates* (each candidate's lookahead propagates
  /// inside its own shard only) and branch-and-bound runs per shard with
  /// `top_k` as the per-shard quota; the seed ranking is not updated (it
  /// belongs to the exact scan). With a null plan this is the classic exact
  /// scan. `shared_base`, when non-null, is a flattened base the caller owns
  /// — the sharded path prepares it once and reuses it across both stages
  /// (flattening is O(database), the stages are not).
  std::vector<double> ScanCandidateGains(
      const StrategyContext& ctx, const std::vector<ItemId>& candidates,
      std::size_t top_k, bool allow_prune, const ShardedScanPlan* plan,
      const DeltaFusionEngine::BaseState* shared_base = nullptr);

  /// Per-lane scratch, persistent so a round only pays one lazy base sync
  /// per lane instead of re-allocating O(database) delta workspaces.
  struct LaneScratch {
    DeltaFusionEngine::Workspace ws;
    std::vector<std::pair<double, ClaimIndex>> claims;  // (pk, k), reused.
  };

  CandidateScan scan_;
  MeuScanOptions options_;
  std::vector<LaneScratch> lanes_;
  std::vector<ItemId> seed_ranking_;  // Last round's best, best first.
  /// Cached shard partition for FusionOptions::shards > 1 (rebuilt on epoch
  /// or shard-count change).
  ShardedScanPlan shard_plan_;
};

}  // namespace veritas

#endif  // VERITAS_CORE_MEU_H_
