// Sharded candidate-scan coordination (DESIGN.md §5h). MEU's lookahead
// scan decouples from the single flat CSR by a two-stage protocol behind
// FusionOptions::shards (no other strategy reads it):
//
//   stage 1 (per shard): candidates are scored with *shard-confined*
//     lookaheads — the delta engine's propagation frontier never leaves the
//     candidate's shard (fusion/delta_fusion.h ItemScope), so a lookahead
//     costs O(shard reach) instead of O(reach of the heaviest shared
//     source). Per-shard branch-and-bound keeps only each shard's top
//     `quota` candidates competitive.
//   coordinator: the per-shard top-quota pools (item-disjoint by
//     construction) are merged deterministically.
//   stage 2: exact *unconfined* lookaheads re-rank the merged pool — the
//     only place full-precision gains are paid for, on a pool whose size is
//     O(shards · quota), independent of the database size.
//
// Determinism: the partition is a pure function of the compiled view
// (model/shard_partition.h), stage-1 thresholds are fed only exact confined
// gains (the same admissibility argument as the unsharded scan, per shard),
// and the merge orders by (estimate desc, item id asc) — so selections are
// identical for any thread count at a fixed shard count. shards <= 1
// bypasses all of this and IS the classic scan.
#ifndef VERITAS_FUSION_SHARDED_SCAN_H_
#define VERITAS_FUSION_SHARDED_SCAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fusion/delta_fusion.h"
#include "model/shard_partition.h"

namespace veritas {

/// Caches the deterministic ShardPartition for a strategy's sharded scans
/// and answers per-item propagation scopes. Rebuilds lazily when the view
/// (its id), its epoch or the requested shard count changes (a rebuilt view
/// invalidates the map — an appended item has no shard).
class ShardedScanPlan {
 public:
  /// Ensures the cached partition matches (view id, view epoch, shards).
  void Prepare(const CompiledDatabase& compiled, std::size_t shards);

  const ShardPartition& partition() const { return *partition_; }
  std::size_t num_shards() const { return partition_->num_shards(); }

  /// Propagation scope of `item`'s shard. Valid while the plan's partition
  /// is alive (it borrows the shard map and conflict list).
  ItemScope ScopeFor(ItemId item) const {
    ItemScope scope;
    scope.shard_of = partition_->shard_map().data();
    scope.shard = partition_->shard_of(item);
    scope.conflict_items = &partition_->conflict_items(scope.shard);
    return scope;
  }

  /// Per-shard candidate quota for the coordinator merge: 2x the batch with
  /// a small floor, so confined-estimate mis-rankings (dropped cross-shard
  /// coupling) stay inside the pool while stage 2 — whose unconfined
  /// lookaheads over the shards·quota pool are the scan's residual
  /// full-reach cost — stays small enough that sharding wins wall-clock
  /// even single-threaded.
  static std::size_t MergeQuota(std::size_t batch) {
    const std::size_t q = 2 * batch;
    return q < 4 ? 4 : q;
  }

 private:
  std::unique_ptr<ShardPartition> partition_;
  std::uint64_t view_id_ = 0;  ///< CompiledDatabase::id() of the partition.
};

/// One stage of the two-stage scan: gains (or estimates) parallel to
/// `candidates`, keeping the top `top_k` competitive — per shard in the
/// confined stage, overall in the exact stage. Entries that provably cannot
/// reach that top may hold an upper bound instead of the exact value.
using StageScorer = std::function<std::vector<double>(
    const std::vector<ItemId>& candidates, std::size_t top_k)>;

/// The merged pool of a sharded scan and its exact stage-2 gains (parallel).
struct ShardedScanResult {
  std::vector<ItemId> pool;
  std::vector<double> gains;
};

/// The whole two-stage protocol for one round: `confined` scores every
/// candidate with shard-confined lookaheads and MergeQuota(batch) as the
/// per-shard quota, MergeTopCandidatesPerShard keeps each shard's top quota,
/// and `exact` re-scores that pool unconfined with `batch` as its top. The
/// caller ranks the pool by the returned gains.
ShardedScanResult RunShardedScan(const std::vector<ItemId>& candidates,
                                 std::size_t batch,
                                 const ShardPartition& partition,
                                 const StageScorer& confined,
                                 const StageScorer& exact);

/// Coordinator merge: for each shard, the top-`quota` of its candidates by
/// estimate (ties: lower item id), concatenated over shards and returned in
/// ascending item-id order. `estimates` is parallel to `candidates`; pruned
/// entries may hold upper bounds strictly below their shard's quota-th best
/// exact estimate, which cannot alter the per-shard top-quota. Empty shards
/// contribute nothing.
std::vector<ItemId> MergeTopCandidatesPerShard(
    const std::vector<ItemId>& candidates, const std::vector<double>& estimates,
    const ShardPartition& partition, std::size_t quota);

}  // namespace veritas

#endif  // VERITAS_FUSION_SHARDED_SCAN_H_
