#include "fusion/sharded_scan.h"

#include <algorithm>

namespace veritas {

void ShardedScanPlan::Prepare(const CompiledDatabase& compiled,
                              std::size_t shards) {
  if (shards == 0) shards = 1;
  if (partition_ != nullptr && view_id_ == compiled.id() &&
      partition_->epoch() == compiled.epoch() &&
      partition_->num_shards() == shards) {
    return;
  }
  partition_ = std::make_unique<ShardPartition>(compiled, shards);
  view_id_ = compiled.id();
}

ShardedScanResult RunShardedScan(const std::vector<ItemId>& candidates,
                                 std::size_t batch,
                                 const ShardPartition& partition,
                                 const StageScorer& confined,
                                 const StageScorer& exact) {
  const std::size_t quota = ShardedScanPlan::MergeQuota(batch);
  ShardedScanResult result;
  result.pool = MergeTopCandidatesPerShard(
      candidates, confined(candidates, quota), partition, quota);
  result.gains = exact(result.pool, batch);
  return result;
}

std::vector<ItemId> MergeTopCandidatesPerShard(
    const std::vector<ItemId>& candidates, const std::vector<double>& estimates,
    const ShardPartition& partition, std::size_t quota) {
  // Bucket candidate indices by shard, preserving candidate order.
  std::vector<std::vector<std::size_t>> by_shard(partition.num_shards());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    by_shard[partition.shard_of(candidates[i])].push_back(i);
  }

  std::vector<ItemId> pool;
  for (std::vector<std::size_t>& bucket : by_shard) {
    if (bucket.empty()) continue;
    const std::size_t keep = std::min(quota, bucket.size());
    std::partial_sort(bucket.begin(), bucket.begin() + keep, bucket.end(),
                      [&](std::size_t a, std::size_t b) {
                        if (estimates[a] != estimates[b]) {
                          return estimates[a] > estimates[b];
                        }
                        return candidates[a] < candidates[b];
                      });
    for (std::size_t r = 0; r < keep; ++r) {
      pool.push_back(candidates[bucket[r]]);
    }
  }
  // A canonical pool order (ascending item id) makes the stage-2 input — and
  // with it the whole selection — independent of shard enumeration order.
  std::sort(pool.begin(), pool.end());
  return pool;
}

}  // namespace veritas
