#include "core/qbc.h"

namespace veritas {

std::vector<ItemId> QbcStrategy::SelectBatch(const StrategyContext& ctx,
                                             std::size_t batch) {
  const CompiledDatabase& c = *ctx.compiled;
  const std::uint64_t epoch = c.epoch();
  if (ranked_.empty() || ranked_db_ != ctx.db || ranked_epoch_ != epoch ||
      ranked_includes_singletons_ != ctx.include_singletons) {
    std::vector<ItemId> candidates;
    for (ItemId i = 0; i < c.num_items(); ++i) {
      if (!ctx.include_singletons && c.item_num_claims(i) < 2) continue;
      candidates.push_back(i);
    }
    std::vector<double> scores;
    scores.reserve(candidates.size());
    for (ItemId i : candidates) scores.push_back(VoteEntropy(c, i));
    ranked_ = TopKByScore(candidates, scores, candidates.size());
    ranked_db_ = ctx.db;
    ranked_epoch_ = epoch;
    ranked_includes_singletons_ = ctx.include_singletons;
  }
  std::vector<ItemId> out;
  for (ItemId i : ranked_) {
    if (out.size() >= batch) break;
    if (ctx.priors->Has(i)) continue;
    if (ctx.excluded != nullptr && ctx.excluded->count(i) > 0) continue;
    if (ctx.require_known_truth && ctx.ground_truth != nullptr &&
        !ctx.ground_truth->Knows(i)) {
      continue;
    }
    out.push_back(i);
  }
  return out;
}

}  // namespace veritas
