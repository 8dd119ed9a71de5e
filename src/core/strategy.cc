#include "core/strategy.h"

#include <algorithm>
#include <numeric>

#include "fusion/voting.h"
#include "util/math.h"

namespace veritas {

ItemId Strategy::SelectNext(const StrategyContext& ctx) {
  const std::vector<ItemId> batch = SelectBatch(ctx, 1);
  return batch.empty() ? kInvalidItem : batch.front();
}

std::vector<ItemId> CandidateItems(const StrategyContext& ctx) {
  std::vector<ItemId> out;
  const CompiledDatabase& c = *ctx.compiled;
  for (ItemId i = 0; i < c.num_items(); ++i) {
    if (ctx.priors->Has(i)) continue;
    if (ctx.excluded != nullptr && ctx.excluded->count(i) > 0) continue;
    if (!ctx.include_singletons && c.item_num_claims(i) < 2) continue;
    if (ctx.require_known_truth && ctx.ground_truth != nullptr &&
        !ctx.ground_truth->Knows(i)) {
      continue;
    }
    out.push_back(i);
  }
  return out;
}

std::vector<ItemId> TopKByScore(const std::vector<ItemId>& candidates,
                                const std::vector<double>& scores,
                                std::size_t k) {
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t take = std::min(k, candidates.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return candidates[a] < candidates[b];
                    });
  std::vector<ItemId> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(candidates[order[i]]);
  return out;
}

double VoteEntropy(const CompiledDatabase& c, ItemId item) {
  return Entropy(VotingFusion::VoteShares(c, item));
}

}  // namespace veritas
