#include "core/sequential_meu.h"

#include <algorithm>
#include <cassert>

#include "core/meu.h"

namespace veritas {

namespace {

// Expected entropy of the best single follow-up validation from the state
// (db, priors, fusion): min over the `inner_beam` most uncertain
// unvalidated items of the one-step expected entropy.
double BestFollowUpEntropy(const StrategyContext& outer, const PriorSet& priors,
                           const FusionResult& fusion,
                           std::size_t inner_beam) {
  StrategyContext ctx = outer;
  ctx.priors = &priors;
  ctx.fusion = &fusion;

  // Inner candidates: the most uncertain items of the hypothesized state
  // (a US-style preselection keeps the inner loop cheap).
  std::vector<ItemId> candidates = CandidateItems(ctx);
  if (candidates.empty()) return fusion.TotalEntropy();
  std::vector<double> entropies;
  entropies.reserve(candidates.size());
  for (ItemId j : candidates) entropies.push_back(fusion.ItemEntropy(j));
  const std::vector<ItemId> beam =
      TopKByScore(candidates, entropies, inner_beam);

  double best = fusion.TotalEntropy();  // "Do nothing" upper bound.
  if (ctx.delta != nullptr && ctx.warm_start_lookahead) {
    const DeltaFusionEngine::BaseState base = ctx.delta->PrepareBase(fusion);
    DeltaFusionEngine::Workspace ws;
    for (ItemId j : beam) {
      best = std::min(
          best, MeuStrategy::ExpectedEntropyAfterValidation(ctx, j, base, ws));
    }
    return best;
  }
  for (ItemId j : beam) {
    const double expected =
        MeuStrategy::ExpectedEntropyAfterValidation(ctx, j);
    best = std::min(best, expected);
  }
  return best;
}

}  // namespace

double SequentialMeuStrategy::TwoStepExpectedEntropy(
    const StrategyContext& ctx, ItemId item, std::size_t inner_beam) {
  assert(ctx.model != nullptr && ctx.fusion_opts != nullptr &&
         "SequentialMeu requires ctx.model and ctx.fusion_opts");
  double expected = 0.0;
  for (ClaimIndex k = 0; k < ctx.compiled->item_num_claims(item); ++k) {
    const double pk = ctx.fusion->prob(item, k);
    if (pk <= 0.0) continue;
    PriorSet lookahead = *ctx.priors;
    lookahead.SetExact(*ctx.db, item, k);
    const FusionResult state =
        ctx.model->Fuse(*ctx.compiled, lookahead, *ctx.fusion_opts,
                        ctx.warm_start_lookahead ? ctx.fusion : nullptr);
    expected += pk * BestFollowUpEntropy(ctx, lookahead, state, inner_beam);
  }
  return expected;
}

std::vector<ItemId> SequentialMeuStrategy::SelectBatch(
    const StrategyContext& ctx, std::size_t batch) {
  const std::vector<ItemId> candidates = CandidateItems(ctx);
  if (candidates.empty()) return {};
  const double current_entropy = ctx.fusion->TotalEntropy();

  // Depth-1 preselection by myopic gain, on MEU's pooled scan engine.
  // Pruning is disabled: the tail of the returned batch is ordered by these
  // gains, so every one must be exact, not an upper bound. (Hard stops
  // truncate the scan inside the scanner; the session discards the round.)
  const std::vector<double> myopic_gains = myopic_.ScoreCandidateGains(
      ctx, candidates, options_.beam_width, /*allow_prune=*/false);
  const std::vector<ItemId> beam =
      TopKByScore(candidates, myopic_gains, options_.beam_width);

  // Depth-2 scoring of the beam.
  std::vector<double> two_step_gains;
  two_step_gains.reserve(beam.size());
  for (ItemId i : beam) {
    if (HardStopRequested(ctx.cancel)) break;
    two_step_gains.push_back(
        current_entropy -
        TwoStepExpectedEntropy(ctx, i, options_.inner_beam));
  }
  two_step_gains.resize(beam.size(), 0.0);
  std::vector<ItemId> ranked_beam =
      TopKByScore(beam, two_step_gains, beam.size());

  // Beam items first (two-step order), then the rest by myopic gain.
  std::vector<ItemId> out;
  out.reserve(std::min(batch, candidates.size()));
  for (ItemId i : ranked_beam) {
    if (out.size() >= batch) return out;
    out.push_back(i);
  }
  const std::vector<ItemId> myopic_order =
      TopKByScore(candidates, myopic_gains, candidates.size());
  for (ItemId i : myopic_order) {
    if (out.size() >= batch) break;
    if (std::find(out.begin(), out.end(), i) == out.end()) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace veritas
