#include "core/gub.h"

#include <cassert>
#include <limits>

#include "core/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace veritas {

double GubStrategy::CandidateGain(const StrategyContext& ctx, ItemId item,
                                  double current_utility) const {
  const Database& db = *ctx.db;
  const GroundTruth& truth = *ctx.ground_truth;
  if (mode_ == GubMode::kOracle) {
    const ClaimIndex t = truth.TrueClaim(item);
    if (t == kInvalidClaim) {
      // Truth unknown: GUB cannot evaluate this item.
      return -std::numeric_limits<double>::infinity();
    }
    PriorSet lookahead = *ctx.priors;
    lookahead.SetExact(db, item, t);
    const FusionResult result = ctx.model->Fuse(
        *ctx.compiled, lookahead, *ctx.fusion_opts,
        ctx.warm_start_lookahead ? ctx.fusion : nullptr);
    return GroundTruthUtility(db, result, truth) - current_utility;
  }
  // Definition 4: VPI = sum_k U(D, F | v_i^k true) p_i^k - U(D, F).
  double expected = 0.0;
  for (ClaimIndex k = 0; k < ctx.compiled->item_num_claims(item); ++k) {
    const double pk = ctx.fusion->prob(item, k);
    if (pk <= 0.0) continue;
    PriorSet lookahead = *ctx.priors;
    lookahead.SetExact(db, item, k);
    const FusionResult result = ctx.model->Fuse(
        *ctx.compiled, lookahead, *ctx.fusion_opts,
        ctx.warm_start_lookahead ? ctx.fusion : nullptr);
    expected += pk * GroundTruthUtility(db, result, truth);
  }
  return expected - current_utility;
}

std::vector<ItemId> GubStrategy::SelectBatch(const StrategyContext& ctx,
                                             std::size_t batch) {
  assert(ctx.model != nullptr && ctx.fusion_opts != nullptr &&
         ctx.ground_truth != nullptr &&
         "GubStrategy requires ctx.model, ctx.fusion_opts, ctx.ground_truth");
  VERITAS_SPAN("strategy.gub.select");
  static Counter* select_calls =
      MetricsRegistry::Global().GetCounter("strategy.gub.select_calls");
  static Counter* lookaheads =
      MetricsRegistry::Global().GetCounter("strategy.gub.lookaheads");
  static Histogram* candidates_hist = MetricsRegistry::Global().GetHistogram(
      "strategy.gub.candidates", MetricsRegistry::CountEdges());
  const std::vector<ItemId> candidates = CandidateItems(ctx);
  select_calls->Add(1);
  lookaheads->Add(candidates.size());
  candidates_hist->Observe(static_cast<double>(candidates.size()));
  const double current_utility =
      GroundTruthUtility(*ctx.db, *ctx.fusion, *ctx.ground_truth);
  return scan_.Select(
      candidates, batch,
      [&](std::size_t /*lane*/, std::size_t idx) {
        return CandidateGain(ctx, candidates[idx], current_utility);
      },
      ctx.cancel);
}

}  // namespace veritas
