#include "core/approx_meu.h"

#include <cassert>
#include <cmath>

#include "fusion/accu.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"

namespace veritas {

namespace {

// 1 / (A(s) (1 - A(s))) — the derivative factor of ln(A/(1-A)) appearing in
// Eq. (10)/(17). Accuracies are clamped so the factor stays finite.
double OddsDerivativeFactor(double accuracy) {
  const double a = ClampAccuracy(accuracy);
  return 1.0 / (a * (1.0 - a));
}

// g(v) per claim of item j: sum over affected sources voting for the claim of
// dA(s) / (A(s)(1-A(s))). Unaffected sources contribute zero.
std::vector<double> ComputeClaimG(const Database& db,
                                  const FusionResult& fusion, ItemId j,
                                  const AccuracyDeltas& deltas) {
  std::vector<double> g(db.num_claims(j), 0.0);
  for (const ItemVote& iv : db.item_votes(j)) {
    auto it = deltas.find(iv.source);
    if (it == deltas.end()) continue;
    g[iv.claim] += it->second * OddsDerivativeFactor(fusion.accuracy(iv.source));
  }
  return g;
}

}  // namespace

AccuracyDeltas ComputeAccuracyDeltas(const Database& db,
                                     const FusionResult& fusion, ItemId item,
                                     ClaimIndex true_claim) {
  AccuracyDeltas deltas;
  for (const ItemVote& iv : db.item_votes(item)) {
    // dp of the claim this source supports: 1-p for the validated claim,
    // -p for every other claim (§4.2.3).
    const double p = fusion.prob(item, iv.claim);
    const double dp = (iv.claim == true_claim) ? (1.0 - p) : (0.0 - p);
    deltas[iv.source] =
        dp / static_cast<double>(db.source_degree(iv.source));
  }
  return deltas;
}

std::vector<double> EstimateUpdatedProbs(const Database& db,
                                         const FusionResult& fusion, ItemId j,
                                         const AccuracyDeltas& deltas) {
  const std::vector<double>& probs = fusion.item_probs(j);
  if (probs.size() <= 1) return probs;
  const std::vector<double> g = ComputeClaimG(db, fusion, j, deltas);
  double g_bar = 0.0;
  for (ClaimIndex r = 0; r < probs.size(); ++r) g_bar += probs[r] * g[r];
  std::vector<double> updated(probs.size());
  for (ClaimIndex r = 0; r < probs.size(); ++r) {
    // Closed form of Eq. (10): dp_r = p_r (g(r) - sum_v p_v g(v)).
    updated[r] = ClampProb(probs[r] + probs[r] * (g[r] - g_bar));
  }
  return updated;
}

std::vector<double> EstimateUpdatedProbsLiteral(const Database& db,
                                                const FusionResult& fusion,
                                                ItemId j,
                                                const AccuracyDeltas& deltas) {
  const std::vector<double>& probs = fusion.item_probs(j);
  if (probs.size() <= 1) return probs;
  const std::vector<double> g = ComputeClaimG(db, fusion, j, deltas);
  // f(r, v) of Eq. (15) as exp(score(v) - score(r)) over the current
  // accuracies.
  const std::vector<double> scores =
      AccuFusion::ClaimLogScores(db, j, fusion.accuracies());
  std::vector<double> updated(probs.size());
  for (ClaimIndex r = 0; r < probs.size(); ++r) {
    double sum = 0.0;
    for (ClaimIndex v = 0; v < probs.size(); ++v) {
      const double f = std::exp(scores[v] - scores[r]);
      sum += f * (g[v] - g[r]);
    }
    const double dp = -(probs[r] * probs[r]) * sum;  // Eq. (10)/(18).
    updated[r] = ClampProb(probs[r] + dp);
  }
  return updated;
}

namespace {

// Baseline entropies shared by every candidate of one scan.
struct EntropyBaseline {
  std::vector<double> item;
  double total = 0.0;
};

EntropyBaseline ComputeBaseline(const Database& db,
                                const FusionResult& fusion) {
  EntropyBaseline baseline;
  baseline.item.assign(db.num_items(), 0.0);
  for (ItemId i = 0; i < db.num_items(); ++i) {
    baseline.item[i] = fusion.ItemEntropy(i);
    baseline.total += baseline.item[i];
  }
  return baseline;
}

// Expected total entropy after validating `i` under the differential
// estimate (Eq. 13): the per-candidate body of every Approx-MEU scan. The
// validated item's entropy drops to zero; neighbours move by the
// differential estimate; everything farther keeps its entropy (Theorem 4.1
// truncation). A non-null `confine` keeps the impact inside i's own shard.
// `neighbors` is caller-owned scratch.
double ExpectedEntropyAt(const StrategyContext& ctx, ItemId i,
                         const EntropyBaseline& baseline,
                         const std::vector<bool>* impact_filter,
                         const ShardPartition* confine,
                         std::vector<ItemId>* neighbors) {
  const Database& db = *ctx.db;
  const FusionResult& fusion = *ctx.fusion;
  const std::uint32_t home_shard =
      confine != nullptr ? confine->shard_of(i) : 0;
  ctx.graph->CollectNeighbors(i, neighbors);
  double expected = 0.0;
  for (ClaimIndex t = 0; t < db.num_claims(i); ++t) {
    const double pt = fusion.prob(i, t);
    if (pt <= 0.0) continue;  // Zero-probability hypotheses contribute 0.
    const AccuracyDeltas deltas = ComputeAccuracyDeltas(db, fusion, i, t);
    double estimate = baseline.total - baseline.item[i];
    for (ItemId j : *neighbors) {
      if (ctx.priors->Has(j)) continue;  // Pinned distributions do not move.
      if (impact_filter != nullptr && !(*impact_filter)[j]) continue;
      if (confine != nullptr && confine->shard_of(j) != home_shard) {
        continue;  // Stage-1 confinement: impact never leaves i's shard.
      }
      if (db.num_claims(j) <= 1) continue;
      const std::vector<double> updated =
          EstimateUpdatedProbs(db, fusion, j, deltas);
      estimate += Entropy(updated) - baseline.item[j];
    }
    expected += pt * estimate;
  }
  return expected;
}

}  // namespace

double ApproxMeuStrategy::ExpectedEntropyAfterValidation(
    const StrategyContext& ctx, ItemId item,
    const std::vector<bool>* impact_filter) {
  assert(ctx.graph != nullptr && "ApproxMeu requires ctx.graph");
  std::vector<ItemId> neighbors;
  return ExpectedEntropyAt(ctx, item, ComputeBaseline(*ctx.db, *ctx.fusion),
                           impact_filter, /*confine=*/nullptr, &neighbors);
}

std::vector<double> ApproxMeuStrategy::ScoreCandidates(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    const std::vector<bool>* impact_filter, CandidateScan* scan,
    const ShardPartition* confine) {
  assert(ctx.graph != nullptr && "ApproxMeu requires ctx.graph");
  VERITAS_SPAN("strategy.approx_meu.score");
  static Counter* lookaheads =
      MetricsRegistry::Global().GetCounter("strategy.approx_meu.lookaheads");
  static Histogram* candidates_hist = MetricsRegistry::Global().GetHistogram(
      "strategy.approx_meu.candidates", MetricsRegistry::CountEdges());
  lookaheads->Add(candidates.size());
  candidates_hist->Observe(static_cast<double>(candidates.size()));

  CandidateScan serial;
  if (scan == nullptr) scan = &serial;
  const EntropyBaseline baseline = ComputeBaseline(*ctx.db, *ctx.fusion);
  std::vector<std::vector<ItemId>> neighbors(scan->lanes());  // Per lane.
  return scan->Gains(
      candidates,
      [&](std::size_t lane, std::size_t idx) {
        // Delta EU_i of Eq. (13).
        return baseline.total - ExpectedEntropyAt(ctx, candidates[idx],
                                                  baseline, impact_filter,
                                                  confine, &neighbors[lane]);
      },
      ctx.cancel);
}

std::vector<ItemId> ApproxMeuStrategy::SelectBatch(const StrategyContext& ctx,
                                                   std::size_t batch) {
  static Counter* select_calls = MetricsRegistry::Global().GetCounter(
      "strategy.approx_meu.select_calls");
  select_calls->Add(1);
  const std::vector<ItemId> candidates = CandidateItems(ctx);
  const std::size_t shards =
      ctx.fusion_opts != nullptr ? ctx.fusion_opts->shards : 1;
  if (shards <= 1 || ctx.delta == nullptr || candidates.size() <= batch) {
    const std::vector<double> gains =
        ScoreCandidates(ctx, candidates, /*impact_filter=*/nullptr, &scan_);
    return TopKByScore(candidates, gains, batch);
  }

  // The sharded two-stage selection (fusion/sharded_scan.h). Stage 1 is one
  // pooled scan over ALL candidates with the partition as the confinement
  // predicate — each candidate's entropy impact only counts neighbours in
  // its own shard, so a head source's cross-shard fan-out is never walked
  // during the estimate pass. Confinement is a pure function of
  // (partition, i, j) and gains land in disjoint slots, so the result is
  // identical for any shard x thread combination (asserted by
  // fusion_sharded_scan_test). Stage 2 re-scores the merged pool unfiltered.
  VERITAS_SPAN("strategy.approx_meu.select_sharded");
  shard_plan_.Prepare(ctx.delta->compiled(), shards);
  const ShardPartition& partition = shard_plan_.partition();
  const ShardedScanResult result = RunShardedScan(
      candidates, batch, partition,
      [&](const std::vector<ItemId>& items, std::size_t /*quota*/) {
        return ScoreCandidates(ctx, items, /*impact_filter=*/nullptr, &scan_,
                               &partition);
      },
      [&](const std::vector<ItemId>& pool, std::size_t /*top_k*/) {
        return ScoreCandidates(ctx, pool, /*impact_filter=*/nullptr, &scan_);
      });
  return TopKByScore(result.pool, result.gains, batch);
}

}  // namespace veritas
