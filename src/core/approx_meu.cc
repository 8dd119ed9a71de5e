#include "core/approx_meu.h"

#include <cassert>
#include <cmath>
#include <cstdint>

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

}  // namespace

void ComputeAccuracyDeltas(const CompiledDatabase& compiled,
                           const FusionResult& fusion, ItemId item,
                           ClaimIndex true_claim, AccuracyDeltas* deltas) {
  if (deltas->delta.size() != compiled.num_sources()) {
    deltas->delta.assign(compiled.num_sources(), 0.0);
    deltas->g_weight.assign(compiled.num_sources(), 0.0);
    deltas->voters.clear();
  }
  for (SourceId s : deltas->voters) {
    deltas->delta[s] = 0.0;
    deltas->g_weight[s] = 0.0;
  }
  deltas->voters.clear();
  compiled.ForEachItemVote(item, [&](SourceId s, ClaimIndex claim) {
    // dp of the claim this source supports: 1-p for the validated claim,
    // -p for every other claim (§4.2.3).
    const double p = fusion.prob(item, claim);
    const double dp = (claim == true_claim) ? (1.0 - p) : (0.0 - p);
    const double delta =
        dp / static_cast<double>(compiled.source_degree(s));
    deltas->delta[s] = delta;
    deltas->g_weight[s] = delta * OddsDerivativeFactor(fusion.accuracy(s));
    deltas->voters.push_back(s);
  });
}

void EstimateUpdatedProbs(const CompiledDatabase& compiled,
                          const FusionResult& fusion, ItemId j,
                          const AccuracyDeltas& deltas,
                          std::vector<double>* updated) {
  assert(deltas.g_weight.size() == compiled.num_sources());
  const std::span<const double> probs = fusion.item_probs(j);
  if (probs.size() <= 1) {
    updated->assign(probs.begin(), probs.end());
    return;
  }
  // g(v) per claim of item j (Eq. 10), accumulated in place. Sources the
  // validation does not touch carry a zero weight, and adding an exact zero
  // changes no sum.
  std::vector<double>& g = *updated;
  g.assign(probs.size(), 0.0);
  compiled.ForEachItemVote(j, [&](SourceId s, ClaimIndex claim) {
    g[claim] += deltas.g_weight[s];
  });
  double g_bar = 0.0;
  for (ClaimIndex r = 0; r < probs.size(); ++r) g_bar += probs[r] * g[r];
  for (ClaimIndex r = 0; r < probs.size(); ++r) {
    // Closed form of Eq. (10): dp_r = p_r (g(r) - sum_v p_v g(v)).
    g[r] = ClampProb(probs[r] + probs[r] * (g[r] - g_bar));
  }
}

std::vector<double> EstimateUpdatedProbsLiteral(const Database& db,
                                                const FusionResult& fusion,
                                                ItemId j,
                                                const AccuracyDeltas& deltas) {
  const std::span<const double> probs = fusion.item_probs(j);
  if (probs.size() <= 1) return {probs.begin(), probs.end()};
  std::vector<double> g(probs.size(), 0.0);
  for (const ItemVote& iv : db.item_votes(j)) {
    g[iv.claim] += deltas.delta[iv.source] *
                   OddsDerivativeFactor(fusion.accuracy(iv.source));
  }
  // f(r, v) of Eq. (15) as exp(score(v) - score(r)) over the current
  // accuracies, with the Eq. (1) log-scores walked over the nested database
  // so the oracle shares no code with the CSR kernel.
  const Item& o = db.item(j);
  const double false_values = static_cast<double>(o.claims.size()) - 1.0;
  std::vector<double> scores(o.claims.size(), 0.0);
  for (ClaimIndex k = 0; k < o.claims.size(); ++k) {
    for (SourceId s : o.claims[k].sources) {
      const double a = ClampAccuracy(fusion.accuracy(s));
      scores[k] += std::log(false_values * a / (1.0 - a));
    }
  }
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

EntropyBaseline ComputeBaseline(const CompiledDatabase& compiled,
                                const FusionResult& fusion) {
  EntropyBaseline baseline;
  baseline.item.assign(compiled.num_items(), 0.0);
  for (ItemId i = 0; i < compiled.num_items(); ++i) {
    baseline.item[i] = fusion.ItemEntropy(i);
    baseline.total += baseline.item[i];
  }
  return baseline;
}

// One lane's scratch for one scan, sized to the view on first use. Lanes
// never share it, so the pooled scan needs no synchronization; a scan
// stamps at most one generation per candidate, so the stamps never wrap.
struct KernelScratch {
  std::vector<std::uint32_t> stamp;  // By ItemId; == current: seen.
  std::uint32_t current = 0;
  std::vector<ItemId> neighbors;
  AccuracyDeltas deltas;
  std::vector<double> updated;
};

// Fills scratch->neighbors with the items sharing a source with `i`
// (excluding i), in first-seen order of the walk i -> votes -> source ->
// votes: the order the impact sum visits them in.
void CollectNeighbors(const CompiledDatabase& compiled, ItemId i,
                      KernelScratch* scratch) {
  if (scratch->stamp.size() != compiled.num_items()) {
    scratch->stamp.assign(compiled.num_items(), 0);
  }
  std::vector<std::uint32_t>& stamp = scratch->stamp;
  const std::uint32_t current = ++scratch->current;
  scratch->neighbors.clear();
  stamp[i] = current;  // Exclude self.
  compiled.ForEachItemVote(i, [&](SourceId s, ClaimIndex) {
    compiled.ForEachSourceVote(s, [&](ItemId j, std::uint32_t) {
      if (stamp[j] != current) {
        stamp[j] = current;
        scratch->neighbors.push_back(j);
      }
    });
  });
}

// Expected total entropy after validating `i` under the differential
// estimate (Eq. 13): the per-candidate body of every Approx-MEU scan. The
// validated item's entropy drops to zero; neighbours move by the
// differential estimate; everything farther keeps its entropy (Theorem 4.1
// truncation). A non-null `confine` keeps the impact inside i's own shard.
double ExpectedEntropyAt(const StrategyContext& ctx, ItemId i,
                         const EntropyBaseline& baseline,
                         const std::vector<bool>* impact_filter,
                         const ShardPartition* confine,
                         KernelScratch* scratch) {
  const CompiledDatabase& compiled = *ctx.compiled;
  const FusionResult& fusion = *ctx.fusion;
  CollectNeighbors(compiled, i, scratch);
  // The neighbours whose estimate moves; the same for every hypothesis t.
  const std::uint32_t home_shard =
      confine != nullptr ? confine->shard_of(i) : 0;
  std::vector<ItemId>& impacted = scratch->neighbors;
  std::size_t kept = 0;
  for (ItemId j : impacted) {
    if (ctx.priors->Has(j)) continue;  // Pinned distributions do not move.
    if (impact_filter != nullptr && !(*impact_filter)[j]) continue;
    if (confine != nullptr && confine->shard_of(j) != home_shard) {
      continue;  // Stage-1 confinement: impact never leaves i's shard.
    }
    if (compiled.item_num_claims(j) <= 1) continue;
    impacted[kept++] = j;
  }
  impacted.resize(kept);

  double expected = 0.0;
  for (ClaimIndex t = 0; t < compiled.item_num_claims(i); ++t) {
    const double pt = fusion.prob(i, t);
    if (pt <= 0.0) continue;  // Zero-probability hypotheses contribute 0.
    ComputeAccuracyDeltas(compiled, fusion, i, t, &scratch->deltas);
    double estimate = baseline.total - baseline.item[i];
    for (ItemId j : impacted) {
      EstimateUpdatedProbs(compiled, fusion, j, scratch->deltas,
                           &scratch->updated);
      estimate += Entropy(scratch->updated) - baseline.item[j];
    }
    expected += pt * estimate;
  }
  return expected;
}

}  // namespace

double ApproxMeuStrategy::ExpectedEntropyAfterValidation(
    const StrategyContext& ctx, ItemId item,
    const std::vector<bool>* impact_filter) {
  assert(ctx.compiled != nullptr && "ApproxMeu requires ctx.compiled");
  KernelScratch scratch;
  return ExpectedEntropyAt(ctx, item,
                           ComputeBaseline(*ctx.compiled, *ctx.fusion),
                           impact_filter, /*confine=*/nullptr, &scratch);
}

std::vector<double> ApproxMeuStrategy::ScoreCandidates(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    const std::vector<bool>* impact_filter, CandidateScan* scan,
    const ShardPartition* confine) {
  assert(ctx.compiled != nullptr && "ApproxMeu requires ctx.compiled");
  VERITAS_SPAN("strategy.approx_meu.score");
  static Counter* lookaheads =
      MetricsRegistry::Global().GetCounter("strategy.approx_meu.lookaheads");
  static Histogram* candidates_hist = MetricsRegistry::Global().GetHistogram(
      "strategy.approx_meu.candidates", MetricsRegistry::CountEdges());
  lookaheads->Add(candidates.size());
  candidates_hist->Observe(static_cast<double>(candidates.size()));

  CandidateScan serial;
  if (scan == nullptr) scan = &serial;
  const EntropyBaseline baseline = ComputeBaseline(*ctx.compiled, *ctx.fusion);
  std::vector<KernelScratch> scratch(scan->lanes());
  return scan->Gains(
      candidates,
      [&](std::size_t lane, std::size_t idx) {
        // Delta EU_i of Eq. (13).
        return baseline.total - ExpectedEntropyAt(ctx, candidates[idx],
                                                  baseline, impact_filter,
                                                  confine, &scratch[lane]);
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
  if (shards <= 1 || candidates.size() <= batch) {
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
  // Only the compiled view is needed, so this runs for every fusion model.
  VERITAS_SPAN("strategy.approx_meu.select_sharded");
  shard_plan_.Prepare(*ctx.compiled, shards);
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
