#include "core/approx_meu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>

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
// never share it, so the pooled scan needs no synchronization. A scan stamps
// two item generations per candidate and one hypothesis generation per
// claim, so the stamps never wrap. Between candidates `base_g` and `hyp_g`
// are all zero.
struct KernelScratch {
  std::vector<std::uint32_t> stamp;  // By ItemId; == current: marked.
  std::uint32_t current = 0;
  std::vector<ItemId> neighbors;
  // The canonical per-hypothesis body.
  AccuracyDeltas deltas;
  std::vector<double> updated;
  // The single walk: g(v) = b(v) + e^t(v) by global claim id, and per item
  // the last hypothesis that reached it and the summed probability of all
  // hypotheses that did.
  std::vector<double> base_g;
  std::vector<double> hyp_g;
  std::vector<std::uint32_t> reached;  // By ItemId; == hypothesis: reached.
  std::uint32_t hypothesis = 0;
  std::vector<double> reached_mass;  // By ItemId.
  std::vector<ItemId> reached_items;
};

// 1 / N(s) times the odds-derivative factor: voter s's Eq. (9)/(10)
// weight per unit of dp.
double VoterWeight(const CompiledDatabase& compiled,
                   const FusionResult& fusion, SourceId s) {
  return OddsDerivativeFactor(fusion.accuracy(s)) /
         static_cast<double>(compiled.source_degree(s));
}

// Fills scratch->neighbors with the items whose estimate a validation of
// `i` moves, in first-seen order of the walk i -> votes -> source -> votes
// (the order the canonical impact sum visits them in), and leaves exactly
// those stamped with scratch->current. Pinned distributions, items outside
// `impact_filter`, items outside i's shard of `confine` (stage-1
// confinement) and single-claim items do not move.
void CollectImpacted(const StrategyContext& ctx, ItemId i,
                     const std::vector<bool>* impact_filter,
                     const ShardPartition* confine, KernelScratch* scratch) {
  const CompiledDatabase& compiled = *ctx.compiled;
  if (scratch->stamp.size() != compiled.num_items()) {
    scratch->stamp.assign(compiled.num_items(), 0);
  }
  const std::uint32_t home_shard =
      confine != nullptr ? confine->shard_of(i) : 0;
  const auto moves = [&](ItemId j) {
    return !ctx.priors->Has(j) &&
           (impact_filter == nullptr || (*impact_filter)[j]) &&
           (confine == nullptr || confine->shard_of(j) == home_shard) &&
           compiled.item_num_claims(j) > 1;
  };
  // Stamps only grow, so anything below `still` is unvisited this walk.
  std::vector<std::uint32_t>& stamp = scratch->stamp;
  const std::uint32_t still = ++scratch->current;
  const std::uint32_t moved = ++scratch->current;
  scratch->neighbors.clear();
  stamp[i] = still;  // Exclude self.
  compiled.ForEachItemVote(i, [&](SourceId s, ClaimIndex) {
    compiled.ForEachSourceVote(s, [&](ItemId j, std::uint32_t) {
      if (stamp[j] < still) {
        stamp[j] = moves(j) ? moved : still;
        if (stamp[j] == moved) scratch->neighbors.push_back(j);
      }
    });
  });
}

// The per-hypothesis body over the neighbours CollectImpacted left in
// scratch: expected total entropy after validating `i` under the
// differential estimate (Eq. 13), one Eq. (9)/(10) pass per hypothesis t
// over every neighbour's votes. The validated item's entropy drops to zero;
// neighbours move by the estimate; everything farther keeps its entropy
// (Theorem 4.1 truncation).
double PerHypothesisExpectedEntropy(const StrategyContext& ctx, ItemId i,
                                    const EntropyBaseline& baseline,
                                    KernelScratch* scratch) {
  const CompiledDatabase& compiled = *ctx.compiled;
  const FusionResult& fusion = *ctx.fusion;
  double expected = 0.0;
  for (ClaimIndex t = 0; t < compiled.item_num_claims(i); ++t) {
    const double pt = fusion.prob(i, t);
    if (pt <= 0.0) continue;  // Zero-probability hypotheses contribute 0.
    ComputeAccuracyDeltas(compiled, fusion, i, t, &scratch->deltas);
    double estimate = baseline.total - baseline.item[i];
    for (ItemId j : scratch->neighbors) {
      EstimateUpdatedProbs(compiled, fusion, j, scratch->deltas,
                           &scratch->updated);
      estimate += Entropy(scratch->updated) - baseline.item[j];
    }
    expected += pt * estimate;
  }
  return expected;
}

// The canonical body: the per-hypothesis body, serial and unconfined. Its
// summation order defines the canonical gain of the near-tie step.
double CanonicalExpectedEntropyAt(const StrategyContext& ctx, ItemId i,
                                  const EntropyBaseline& baseline,
                                  const std::vector<bool>* impact_filter,
                                  KernelScratch* scratch) {
  CollectImpacted(ctx, i, impact_filter, /*confine=*/nullptr, scratch);
  return PerHypothesisExpectedEntropy(ctx, i, baseline, scratch);
}

// Entropy of neighbour j's Eq. (10) update for g = b + e, both by global
// claim id; leaves j's entries of `e` zero. The arithmetic of
// EstimateUpdatedProbs' closed form followed by Entropy, fused inline: g
// lives in e's own slots, and nothing is called per claim but the log.
double UpdatedEntropy(const CompiledDatabase& compiled,
                      const FusionResult& fusion, ItemId j, const double* b,
                      double* e) {
  const std::span<const double> p = fusion.item_probs(j);
  const std::uint32_t first = compiled.claim_offset(j);
  b += first;
  e += first;
  double g_bar = 0.0;
  for (std::size_t r = 0; r < p.size(); ++r) {
    e[r] += b[r];
    g_bar += p[r] * e[r];
  }
  double h = 0.0;
  for (std::size_t r = 0; r < p.size(); ++r) {
    const double u =
        std::min(std::max(p[r] + p[r] * (e[r] - g_bar), 0.0), 1.0);
    if (u > 0.0) h -= u * std::log(u);
    e[r] = 0.0;
  }
  return h;
}

// The same expectation from one source-major walk, exploiting linearity in
// t. Source s votes c_s on i, so Eq. (9) gives dA(s) = (1[c_s = t] -
// p_{c_s}) / N(s), and each neighbour's g(v; t) = b(v) + e^t(v): the base b
// sums -p_{c_s} F_s / N(s) over all of i's voters (F_s the odds-derivative
// factor) and is shared by every t; e^t sums F_s / N(s) over the voters of
// t only. One walk of the voters' source -> votes rows gives b; each t then
// walks only its own voters' rows into e and re-scores the neighbours they
// reach. A neighbour that no t-voter reaches keeps its base estimate, whose
// entropy is computed once, and only when some hypothesis leaves it there.
// When the neighbours' votes times |claims(i)| are fewer than the voters'
// rows (a sparse impact filter or a small shard) the per-hypothesis body is
// cheaper and runs instead. A non-null `confine` keeps the impact inside
// i's own shard. Within 1e-9 * max(|gain|, 1 nat) of the canonical body
// (summation order only).
double SingleWalkExpectedEntropyAt(const StrategyContext& ctx, ItemId i,
                                   const EntropyBaseline& baseline,
                                   const std::vector<bool>* impact_filter,
                                   const ShardPartition* confine,
                                   KernelScratch* scratch) {
  const CompiledDatabase& compiled = *ctx.compiled;
  const FusionResult& fusion = *ctx.fusion;
  if (scratch->base_g.size() != compiled.num_claims()) {
    scratch->base_g.assign(compiled.num_claims(), 0.0);
    scratch->hyp_g.assign(compiled.num_claims(), 0.0);
  }
  if (scratch->reached.size() != compiled.num_items()) {
    scratch->reached.assign(compiled.num_items(), 0);
    scratch->reached_mass.assign(compiled.num_items(), 0.0);
  }
  std::vector<double>& base_g = scratch->base_g;
  std::vector<double>& hyp_g = scratch->hyp_g;
  CollectImpacted(ctx, i, impact_filter, confine, scratch);
  const std::vector<std::uint32_t>& stamp = scratch->stamp;
  const std::uint32_t impacted = scratch->current;
  // The hypotheses' walks cover i's voters' rows; the per-hypothesis body
  // covers the neighbours' votes once per t. When an impact filter or a
  // shard leaves few neighbours, the latter is cheaper.
  std::size_t voter_rows = 0;
  compiled.ForEachItemVote(i, [&](SourceId s, ClaimIndex) {
    voter_rows += compiled.source_degree(s);
  });
  std::size_t neighbor_votes = 0;
  for (ItemId j : scratch->neighbors) {
    neighbor_votes += compiled.item_votes_end(j) - compiled.item_votes_begin(j);
  }
  if (compiled.item_num_claims(i) * neighbor_votes < voter_rows) {
    return PerHypothesisExpectedEntropy(ctx, i, baseline, scratch);
  }
  compiled.ForEachItemVote(i, [&](SourceId s, ClaimIndex claim) {
    const double w =
        (0.0 - fusion.prob(i, claim)) * VoterWeight(compiled, fusion, s);
    compiled.ForEachSourceVote(s, [&](ItemId j, std::uint32_t g) {
      if (stamp[j] == impacted) base_g[g] += w;
    });
  });
  for (ItemId j : scratch->neighbors) scratch->reached_mass[j] = 0.0;

  double expected = 0.0;
  double mass = 0.0;
  for (ClaimIndex t = 0; t < compiled.item_num_claims(i); ++t) {
    const double pt = fusion.prob(i, t);
    if (pt <= 0.0) continue;  // Zero-probability hypotheses contribute 0.
    mass += pt;
    const std::uint32_t hypothesis = ++scratch->hypothesis;
    scratch->reached_items.clear();
    compiled.ForEachItemVote(i, [&](SourceId s, ClaimIndex claim) {
      if (claim != t) return;
      const double w = VoterWeight(compiled, fusion, s);
      compiled.ForEachSourceVote(s, [&](ItemId j, std::uint32_t g) {
        if (stamp[j] != impacted) return;
        hyp_g[g] += w;
        if (scratch->reached[j] != hypothesis) {
          scratch->reached[j] = hypothesis;
          scratch->reached_items.push_back(j);
        }
      });
    });
    double estimate = baseline.total - baseline.item[i];
    for (ItemId j : scratch->reached_items) {
      estimate += UpdatedEntropy(compiled, fusion, j, base_g.data(),
                                 hyp_g.data()) -
                  baseline.item[j];
      scratch->reached_mass[j] += pt;
    }
    expected += pt * estimate;
  }
  // The hypotheses that left j at its base estimate (e is all zero here).
  // reached_mass sums the same p_t in the same order as `mass`, so it
  // equals `mass` exactly when every hypothesis reached j.
  for (ItemId j : scratch->neighbors) {
    const double unreached = mass - scratch->reached_mass[j];
    if (unreached > 0.0) {
      expected += unreached * (UpdatedEntropy(compiled, fusion, j,
                                              base_g.data(), hyp_g.data()) -
                               baseline.item[j]);
    }
    const std::uint32_t first = compiled.claim_offset(j);
    std::fill_n(base_g.begin() + first, compiled.item_num_claims(j), 0.0);
  }
  return expected;
}

}  // namespace

double ApproxMeuStrategy::ExpectedEntropyAfterValidation(
    const StrategyContext& ctx, ItemId item,
    const std::vector<bool>* impact_filter, const ShardPartition* confine) {
  assert(ctx.compiled != nullptr && "ApproxMeu requires ctx.compiled");
  KernelScratch scratch;
  return SingleWalkExpectedEntropyAt(
      ctx, item, ComputeBaseline(*ctx.compiled, *ctx.fusion), impact_filter,
      confine, &scratch);
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
        return baseline.total -
               SingleWalkExpectedEntropyAt(ctx, candidates[idx], baseline,
                                           impact_filter, confine,
                                           &scratch[lane]);
      },
      ctx.cancel);
}

std::vector<double> ApproxMeuStrategy::CanonicalGains(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    const std::vector<bool>* impact_filter) {
  assert(ctx.compiled != nullptr && "ApproxMeu requires ctx.compiled");
  const EntropyBaseline baseline = ComputeBaseline(*ctx.compiled, *ctx.fusion);
  KernelScratch scratch;
  std::vector<double> gains;
  gains.reserve(candidates.size());
  for (ItemId i : candidates) {
    gains.push_back(baseline.total - CanonicalExpectedEntropyAt(
                                         ctx, i, baseline, impact_filter,
                                         &scratch));
  }
  return gains;
}

std::vector<ItemId> ApproxMeuStrategy::SelectTopK(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    const std::vector<double>& gains, std::size_t k,
    const std::vector<bool>* impact_filter) {
  // Built on the first near tie: most rounds re-score nothing.
  std::optional<EntropyBaseline> baseline;
  KernelScratch scratch;
  return CandidateScan::SelectTopK(
      candidates, gains, k,
      [&](std::size_t idx) {
        if (!baseline) baseline = ComputeBaseline(*ctx.compiled, *ctx.fusion);
        return baseline->total -
               CanonicalExpectedEntropyAt(ctx, candidates[idx], *baseline,
                                          impact_filter, &scratch);
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
    return SelectTopK(ctx, candidates, gains, batch,
                      /*impact_filter=*/nullptr);
  }

  // The sharded two-stage selection (fusion/sharded_scan.h). Stage 1 is one
  // pooled scan over ALL candidates with the partition as the confinement
  // predicate — each candidate's entropy impact only counts neighbours in
  // its own shard, so a head source's cross-shard fan-out is never walked
  // during the estimate pass. Confinement is a pure function of
  // (partition, i, j) and gains land in disjoint slots, so the result is
  // identical for any shard x thread combination (asserted by
  // fusion_sharded_scan_test). Stage 2 re-scores the merged pool unfiltered
  // and selects with the same near-tie step as the flat scan.
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
  return SelectTopK(ctx, result.pool, result.gains, batch,
                    /*impact_filter=*/nullptr);
}

}  // namespace veritas
