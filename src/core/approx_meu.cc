#include "core/approx_meu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
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

// What every candidate of one scan shares, built once per scan and read by
// all lanes without synchronization: the baseline entropies and the mask of
// items whose estimate a validation can move.
struct ScanState {
  std::vector<double> entropy;  // Baseline entropy, by ItemId.
  double total = 0.0;
  // By ItemId: 1 unless the item is pinned, outside the impact filter or
  // single-claim (a validation moves none of those).
  std::vector<std::uint8_t> moves;
};

ScanState PrepareScan(const StrategyContext& ctx,
                      const std::vector<bool>* impact_filter) {
  const CompiledDatabase& compiled = *ctx.compiled;
  ScanState state;
  state.entropy.assign(compiled.num_items(), 0.0);
  state.moves.assign(compiled.num_items(), 0);
  for (ItemId i = 0; i < compiled.num_items(); ++i) {
    state.entropy[i] = ctx.fusion->ItemEntropy(i);
    state.total += state.entropy[i];
    state.moves[i] = compiled.item_num_claims(i) > 1 &&
                     (impact_filter == nullptr || (*impact_filter)[i]);
  }
  for (const auto& [pinned, prior] : *ctx.priors) {
    assert(pinned < compiled.num_items());
    state.moves[pinned] = 0;
  }
  return state;
}

// One neighbour's share of the batched entropy pass: `claims` updated
// probabilities in KernelScratch::terms, weighted by the mass of the
// hypotheses that leave the neighbour there.
struct EntropySegment {
  std::uint32_t claims = 0;
  double weight = 0.0;
  double baseline = 0.0;  // The neighbour's current entropy.
};

// One lane's scratch for one scan, sized to the view on first use. Lanes
// never share it, so the pooled scan needs no synchronization. A scan stamps
// two item generations per candidate and one hypothesis generation per
// claim, so the stamps never wrap. Between candidates `g` is all zero and
// the batch is empty.
struct KernelScratch {
  std::vector<std::uint32_t> stamp;  // By ItemId; == current: marked.
  std::uint32_t current = 0;
  std::vector<ItemId> neighbors;
  // The canonical per-hypothesis body.
  AccuracyDeltas deltas;
  std::vector<double> updated;
  // The fast bodies' two accumulators by global claim id: c_0 and c_1 in
  // the two-claim body, b and e^t in the multi-claim one.
  std::vector<double> g[2];
  // The multi-claim body: per item the last hypothesis that reached it and
  // the summed probability of all hypotheses that did.
  std::vector<std::uint32_t> reached;  // By ItemId; == hypothesis: reached.
  std::uint32_t hypothesis = 0;
  std::vector<double> reached_mass;  // By ItemId.
  std::vector<ItemId> reached_items;
  // The batch of the entropy pass: updated probabilities, then their
  // entropy terms, segment after segment. Holds at most 2 * num_claims.
  std::vector<double> terms;
  std::size_t num_terms = 0;
  std::vector<EntropySegment> segments;
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
// those stamped with scratch->current; the scan's `moves` mask says which
// items move.
void CollectImpacted(const StrategyContext& ctx, ItemId i,
                     const ScanState& state, KernelScratch* scratch) {
  const CompiledDatabase& compiled = *ctx.compiled;
  if (scratch->stamp.size() != compiled.num_items()) {
    scratch->stamp.assign(compiled.num_items(), 0);
  }
  // Stamps only grow, so anything below `still` is unvisited this walk.
  std::vector<std::uint32_t>& stamp = scratch->stamp;
  const std::uint32_t still = ++scratch->current;
  const std::uint32_t moved = ++scratch->current;
  scratch->neighbors.clear();
  stamp[i] = still;  // Exclude self.
  compiled.ForEachItemVote(i, [&](SourceId s, ClaimIndex) {
    compiled.ForEachSourceVote(s, [&](ItemId j, std::uint32_t) {
      if (stamp[j] < still) {
        stamp[j] = state.moves[j] ? moved : still;
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
                                    const ScanState& state,
                                    KernelScratch* scratch) {
  const CompiledDatabase& compiled = *ctx.compiled;
  const FusionResult& fusion = *ctx.fusion;
  double expected = 0.0;
  for (ClaimIndex t = 0; t < compiled.item_num_claims(i); ++t) {
    const double pt = fusion.prob(i, t);
    if (pt <= 0.0) continue;  // Zero-probability hypotheses contribute 0.
    ComputeAccuracyDeltas(compiled, fusion, i, t, &scratch->deltas);
    double estimate = state.total - state.entropy[i];
    for (ItemId j : scratch->neighbors) {
      EstimateUpdatedProbs(compiled, fusion, j, scratch->deltas,
                           &scratch->updated);
      estimate += Entropy(scratch->updated) - state.entropy[j];
    }
    expected += pt * estimate;
  }
  return expected;
}

// The canonical body: the per-hypothesis body, run serially. Its summation
// order defines the canonical gain of the near-tie step.
double CanonicalExpectedEntropyAt(const StrategyContext& ctx, ItemId i,
                                  const ScanState& state,
                                  KernelScratch* scratch) {
  CollectImpacted(ctx, i, state, scratch);
  return PerHypothesisExpectedEntropy(ctx, i, state, scratch);
}

// Appends neighbour j's Eq. (10) update for g(r) = g_of(r), r local, to
// the batch with weight `weight`: EstimateUpdatedProbs' closed form, with g
// held in the batch's own slots and the result clamped into [DBL_MIN, 1]
// so the batched log needs no branch.
template <typename GOf>
void AppendUpdate(std::span<const double> p, double weight, double baseline,
                  GOf g_of, KernelScratch* scratch) {
  double* u = scratch->terms.data() + scratch->num_terms;
  double g_bar = 0.0;
  for (std::size_t r = 0; r < p.size(); ++r) {
    u[r] = g_of(r);
    g_bar += p[r] * u[r];
  }
  for (std::size_t r = 0; r < p.size(); ++r) {
    u[r] = std::min(std::max(p[r] + p[r] * (u[r] - g_bar),
                             std::numeric_limits<double>::min()),
                    1.0);
  }
  scratch->num_terms += p.size();
  scratch->segments.push_back(
      {static_cast<std::uint32_t>(p.size()), weight, baseline});
}

// The batched entropy pass: one vectorised log loop over every pending
// update, then sum over segments of weight * (H(update) - baseline), each
// H summed over its claims in order. Empties the batch.
double FlushEntropies(KernelScratch* scratch) {
  const std::span<double> terms(scratch->terms.data(), scratch->num_terms);
  EntropyTermsInPlace(terms);
  const double* h = terms.data();
  double sum = 0.0;
  for (const EntropySegment& segment : scratch->segments) {
    double entropy = 0.0;
    for (std::uint32_t r = 0; r < segment.claims; ++r) entropy += h[r];
    h += segment.claims;
    sum += segment.weight * (entropy - segment.baseline);
  }
  scratch->num_terms = 0;
  scratch->segments.clear();
  return sum;
}

// A two-claim candidate from one walk. Source s votes c_s on i, so Eq. (9)
// gives dA(s) = (1[c_s = t] - p_{c_s}) / N(s). With c_k(v) the sum of
// F_s / N(s) (F_s the odds-derivative factor) over the voters of claim k
// that also vote v on a neighbour,
//   g(v; 0) = (1 - p_0) c_0(v) - p_1 c_1(v),
//   g(v; 1) = -p_0 c_0(v) + (1 - p_1) c_1(v).
// One walk of i's voters' rows fills c_0 and c_1 by global claim id, which
// gives both hypotheses for every neighbour, of any arity.
double TwoClaimExpectedEntropy(const StrategyContext& ctx, ItemId i,
                               const ScanState& state,
                               KernelScratch* scratch) {
  const CompiledDatabase& compiled = *ctx.compiled;
  const FusionResult& fusion = *ctx.fusion;
  const std::vector<std::uint32_t>& stamp = scratch->stamp;
  const std::uint32_t impacted = scratch->current;
  double* const c[2] = {scratch->g[0].data(), scratch->g[1].data()};
  compiled.ForEachItemVote(i, [&](SourceId s, ClaimIndex claim) {
    const double w = VoterWeight(compiled, fusion, s);
    double* const row = c[claim];
    compiled.ForEachSourceVote(s, [&](ItemId j, std::uint32_t g) {
      if (stamp[j] == impacted) row[g] += w;
    });
  });
  const double p_i[2] = {fusion.prob(i, 0), fusion.prob(i, 1)};
  // g(v; t) = a[t] c_0(v) + b[t] c_1(v).
  const double a[2] = {1.0 - p_i[0], 0.0 - p_i[0]};
  const double b[2] = {0.0 - p_i[1], 1.0 - p_i[1]};
  double mass = 0.0;
  for (const double pt : p_i) {
    if (pt > 0.0) mass += pt;  // Zero-probability hypotheses contribute 0.
  }
  for (ItemId j : scratch->neighbors) {
    const std::span<const double> p = fusion.item_probs(j);
    double* const c0 = c[0] + compiled.claim_offset(j);
    double* const c1 = c[1] + compiled.claim_offset(j);
    for (ClaimIndex t = 0; t < 2; ++t) {
      if (p_i[t] <= 0.0) continue;
      AppendUpdate(
          p, p_i[t], state.entropy[j],
          [&](std::size_t r) { return a[t] * c0[r] + b[t] * c1[r]; },
          scratch);
    }
    std::fill_n(c0, p.size(), 0.0);
    std::fill_n(c1, p.size(), 0.0);
  }
  return mass * (state.total - state.entropy[i]) +
         FlushEntropies(scratch);
}

// A candidate of more than two claims, exploiting linearity in t with one
// accumulator per role, so the scratch stays O(num_claims) whatever
// |claims(i)| is: each neighbour's g(v; t) = b(v) + e^t(v), where the base
// b sums -p_{c_s} F_s / N(s) over all of i's voters and is shared by every
// t, and e^t sums F_s / N(s) over the voters of t only. One walk of the
// voters' rows gives b; each t then walks only its own voters' rows into e
// and batches the neighbours they reach. A neighbour that no t-voter
// reaches keeps its base estimate, batched once with the mass of the
// hypotheses that left it there.
double MultiClaimExpectedEntropy(const StrategyContext& ctx, ItemId i,
                                 const ScanState& state,
                                 KernelScratch* scratch) {
  const CompiledDatabase& compiled = *ctx.compiled;
  const FusionResult& fusion = *ctx.fusion;
  if (scratch->reached.size() != compiled.num_items()) {
    scratch->reached.assign(compiled.num_items(), 0);
    scratch->reached_mass.assign(compiled.num_items(), 0.0);
  }
  const std::vector<std::uint32_t>& stamp = scratch->stamp;
  const std::uint32_t impacted = scratch->current;
  double* const base_g = scratch->g[0].data();
  double* const hyp_g = scratch->g[1].data();
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
    for (ItemId j : scratch->reached_items) {
      const std::span<const double> p = fusion.item_probs(j);
      const double* const b = base_g + compiled.claim_offset(j);
      double* const e = hyp_g + compiled.claim_offset(j);
      AppendUpdate(
          p, pt, state.entropy[j], [&](std::size_t r) { return b[r] + e[r]; },
          scratch);
      std::fill_n(e, p.size(), 0.0);
      scratch->reached_mass[j] += pt;
    }
    // Per hypothesis, so the batch holds each neighbour at most once.
    expected += FlushEntropies(scratch);
  }
  // The hypotheses that left j at its base estimate. reached_mass sums the
  // same p_t in the same order as `mass`, so it equals `mass` exactly when
  // every hypothesis reached j.
  for (ItemId j : scratch->neighbors) {
    const std::span<const double> p = fusion.item_probs(j);
    double* const b = base_g + compiled.claim_offset(j);
    const double unreached = mass - scratch->reached_mass[j];
    if (unreached > 0.0) {
      AppendUpdate(
          p, unreached, state.entropy[j], [&](std::size_t r) { return b[r]; },
          scratch);
    }
    std::fill_n(b, p.size(), 0.0);
  }
  expected += FlushEntropies(scratch);
  return mass * (state.total - state.entropy[i]) + expected;
}

// The fast body of the scan: the expectation of the canonical body from
// one walk of the candidate's voters' source -> votes rows (the two-claim
// and multi-claim bodies above), with every neighbour's updated entropy
// computed in one batched, vectorised log pass per flush. When the
// neighbours' votes times |claims(i)| are fewer than the voters' rows (a
// sparse impact filter) the per-hypothesis body is cheaper and runs
// instead. Within 1e-9 * max(|gain|, 1 nat) of the canonical body: the
// summation order differs and LogOfNormal is within 1 ulp of std::log.
double SingleWalkExpectedEntropyAt(const StrategyContext& ctx, ItemId i,
                                   const ScanState& state,
                                   KernelScratch* scratch) {
  const CompiledDatabase& compiled = *ctx.compiled;
  if (scratch->terms.size() != 2 * compiled.num_claims()) {
    scratch->g[0].assign(compiled.num_claims(), 0.0);
    scratch->g[1].assign(compiled.num_claims(), 0.0);
    scratch->terms.assign(2 * compiled.num_claims(), 0.0);
  }
  CollectImpacted(ctx, i, state, scratch);
  // The fast bodies walk i's voters' rows; the per-hypothesis body walks
  // the neighbours' votes once per t. When an impact filter leaves few
  // neighbours, the latter is cheaper.
  std::size_t voter_rows = 0;
  compiled.ForEachItemVote(i, [&](SourceId s, ClaimIndex) {
    voter_rows += compiled.source_degree(s);
  });
  std::size_t neighbor_votes = 0;
  for (ItemId j : scratch->neighbors) {
    neighbor_votes += compiled.item_votes_end(j) - compiled.item_votes_begin(j);
  }
  if (compiled.item_num_claims(i) * neighbor_votes < voter_rows) {
    return PerHypothesisExpectedEntropy(ctx, i, state, scratch);
  }
  if (compiled.item_num_claims(i) == 2) {
    return TwoClaimExpectedEntropy(ctx, i, state, scratch);
  }
  return MultiClaimExpectedEntropy(ctx, i, state, scratch);
}

}  // namespace

double ApproxMeuStrategy::ExpectedEntropyAfterValidation(
    const StrategyContext& ctx, ItemId item,
    const std::vector<bool>* impact_filter) {
  assert(ctx.compiled != nullptr && "ApproxMeu requires ctx.compiled");
  KernelScratch scratch;
  return SingleWalkExpectedEntropyAt(ctx, item, PrepareScan(ctx, impact_filter),
                                     &scratch);
}

std::vector<double> ApproxMeuStrategy::ScoreCandidates(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    const std::vector<bool>* impact_filter, CandidateScan* scan) {
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
  const ScanState state = PrepareScan(ctx, impact_filter);
  std::vector<KernelScratch> scratch(scan->lanes());
  return scan->Gains(
      candidates,
      [&](std::size_t lane, std::size_t idx) {
        // Delta EU_i of Eq. (13).
        return state.total - SingleWalkExpectedEntropyAt(
                                 ctx, candidates[idx], state, &scratch[lane]);
      },
      ctx.cancel);
}

std::vector<double> ApproxMeuStrategy::CanonicalGains(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    const std::vector<bool>* impact_filter) {
  assert(ctx.compiled != nullptr && "ApproxMeu requires ctx.compiled");
  const ScanState state = PrepareScan(ctx, impact_filter);
  KernelScratch scratch;
  std::vector<double> gains;
  gains.reserve(candidates.size());
  for (ItemId i : candidates) {
    gains.push_back(state.total -
                    CanonicalExpectedEntropyAt(ctx, i, state, &scratch));
  }
  return gains;
}

std::vector<ItemId> ApproxMeuStrategy::SelectTopK(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    const std::vector<double>& gains, std::size_t k,
    const std::vector<bool>* impact_filter) {
  // Built on the first near tie: most rounds re-score nothing.
  std::optional<ScanState> state;
  KernelScratch scratch;
  return CandidateScan::SelectTopK(
      candidates, gains, k,
      [&](std::size_t idx) {
        if (!state) state = PrepareScan(ctx, impact_filter);
        return state->total - CanonicalExpectedEntropyAt(
                                  ctx, candidates[idx], *state, &scratch);
      },
      ctx.cancel);
}

std::vector<ItemId> ApproxMeuStrategy::SelectBatch(const StrategyContext& ctx,
                                                   std::size_t batch) {
  static Counter* select_calls = MetricsRegistry::Global().GetCounter(
      "strategy.approx_meu.select_calls");
  select_calls->Add(1);
  const std::vector<ItemId> candidates = CandidateItems(ctx);
  const std::vector<double> gains =
      ScoreCandidates(ctx, candidates, /*impact_filter=*/nullptr, &scan_);
  return SelectTopK(ctx, candidates, gains, batch, /*impact_filter=*/nullptr);
}

}  // namespace veritas
