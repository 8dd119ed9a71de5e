#include "core/meu.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace veritas {

namespace {

// A hypothesis this unlikely moves the pk-weighted expectation by less
// than pk * |H_pinned| <~ 1e-9 nats — orders of magnitude below the
// fusion tolerance, so the closed-form "pin without propagation" value
// (pinned item drops to zero entropy, everything else keeps its base
// value) stands in for the full lookahead.
constexpr double kNegligiblePinMass = 1e-12;

// Monotone non-decreasing pruning threshold: the top_k-th best *exact* gain
// seen so far (-inf until top_k exact gains exist). Writers funnel through a
// mutex-protected min-heap (top_k is tiny — the batch size); readers poll a
// lock-free snapshot. A stale (smaller) read only weakens pruning, never
// correctness, and monotonicity is what makes the bound admissible: a
// candidate pruned against any intermediate threshold is provably below the
// *final* top_k-th best exact gain too.
class GainThreshold {
 public:
  explicit GainThreshold(std::size_t k) : k_(k) {}

  double Get() const { return value_.load(std::memory_order_relaxed); }

  void Offer(double gain) {
    if (k_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (heap_.size() < k_) {
      heap_.push(gain);
    } else if (gain > heap_.top()) {
      heap_.pop();
      heap_.push(gain);
    } else {
      return;
    }
    if (heap_.size() == k_) {
      value_.store(heap_.top(), std::memory_order_relaxed);
    }
  }

 private:
  const std::size_t k_;
  std::mutex mu_;
  std::priority_queue<double, std::vector<double>, std::greater<double>> heap_;
  std::atomic<double> value_{-std::numeric_limits<double>::infinity()};
};

void AtomicMaxDouble(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

}  // namespace

double MeuStrategy::ExpectedEntropyAfterValidation(const StrategyContext& ctx,
                                                   ItemId item) {
  if (ctx.delta != nullptr && ctx.warm_start_lookahead) {
    const DeltaFusionEngine::BaseState base = ctx.delta->PrepareBase(*ctx.fusion);
    DeltaFusionEngine::Workspace ws;
    return ExpectedEntropyAfterValidation(ctx, item, base, ws);
  }
  double expected = 0.0;
  for (ClaimIndex k = 0; k < ctx.compiled->item_num_claims(item); ++k) {
    const double pk = ctx.fusion->prob(item, k);
    if (pk <= 0.0) continue;  // Zero-probability hypotheses contribute 0.
    const FusionResult result = ctx.model->Fuse(
        *ctx.compiled, PinnedLookahead(ctx, item, k), *ctx.fusion_opts,
        ctx.warm_start_lookahead ? ctx.fusion : nullptr);
    expected += pk * result.TotalEntropy();
  }
  return expected;
}

double MeuStrategy::ExpectedEntropyAfterValidation(
    const StrategyContext& ctx, ItemId item,
    const DeltaFusionEngine::BaseState& base,
    DeltaFusionEngine::Workspace& ws) {
  double expected = 0.0;
  for (ClaimIndex k = 0; k < ctx.compiled->item_num_claims(item); ++k) {
    const double pk = ctx.fusion->prob(item, k);
    if (pk <= 0.0) continue;
    if (pk < kNegligiblePinMass) {
      expected += pk * (base.total_entropy - base.item_entropy[item]);
      continue;
    }
    expected +=
        pk * ctx.delta->EntropyAfterExactPin(base, ws, *ctx.priors, item, k);
  }
  return expected;
}

std::vector<std::size_t> MeuStrategy::ScanOrder(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates) const {
  const std::size_t n = candidates.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::vector<double> entropy(n);
  for (std::size_t i = 0; i < n; ++i) {
    entropy[i] = ctx.fusion->ItemEntropy(candidates[i]);
  }
  constexpr std::size_t kUnseeded = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> rank(n, kUnseeded);
  if (!seed_ranking_.empty()) {
    std::unordered_map<ItemId, std::size_t> seed_rank;
    seed_rank.reserve(seed_ranking_.size());
    for (std::size_t r = 0; r < seed_ranking_.size(); ++r) {
      seed_rank.emplace(seed_ranking_[r], r);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = seed_rank.find(candidates[i]);
      if (it != seed_rank.end()) rank[i] = it->second;
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rank[a] != rank[b]) return rank[a] < rank[b];  // Seeded first.
    if (entropy[a] != entropy[b]) return entropy[a] > entropy[b];
    return candidates[a] < candidates[b];
  });
  return order;
}

std::vector<double> MeuStrategy::ScoreCandidateGains(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    std::size_t top_k, bool allow_prune) {
  return ScanCandidateGains(ctx, candidates, top_k, allow_prune,
                            /*plan=*/nullptr);
}

std::vector<double> MeuStrategy::ScanCandidateGains(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    std::size_t top_k, bool allow_prune, const ShardedScanPlan* plan,
    const DeltaFusionEngine::BaseState* shared_base) {
  static Counter* pruned_counter =
      MetricsRegistry::Global().GetCounter("meu.candidates_pruned");
  // Largest observed gain / H_item ratio: the empirical check on the
  // kPruneMarginRel bound (must stay below 1 + margin; see DESIGN.md §5f).
  static Gauge* bound_ratio_gauge =
      MetricsRegistry::Global().GetGauge("meu.max_gain_bound_ratio");

  if (candidates.empty()) return {};
  const double current_entropy = ctx.fusion->TotalEntropy();
  const bool use_delta = ctx.delta != nullptr && ctx.warm_start_lookahead;

  // One flattened base state serves the whole candidate scan; each lane
  // pins into its own persistent O(frontier) workspace. A caller-owned
  // shared base skips the O(database) flatten (and the per-lane workspace
  // re-sync a fresh base would force).
  std::optional<DeltaFusionEngine::BaseState> local_base;
  const DeltaFusionEngine::BaseState* base = shared_base;
  if (use_delta && base == nullptr) {
    local_base.emplace(ctx.delta->PrepareBase(*ctx.fusion));
    base = &*local_base;
  }

  // Shard-confined mode: each candidate's lookahead propagates inside its
  // own shard, and branch-and-bound runs per shard (top_k is the per-shard
  // merge quota). Confinement requires the delta path.
  const std::uint32_t* shard_map =
      plan != nullptr && use_delta ? plan->partition().shard_map().data()
                                   : nullptr;

  const std::vector<std::size_t> order = ScanOrder(ctx, candidates);
  const bool prune = allow_prune && options_.prune && use_delta && top_k > 0 &&
                     top_k < candidates.size();
  // One threshold per shard in confined mode (each shard selects its own
  // top-quota); a single global threshold otherwise. GainThreshold is
  // neither movable nor copyable, hence the unique_ptr elements.
  const std::size_t num_thresholds =
      shard_map != nullptr ? plan->num_shards() : 1;
  std::vector<std::unique_ptr<GainThreshold>> thresholds;
  thresholds.reserve(num_thresholds);
  for (std::size_t s = 0; s < num_thresholds; ++s) {
    thresholds.push_back(std::make_unique<GainThreshold>(prune ? top_k : 0));
  }
  std::atomic<std::uint64_t> pruned{0};
  std::atomic<double> max_ratio{0.0};
  if (lanes_.size() < scan_.lanes()) lanes_.resize(scan_.lanes());

  const CandidateScan::Scorer score = [&](std::size_t lane,
                                          std::size_t idx) -> double {
    const ItemId item = candidates[idx];
    if (!use_delta) {
      // Cold / non-delta path: exact full-Fuse lookahead, never pruned
      // (the worked-example contract).
      return current_entropy - ExpectedEntropyAfterValidation(ctx, item);
    }
    ItemScope scope;
    const ItemScope* scope_ptr = nullptr;
    if (shard_map != nullptr) {
      scope = plan->ScopeFor(item);
      scope_ptr = &scope;
    }
    GainThreshold& threshold =
        shard_map != nullptr ? *thresholds[shard_map[item]] : *thresholds[0];

    // Per-claim gain bound: pinning o_i removes its own entropy H_i
    // exactly; the cross-item ripple is bounded by margin * H_i (exactly
    // zero for Voting, where a pin moves nothing else). DESIGN.md §5f.
    // Confinement only shrinks the ripple, so the same bound is admissible
    // for the shard-confined estimates.
    const double h_item = base->item_entropy[item];
    const double margin =
        ctx.delta->cross_item_influence() ? kPruneMarginRel : 0.0;
    const double claim_bound = (1.0 + margin) * h_item;
    if (prune && claim_bound < threshold.Get()) {
      // A-priori prune: gain <= claim_bound < threshold.
      pruned.fetch_add(1, std::memory_order_relaxed);
      return claim_bound;
    }

    // Claims best-first (descending pk, ties by claim index) so the
    // partial bound tightens as fast as possible. The order is a pure
    // function of the fusion state — identical for every schedule.
    LaneScratch& scratch = lanes_[lane];
    std::vector<std::pair<double, ClaimIndex>>& claims = scratch.claims;
    claims.clear();
    double total_mass = 0.0;
    for (ClaimIndex k = 0; k < ctx.compiled->item_num_claims(item); ++k) {
      const double pk = ctx.fusion->prob(item, k);
      if (pk <= 0.0) continue;
      claims.emplace_back(pk, k);
      total_mass += pk;
    }
    std::sort(claims.begin(), claims.end(),
              [](const std::pair<double, ClaimIndex>& a,
                 const std::pair<double, ClaimIndex>& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    double expected = 0.0;
    double mass = 0.0;
    for (const auto& [pk, k] : claims) {
      if (pk < kNegligiblePinMass) {
        expected += pk * (base->total_entropy - base->item_entropy[item]);
      } else {
        expected += pk * ctx.delta->EntropyAfterExactPin(
                             *base, scratch.ws, *ctx.priors, item, k,
                             scope_ptr);
      }
      mass += pk;
      if (!prune) continue;
      // Each unevaluated claim keeps at least (current - claim_bound)
      // entropy, so the remaining mass can add at most
      // remaining * claim_bound of gain. The clamp keeps the bound
      // conservative against rounding in the mass accumulation.
      const double remaining = std::max(0.0, total_mass - mass);
      const double ub = (current_entropy - expected) -
                        remaining * (current_entropy - claim_bound);
      if (ub < threshold.Get()) {
        pruned.fetch_add(1, std::memory_order_relaxed);
        return ub;
      }
    }
    // Delta EU_i of Eq. (7): current entropy minus expected entropy.
    const double gain = current_entropy - expected;
    if (prune) threshold.Offer(gain);
    // Gauge the margin only on items with entropy above the propagation's
    // numerical noise floor (~1e-9 nats): below it the quotient measures
    // rounding, not cross-item influence, and a pruned near-zero-entropy
    // item is below any plausible threshold regardless.
    if (h_item > 1e-6) AtomicMaxDouble(max_ratio, gain / h_item);
    return gain;
  };
  const std::vector<double> gains =
      scan_.Gains(candidates, score, ctx.cancel, &order);

  pruned_counter->Add(pruned.load(std::memory_order_relaxed));
  const double ratio = max_ratio.load(std::memory_order_relaxed);
  if (ratio > bound_ratio_gauge->value()) bound_ratio_gauge->Set(ratio);

  // Seed the next round's scan with this round's ranking, so the eventual
  // winners are evaluated first and the threshold tightens immediately.
  // Confined estimates never seed: the ranking belongs to the exact scan.
  if (shard_map == nullptr) {
    seed_ranking_ = TopKByScore(candidates, gains, kSeedLimit);
  }
  return gains;
}

std::vector<ItemId> MeuStrategy::SelectBatch(const StrategyContext& ctx,
                                             std::size_t batch) {
  assert(ctx.model != nullptr && ctx.fusion_opts != nullptr &&
         "MeuStrategy requires ctx.model and ctx.fusion_opts");
  VERITAS_SPAN("strategy.meu.select");
  static Counter* select_calls =
      MetricsRegistry::Global().GetCounter("strategy.meu.select_calls");
  static Counter* lookaheads =
      MetricsRegistry::Global().GetCounter("strategy.meu.lookaheads");
  static Histogram* candidates_hist = MetricsRegistry::Global().GetHistogram(
      "strategy.meu.candidates", MetricsRegistry::CountEdges());
  const std::vector<ItemId> candidates = CandidateItems(ctx);
  select_calls->Add(1);
  lookaheads->Add(candidates.size());
  candidates_hist->Observe(static_cast<double>(candidates.size()));
  const std::size_t shards = ctx.fusion_opts->shards;
  const bool use_delta = ctx.delta != nullptr && ctx.warm_start_lookahead;
  if (shards <= 1 || !use_delta || candidates.size() <= batch) {
    const std::vector<double> gains =
        ScoreCandidateGains(ctx, candidates, batch, /*allow_prune=*/true);
    return TopKByScore(candidates, gains, batch);
  }

  // The sharded two-stage selection (fusion/sharded_scan.h).
  VERITAS_SPAN("strategy.meu.select_sharded");
  static Counter* shard_scans =
      MetricsRegistry::Global().GetCounter("meu.shard_scans");
  static Histogram* pool_hist = MetricsRegistry::Global().GetHistogram(
      "meu.shard_pool_candidates", MetricsRegistry::CountEdges());
  shard_plan_.Prepare(*ctx.compiled, shards);
  shard_scans->Add(1);
  // One O(database) flatten serves both stages: stage 2's pins run against
  // the same base (each lookahead restores what it touched), so neither the
  // flatten nor the per-lane workspace sync is paid twice. Stage 1 runs
  // shard-confined with per-shard branch-and-bound; stage 2 is the classic
  // exact scan on the merged pool, which also refreshes the seed ranking.
  const DeltaFusionEngine::BaseState base =
      ctx.delta->PrepareBase(*ctx.fusion);
  const ShardedScanResult result = RunShardedScan(
      candidates, batch, shard_plan_.partition(),
      [&](const std::vector<ItemId>& items, std::size_t quota) {
        return ScanCandidateGains(ctx, items, quota, /*allow_prune=*/true,
                                  &shard_plan_, &base);
      },
      [&](const std::vector<ItemId>& pool, std::size_t top_k) {
        return ScanCandidateGains(ctx, pool, top_k, /*allow_prune=*/true,
                                  /*plan=*/nullptr, &base);
      });
  pool_hist->Observe(static_cast<double>(result.pool.size()));
  return TopKByScore(result.pool, result.gains, batch);
}

}  // namespace veritas
