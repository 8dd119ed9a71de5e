#include "fusion/delta_fusion.h"

#include <atomic>
#include <cassert>
#include <cmath>

#include "fusion/accu.h"
#include "fusion/truthfinder.h"
#include "fusion/voting.h"
#include "obs/metrics.h"
#include "util/cancellation.h"
#include "util/math.h"

namespace veritas {

namespace {

// Generation stamps for BaseState so a workspace can tell two bases apart
// even when one is rebuilt at the same address.
std::atomic<std::uint64_t> g_base_state_counter{0};

// A source re-dirties the items it votes on only when its accuracy moved by
// at least this fraction of the fusion tolerance. Below that the change is
// absorbed: the absorbed drift, roughly eps / (1 - rho) per score term (rho
// being the model's contraction rate), stays well inside the tolerance the
// full model itself stops at.
constexpr double kPropagationEpsilonFactor = 1e-3;

Counter* StaleViewCounter() {
  static Counter* stale =
      MetricsRegistry::Global().GetCounter("delta.stale_view_violations");
  return stale;
}

}  // namespace

std::unique_ptr<DeltaFusionEngine> DeltaFusionEngine::Create(
    const CompiledDatabase& compiled, const FusionModel& model,
    FusionOptions fusion_opts) {
  Kind kind;
  double gamma = 0.0;
  if (dynamic_cast<const AccuFusion*>(&model) != nullptr) {
    kind = Kind::kAccu;
  } else if (dynamic_cast<const VotingFusion*>(&model) != nullptr) {
    kind = Kind::kVoting;
  } else if (const auto* tf =
                 dynamic_cast<const TruthFinderFusion*>(&model)) {
    kind = Kind::kTruthFinder;
    gamma = tf->gamma();
  } else {
    return nullptr;
  }
  return std::unique_ptr<DeltaFusionEngine>(
      new DeltaFusionEngine(compiled, kind, gamma, fusion_opts));
}

double DeltaFusionEngine::ScoreTerm(double accuracy) const {
  switch (kind_) {
    case Kind::kAccu:
      return AccuFusion::SourceTerm(accuracy);
    case Kind::kTruthFinder:
      return TruthFinderFusion::SourceTerm(accuracy);
    case Kind::kVoting:
      return 0.0;
  }
  return 0.0;
}

DeltaFusionEngine::BaseState DeltaFusionEngine::PrepareBase(
    const FusionResult& base) const {
  const CompiledDatabase& c = *compiled_;
  assert(base.num_items() == c.num_items() &&
         base.probs().size() == c.num_claims());
  BaseState s;
  s.id = ++g_base_state_counter;
  s.epoch = c.epoch();
  s.probs = base.probs();
  s.item_entropy.resize(c.num_items());
  for (ItemId i = 0; i < c.num_items(); ++i) {
    const double h = Entropy(base.item_probs(i));
    s.item_entropy[i] = h;
    s.total_entropy += h;
  }
  s.accuracies = base.accuracies();
  for (double& a : s.accuracies) a = ClampAccuracy(a);
  s.terms.resize(c.num_sources());
  s.source_sums.assign(c.num_sources(), 0.0);
  for (SourceId j = 0; j < c.num_sources(); ++j) {
    s.terms[j] = ScoreTerm(s.accuracies[j]);
    double sum = 0.0;
    c.ForEachSourceVote(
        j, [&](ItemId, std::uint32_t g) { sum += s.probs[g]; });
    s.source_sums[j] = sum;
  }
  return s;
}

void DeltaFusionEngine::SyncWorkspace(const BaseState& base,
                                      Workspace& ws) const {
  const CompiledDatabase& c = *compiled_;
  ws.prob_.assign(base.probs.begin(), base.probs.end());
  ws.acc_ = base.accuracies;
  ws.sum_ = base.source_sums;
  ws.term_ = base.terms;
  ws.item_entropy_ = base.item_entropy;
  ws.item_touch_tick_.assign(c.num_items(), 0);
  ws.source_touch_tick_.assign(c.num_sources(), 0);
  ws.source_enroll_tick_.assign(c.num_sources(), 0);
  ws.ticket_ = 0;
  ws.synced_base_ = &base;
  ws.synced_id_ = base.id;
}

void DeltaFusionEngine::ApplyPin(Workspace& ws, ItemId item, const double* pin,
                                 std::size_t n) const {
  const CompiledDatabase& c = *compiled_;
  // Touch the item (pinned items join touched_items_ but never frontier_:
  // they are fixed and must not be recomputed).
  if (ws.item_touch_tick_[item] != ws.ticket_) {
    ws.item_touch_tick_[item] = ws.ticket_;
    ws.touched_items_.push_back(item);
  }
  // Claim deltas, then vote-sum updates, then the new probabilities.
  ws.scores_.resize(n);
  double h = 0.0;
  const std::uint32_t g = c.claim_offset(item);
  for (std::size_t k = 0; k < n; ++k) {
    ws.scores_[k] = pin[k] - ws.prob_[g + k];
    h += EntropyTerm(pin[k]);
  }
  c.ForEachItemVote(item, [&](SourceId j, ClaimIndex k) {
    const double dp = ws.scores_[k];
    if (dp == 0.0) return;
    ws.sum_[j] += dp;
    if (ws.source_touch_tick_[j] != ws.ticket_) {
      ws.source_touch_tick_[j] = ws.ticket_;
      ws.touched_sources_.push_back(j);
    }
  });
  for (std::size_t k = 0; k < n; ++k) ws.prob_[g + k] = pin[k];
  ws.item_entropy_[item] = h;
}

void DeltaFusionEngine::RecomputeItems(Workspace& ws) const {
  const CompiledDatabase& c = *compiled_;
  const std::size_t m = ws.frontier_.size();
  if (m == 0) return;
  // Without accuracy coupling no source enrolls an item, so a Voting
  // lookahead never has a frontier; only Accu and TruthFinder reach here.
  assert(kind_ != Kind::kVoting);

  // Pass 0: lay the frontier's claims out flat (one prefix-sum of offsets),
  // so the hot passes below run over dense contiguous buffers instead of
  // per-item resized scratch.
  ws.frontier_offsets_.resize(m + 1);
  std::size_t flat = 0;
  for (std::size_t f = 0; f < m; ++f) {
    ws.frontier_offsets_[f] = flat;
    flat += c.item_num_claims(ws.frontier_[f]);
  }
  ws.frontier_offsets_[m] = flat;
  if (ws.frontier_scores_.size() < flat) ws.frontier_scores_.resize(flat);
  if (ws.frontier_probs_.size() < flat) ws.frontier_probs_.resize(flat);
  if (ws.frontier_entropy_.size() < m) ws.frontier_entropy_.resize(m);

  // Pass 1: score gather — the models' own Eq. (1) gather over the cached
  // per-source terms. term_ is never written during this pass, so batching
  // across items cannot change any item's arithmetic.
  const double* term = ws.term_.data();
  const auto term_of = [term](SourceId j) { return term[j]; };
  double* scores = ws.frontier_scores_.data();
  for (std::size_t f = 0; f < m; ++f) {
    const ItemId item = ws.frontier_[f];
    const double per_vote =
        kind_ == Kind::kAccu ? c.log_false_values(item) : 0.0;
    GatherClaimScores(c, item, per_vote, term_of,
                      scores + ws.frontier_offsets_[f]);
  }

  // Pass 2: probabilities + entropies from the flat scores, per item (the
  // same arithmetic, in the same order, as the old one-item-at-a-time
  // update). Accu's softmax here is its own: the sigmoid form for two
  // claims and one division by the sum otherwise, with the entropy fused
  // in. It rounds differently from Fuse's SoftmaxInPlace; a lookahead only
  // has to agree with a warm Fuse within the tolerance, and this loop is
  // the MEU hot path.
  double* probs = ws.frontier_probs_.data();
  for (std::size_t f = 0; f < m; ++f) {
    const std::size_t off = ws.frontier_offsets_[f];
    const std::size_t n = ws.frontier_offsets_[f + 1] - off;
    const double* s = scores + off;
    double* p = probs + off;
    double h = 0.0;
    if (kind_ == Kind::kAccu) {
      if (n == 2) {
        // Two-claim fast path: one exp + one log1p for both the
        // probabilities and the entropy H = log1p(e) + |d| * p_minor
        // (softmax in sigmoid form; d is the score gap).
        const double d = s[0] - s[1];
        if (d >= 0.0) {
          const double e = std::exp(-d);
          const double p1 = e / (1.0 + e);
          p[1] = p1;
          p[0] = 1.0 - p1;
          h = std::log1p(e) + d * p1;
        } else {
          const double e = std::exp(d);
          const double p0 = e / (1.0 + e);
          p[0] = p0;
          p[1] = 1.0 - p0;
          h = std::log1p(e) - d * p0;
        }
      } else {
        double max_score = s[0];
        for (std::size_t k = 1; k < n; ++k) {
          if (s[k] > max_score) max_score = s[k];
        }
        double sum = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          const double w = std::exp(s[k] - max_score);
          p[k] = w;
          sum += w;
        }
        // p_k = exp(s_k - lse)  =>  H = sum_k p_k * (lse - s_k), no logs
        // per claim.
        const double lse = max_score + std::log(sum);
        const double inv = 1.0 / sum;
        for (std::size_t k = 0; k < n; ++k) {
          const double pk = p[k] * inv;
          p[k] = pk;
          h += pk * (lse - s[k]);
        }
      }
    } else {  // kTruthFinder
      TruthFinderFusion::ConfidenceShares(gamma_, {s, n}, {p, n});
      for (std::size_t k = 0; k < n; ++k) h += EntropyTerm(p[k]);
    }
    ws.frontier_entropy_[f] = h;
  }

  // Pass 3: vote-sum delta scatter + writeback, item by item in frontier
  // order — the accumulation order into sum_ is exactly the old loop's.
  for (std::size_t f = 0; f < m; ++f) {
    const ItemId item = ws.frontier_[f];
    const std::size_t off = ws.frontier_offsets_[f];
    const std::size_t n = ws.frontier_offsets_[f + 1] - off;
    const double* p = probs + off;
    const std::uint32_t g = c.claim_offset(item);
    c.ForEachItemVote(item, [&](SourceId j, ClaimIndex k) {
      const double dp = p[k] - ws.prob_[g + k];
      if (dp == 0.0) return;
      ws.sum_[j] += dp;
      if (ws.source_touch_tick_[j] != ws.ticket_) {
        ws.source_touch_tick_[j] = ws.ticket_;
        ws.touched_sources_.push_back(j);
      }
    });
    for (std::size_t k = 0; k < n; ++k) ws.prob_[g + k] = p[k];
    ws.item_entropy_[item] = ws.frontier_entropy_[f];
  }
}

void DeltaFusionEngine::Propagate(Workspace& ws, const PriorSet& priors,
                                  ItemId extra_pin,
                                  const ItemScope* scope) const {
  const CompiledDatabase& c = *compiled_;
  const double eps = kPropagationEpsilonFactor * fusion_opts_.tolerance;

  // Each round is one accuracy + probability alternation of the full model,
  // restricted to the active subgraph: every source whose vote-sum ever
  // moved, every non-fixed item any of them enrolled. The subgraph only
  // grows (a source whose accuracy moved by >= eps enrolls all its items),
  // so the rounds converge like a full warm-started Fuse instead of
  // trickling influence one hop at a time.
  for (std::size_t iter = 0; iter < fusion_opts_.max_iterations; ++iter) {
    // Hard cancel: abandon the relaxation mid-flight. The caller's touched
    // lists stay valid (EntropyAfterExactPin still restores them), and every
    // caller of a non-converged lookahead is itself on an abandon path.
    if (HardStopRequested(fusion_opts_.cancel)) break;

    // Accuracy pass over the active sources. Sources whose sum did not move
    // since their last update fall through at `delta == 0.0` in O(1).
    double max_delta = 0.0;
    for (SourceId j : ws.touched_sources_) {
      const std::size_t degree = c.source_degree(j);
      if (degree == 0) continue;
      const double updated =
          ClampAccuracy(ws.sum_[j] / static_cast<double>(degree));
      const double delta = std::fabs(updated - ws.acc_[j]);
      if (delta == 0.0) continue;
      ws.acc_[j] = updated;
      ws.term_[j] = ScoreTerm(updated);
      if (delta > max_delta) max_delta = delta;
      // Only a non-negligible move enrolls the source's items; smaller
      // changes are absorbed (they are far below the convergence tolerance).
      // Enrollment is idempotent (a source always enrolls all its non-fixed
      // items), so each source scans its vote list at most once per call.
      if (kind_ != Kind::kVoting && delta >= eps &&
          ws.source_enroll_tick_[j] != ws.ticket_) {
        ws.source_enroll_tick_[j] = ws.ticket_;
        if (scope != nullptr && scope->conflict_items != nullptr &&
            scope->conflict_items->size() < degree) {
          // Confined fast path: enroll from the shard's (small) conflict
          // list instead of walking a heavy source's whole vote list. This
          // may over-enroll in-scope items the source does not vote on —
          // their scores have not moved, so the recompute is a no-op — and
          // is what keeps a confined lookahead independent of the degree of
          // a database-spanning head source.
          for (const ItemId i : *scope->conflict_items) {
            if (ws.item_touch_tick_[i] == ws.ticket_) continue;
            if (i == extra_pin || priors.Has(i)) continue;
            ws.item_touch_tick_[i] = ws.ticket_;
            ws.touched_items_.push_back(i);
            ws.frontier_.push_back(i);
          }
          continue;
        }
        c.ForEachSourceVote(j, [&](ItemId i, std::uint32_t) {
          if (ws.item_touch_tick_[i] == ws.ticket_) return;
          if (i == extra_pin || c.item_num_claims(i) <= 1 || priors.Has(i)) {
            return;
          }
          // Shard confinement: the ripple stops at the scope boundary. The
          // source's accuracy/sum still update from in-scope prob changes —
          // only the re-enrollment of foreign items is cut.
          if (scope != nullptr && !scope->Contains(i)) return;
          ws.item_touch_tick_[i] = ws.ticket_;
          ws.touched_items_.push_back(i);
          ws.frontier_.push_back(i);
        });
      }
    }

    // Probability pass over the active items (the converged-base analogue of
    // the full model's probability update, including its trailing pass:
    // probabilities are refreshed once more on the round that converges).
    RecomputeItems(ws);
    if (max_delta < fusion_opts_.tolerance) break;
  }
}

double DeltaFusionEngine::EntropyAfterExactPin(
    const BaseState& base, Workspace& ws, const PriorSet& priors, ItemId item,
    ClaimIndex claim, const ItemScope* scope) const {
  // The MEU inner loop: instrumentation here is a single relaxed atomic add
  // (no span, no histogram) so thousands of lookahead pins per select stay
  // cheap with metrics always on.
  static Counter* lookahead_pins =
      MetricsRegistry::Global().GetCounter("delta.lookahead_pins");
  lookahead_pins->Add(1);
  const CompiledDatabase& c = *compiled_;
  // Epoch guard: the base flattened a particular view generation; an ingest
  // batch (or Compact) since then rebuilt the view under it. Using it would
  // read through the stale layout, so fail loudly in debug and degrade to
  // "no information" (the unpinned entropy) in release — never a silently
  // wrong lookahead score.
  if (base.epoch != c.epoch()) {
    assert(false && "EntropyAfterExactPin on a stale base state");
    StaleViewCounter()->Add(1);
    return base.total_entropy;
  }
  // First sight of this base: copy it into the flat working arrays. Later
  // calls only pay for what they touch (and restore below).
  if (ws.synced_base_ != &base || ws.synced_id_ != base.id) {
    SyncWorkspace(base, ws);
  }
  ++ws.ticket_;
  ws.touched_items_.clear();
  ws.touched_sources_.clear();
  ws.frontier_.clear();

  const std::size_t n = c.item_num_claims(item);
  ws.new_probs_.assign(n, 0.0);
  ws.new_probs_[claim] = 1.0;
  // ApplyPin reads deltas into scores_, so new_probs_ survives the call.
  ApplyPin(ws, item, ws.new_probs_.data(), n);

  Propagate(ws, priors, item, scope);

  double total = base.total_entropy;
  for (ItemId i : ws.touched_items_) {
    total += ws.item_entropy_[i] - base.item_entropy[i];
  }

  // Restore the touched entries so the workspace mirrors the base again.
  for (ItemId i : ws.touched_items_) {
    const std::size_t ni = c.item_num_claims(i);
    const std::uint32_t g = c.claim_offset(i);
    for (std::size_t k = 0; k < ni; ++k) ws.prob_[g + k] = base.probs[g + k];
    ws.item_entropy_[i] = base.item_entropy[i];
  }
  for (SourceId j : ws.touched_sources_) {
    ws.acc_[j] = base.accuracies[j];
    ws.term_[j] = base.terms[j];
    ws.sum_[j] = base.source_sums[j];
  }
  return total;
}

}  // namespace veritas
