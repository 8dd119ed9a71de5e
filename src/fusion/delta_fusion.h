// DeltaFusion: the MEU lookahead's incremental re-fusion after one
// hypothetical pin.
//
// MEU's exact lookahead re-fuses the whole database O(m * kappa) times per
// action (§4.2.2, Table 11) even though a single pin barely moves most of the
// fixed point: from a converged <P, A>, pinning item o_i only changes the
// accuracies of sources voting on o_i, which only changes the probabilities
// of items those sources touch, and so on. This engine propagates exactly
// that dirty frontier over a CompiledDatabase CSR view:
//
//   pin an item  ->  sources voting on it get new vote-probability sums
//                ->  accuracy update restricted to those sources
//                ->  probability update restricted to items the *changed*
//                    sources vote on (Eq. 1 over cached per-source log-odds)
//                ->  repeat until the frontier's L-infinity accuracy change
//                    falls below the fusion tolerance.
//
// Sources whose accuracy moved by less than a small fraction of the
// tolerance do not enroll their items, so the active subgraph stops growing
// once the perturbation decays; the dropped mass is below the convergence
// tolerance the full model itself stops at, which is why the lookahead
// entropy agrees with a full warm-started Fuse within that tolerance (see
// DESIGN.md §5b). The engine answers lookaheads only and never materializes
// a FusionResult: a real validation, like a streaming append, is folded in
// by one warm-started FusionModel::Fuse (the paper's Alg. 1).
//
// Supported models: Accu, Voting (exact — probabilities do not depend on
// accuracies), TruthFinder. AccuCopy re-estimates its dependence matrix from
// *all* pairwise agreements, so a pin is never local; Create() returns null
// for it and every other unsupported model.
#ifndef VERITAS_FUSION_DELTA_FUSION_H_
#define VERITAS_FUSION_DELTA_FUSION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fusion/fusion_model.h"
#include "fusion/fusion_result.h"
#include "fusion/priors.h"
#include "model/compiled_database.h"

namespace veritas {

/// Restricts a lookahead's propagation to one shard of an item partition
/// (DESIGN.md §5h). Items outside the scope never enter the frontier, so the
/// ripple of a hypothetical pin is confined to the shard and a lookahead
/// costs O(shard reach) instead of O(reach of the heaviest shared source) —
/// the mechanism behind the sharded scan's per-candidate speedup. The
/// confined entropy is an *estimate* (cross-shard coupling is dropped); the
/// sharded scan re-ranks the merged candidate pool with unconfined exact
/// lookaheads before anything is selected.
struct ItemScope {
  /// Shard id per ItemId (ShardPartition::shard_map().data()); not owned.
  /// Null admits every item (no confinement).
  const std::uint32_t* shard_of = nullptr;
  std::uint32_t shard = 0;
  /// Optional enrollment fast path: the shard's multi-claim items,
  /// ascending (ShardPartition::conflict_items(shard)); not owned. When a
  /// source's vote list is longer than this list, the confined propagation
  /// enrolls from here instead of scanning the votes — a head source
  /// covering the whole database then costs O(shard conflicts), not
  /// O(degree), per lookahead. May over-enroll in-scope items the source
  /// does not vote on; recomputing an item whose scores did not move is a
  /// no-op, so the confined estimate is unchanged up to floating-point
  /// noise far below the merge's decision margins.
  const std::vector<ItemId>* conflict_items = nullptr;

  bool Contains(ItemId i) const {
    return shard_of == nullptr || shard_of[i] == shard;
  }
};

/// Lookahead engine for one (CSR view, FusionModel) pair.
/// All methods are const and thread-safe; concurrent callers need their own
/// Workspace (see MEU's per-worker workspaces).
class DeltaFusionEngine {
 public:
  /// Reusable scratch for the hot path: flat working copies of a BaseState,
  /// mutated in place during a call and restored (touched entries only)
  /// before it returns, so a lookahead costs O(active subgraph) with direct
  /// array access — no per-element indirection. The copies are synced lazily
  /// the first time a workspace sees a given BaseState (O(database) once,
  /// then amortized over the whole candidate scan). One per thread; contents
  /// are meaningless between calls.
  class Workspace {
   public:
    Workspace() = default;

   private:
    friend class DeltaFusionEngine;
    // Which BaseState the working copies currently mirror.
    const void* synced_base_ = nullptr;
    std::uint64_t synced_id_ = 0;
    std::uint64_t ticket_ = 0;       // Dedupe stamp for the touched lists.
    // Flat working copies of the base state.
    std::vector<double> prob_;
    std::vector<double> acc_;
    std::vector<double> sum_;
    std::vector<double> term_;
    std::vector<double> item_entropy_;
    // The active subgraph (cumulative; membership = tick equals ticket_).
    // touched_items_ includes the pinned item; frontier_ is the recompute
    // list (touched minus fixed items), relaxed every round.
    std::vector<std::uint64_t> item_touch_tick_;
    std::vector<ItemId> touched_items_;
    std::vector<std::uint64_t> source_touch_tick_;
    std::vector<SourceId> touched_sources_;
    std::vector<std::uint64_t> source_enroll_tick_;
    std::vector<ItemId> frontier_;
    std::vector<double> scores_;
    std::vector<double> new_probs_;
    // Flat SoA buffers for the batched frontier recompute: per-claim scores
    // and probabilities for the whole frontier live in one contiguous run
    // (offsets per item), so the gather/softmax/scatter passes are tight
    // loops over dense arrays instead of per-item resized scratch.
    std::vector<std::size_t> frontier_offsets_;
    std::vector<double> frontier_scores_;
    std::vector<double> frontier_probs_;
    std::vector<double> frontier_entropy_;
  };

  /// Flat snapshot of a converged base <P, A>, reusable across many pins of
  /// the same base (one per MEU candidate scan). `id` is a globally unique
  /// generation stamp so workspaces can tell bases apart even when one is
  /// rebuilt at the same address. The probabilities are borrowed from the
  /// FusionResult the state was prepared from, which must outlive it.
  struct BaseState {
    std::uint64_t id = 0;
    /// CompiledDatabase epoch this state was flattened against. Every lookup
    /// into `probs`/`source_sums` is positional in that epoch's layout; the
    /// engine checks it before each use and fails loudly on mismatch instead
    /// of silently reading through a stale view (see
    /// `delta.stale_view_violations`).
    std::uint64_t epoch = 0;
    std::span<const double> probs;    ///< By global claim id (borrowed).
    std::vector<double> accuracies;   ///< Clamped.
    std::vector<double> source_sums;  ///< Sum of vote probabilities.
    std::vector<double> terms;        ///< Per-source score term (model kind).
    std::vector<double> item_entropy;
    double total_entropy = 0.0;
  };

  /// Builds an engine over `compiled`, or null when the model is
  /// unsupported. The engine borrows the view (the session's one compiled
  /// view: a frozen database's, or a StreamingDatabase's live one, whose
  /// rebuilds bump the epoch the BaseStates pin). `compiled` must outlive the
  /// engine.
  static std::unique_ptr<DeltaFusionEngine> Create(
      const CompiledDatabase& compiled, const FusionModel& model,
      FusionOptions fusion_opts);

  /// True when a pin on one item can move *other* items' probabilities
  /// (through the shared-source accuracy coupling). Voting has no such
  /// coupling: a pin changes exactly the pinned item, so MEU's pruning bound
  /// is exact for it instead of a margin-padded heuristic.
  bool cross_item_influence() const { return kind_ != Kind::kVoting; }

  /// Prepares a converged fusion result, fused over this engine's view, for
  /// repeated pinning. The state borrows `base`'s probabilities.
  BaseState PrepareBase(const FusionResult& base) const;

  /// MEU fast path: the total entropy of the hypothetical state where `item`
  /// is pinned one-hot to `claim`, without materializing a FusionResult.
  /// `priors` is the current prior set (NOT yet containing `item`). A
  /// non-null `scope` confines the propagation frontier to the scope's items
  /// (shard-local estimate; see ItemScope).
  double EntropyAfterExactPin(const BaseState& base, Workspace& ws,
                              const PriorSet& priors, ItemId item,
                              ClaimIndex claim,
                              const ItemScope* scope = nullptr) const;

 private:
  enum class Kind { kAccu, kVoting, kTruthFinder };

  DeltaFusionEngine(const CompiledDatabase& compiled, Kind kind, double gamma,
                    FusionOptions fusion_opts)
      : kind_(kind),
        gamma_(gamma),
        fusion_opts_(fusion_opts),
        compiled_(&compiled) {}

  double ScoreTerm(double accuracy) const;
  /// Copies `base` into the workspace's flat working arrays.
  void SyncWorkspace(const BaseState& base, Workspace& ws) const;
  void ApplyPin(Workspace& ws, ItemId item, const double* pin,
                std::size_t n) const;
  /// Batched probability pass: recomputes every frontier item in order via
  /// three flat passes (score gather, softmax + entropy, vote-sum scatter)
  /// over the workspace's contiguous SoA buffers. Bit-identical to updating
  /// the items one at a time — scores depend only on term_, which the pass
  /// never writes, and the scatter preserves per-item order.
  void RecomputeItems(Workspace& ws) const;
  /// Relaxes the active subgraph to convergence (or the iteration cap). When
  /// the pin's influence is global the relaxation simply degrades into a
  /// full-database alternation on the workspace arrays — still cheaper than
  /// a full Fuse, which must also rebuild its views and allocate a result.
  /// `extra_pin` marks the pinned item, absent from `priors`; a non-null
  /// `scope` keeps out-of-scope items off the frontier.
  void Propagate(Workspace& ws, const PriorSet& priors, ItemId extra_pin,
                 const ItemScope* scope) const;

  Kind kind_;
  double gamma_;
  FusionOptions fusion_opts_;
  const CompiledDatabase* compiled_;  // Borrowed; see Create.
};

}  // namespace veritas

#endif  // VERITAS_FUSION_DELTA_FUSION_H_
