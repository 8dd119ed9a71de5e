// Strategy: the interface every feedback-ordering method implements (the
// "next action" problem of §1.2). A strategy looks at the compiled view of
// the database, the current fusion output and the set of already-validated
// items, and returns the next item(s) the user should validate.
#ifndef VERITAS_CORE_STRATEGY_H_
#define VERITAS_CORE_STRATEGY_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "fusion/fusion_model.h"
#include "fusion/fusion_result.h"
#include "fusion/priors.h"
#include "model/compiled_database.h"
#include "model/ground_truth.h"
#include "util/rng.h"

namespace veritas {

class DeltaFusionEngine;

/// Everything a strategy may consult when choosing the next action. It holds
/// no Database: strategies read the compiled view, the fusion output and the
/// validated set. Pointers that a given strategy does not need may be null
/// (see each strategy's documentation); `compiled`, `fusion` and `priors`
/// are always set.
struct StrategyContext {
  /// The session's one flat CSR view (frozen: compiled once per session;
  /// streaming: StreamingDatabase::compiled(), rebuilt per changing batch).
  /// Caches kept across calls (QBC's ranking, the shard plans) key on its
  /// (id(), epoch()).
  const CompiledDatabase* compiled = nullptr;
  const FusionResult* fusion = nullptr;  ///< Current fusion output <P, A>.
  const PriorSet* priors = nullptr;      ///< Validated items (excluded).
  const FusionModel* model = nullptr;    ///< For lookahead (MEU, GUB).
  const FusionOptions* fusion_opts = nullptr;
  const GroundTruth* ground_truth = nullptr;  ///< Only for GUB.
  Rng* rng = nullptr;                         ///< For Random.
  /// Items the session could not validate (oracle permanently failed or the
  /// user marked them unanswerable); excluded from the action space like
  /// validated items. May be null.
  const std::unordered_set<ItemId>* excluded = nullptr;
  /// When true, items with a single claim are also candidates (the paper's
  /// worked example validates such an item; real experiments do not).
  bool include_singletons = false;
  /// When true (default), lookahead re-fusions (MEU, GUB) start from the
  /// current accuracies instead of the initial ones — much faster, same
  /// fixed point. The paper's worked example (Tables 4-6) cold-starts.
  bool warm_start_lookahead = true;
  /// Incremental lookahead engine for `model` over `compiled`, or null. When
  /// set (and warm_start_lookahead is true), MEU-family strategies propagate
  /// each hypothetical pin over a dirty frontier instead of re-fusing the
  /// whole database. The session owns the engine and keeps it in sync.
  const DeltaFusionEngine* delta = nullptr;
  /// When true, only items with known ground truth are candidates. Streaming
  /// sessions with a strict (RequireTruth) oracle set this: an item whose
  /// truth row has not arrived yet simply waits — it re-enters the action
  /// space the moment its truth lands, instead of aborting the session or
  /// being skipped forever.
  bool require_known_truth = false;
  /// Optional hard-stop token (not owned; may be null). Lookahead-heavy
  /// strategies poll it between candidates and bail out of the scan when a
  /// hard stop is requested; the truncated batch is discarded by the session,
  /// so partial scores never leak into a recorded round.
  const CancellationToken* cancel = nullptr;
};

/// Abstract feedback-ordering strategy.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Short identifier ("qbc", "meu", ...).
  virtual std::string name() const = 0;

  /// Clears per-session caches, if any. Called when a new session starts.
  virtual void Reset() {}

  /// Returns up to `batch` distinct unvalidated items to validate next,
  /// best first. Returns fewer (possibly zero) items when candidates run out.
  virtual std::vector<ItemId> SelectBatch(const StrategyContext& ctx,
                                          std::size_t batch) = 0;

  /// Single-action convenience: the best next item, or kInvalidItem.
  ItemId SelectNext(const StrategyContext& ctx);
};

/// The action space Theta: unvalidated items (conflicting only, unless
/// ctx.include_singletons).
std::vector<ItemId> CandidateItems(const StrategyContext& ctx);

/// *ctx.priors plus the hypothesis "item's claim k is true" (a one-hot sized
/// from ctx.compiled; k is asserted in range, there is no error path).
PriorSet PinnedLookahead(const StrategyContext& ctx, ItemId item,
                         ClaimIndex k);

/// Picks the `k` highest-scoring candidates (ties broken by lower item id,
/// deterministically). `scores` is parallel to `candidates`.
std::vector<ItemId> TopKByScore(const std::vector<ItemId>& candidates,
                                const std::vector<double>& scores,
                                std::size_t k);

/// Vote entropy of an item (Eq. 3 over the Eq. 5 vote shares) — the QBC
/// score, also used by the hybrid Approx-MEU_k filter.
double VoteEntropy(const CompiledDatabase& c, ItemId item);

}  // namespace veritas

#endif  // VERITAS_CORE_STRATEGY_H_
