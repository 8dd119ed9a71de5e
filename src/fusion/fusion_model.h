// FusionModel: the abstract data fusion system F : D -> <P, A> of
// Definition 2. The feedback framework treats fusion as a black box (§3),
// so every strategy works with any FusionModel implementation.
#ifndef VERITAS_FUSION_FUSION_MODEL_H_
#define VERITAS_FUSION_FUSION_MODEL_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "fusion/fusion_result.h"
#include "fusion/priors.h"
#include "model/compiled_database.h"
#include "model/database.h"
#include "util/cancellation.h"

namespace veritas {

/// Knobs shared by the iterative fusion models.
struct FusionOptions {
  /// Default accuracy assigned to sources before the first iteration (§3).
  double initial_accuracy = 0.8;
  /// Hard cap on the alternation between claim and accuracy updates.
  std::size_t max_iterations = 100;
  /// Convergence threshold on the L-infinity change of source accuracies.
  double tolerance = 1e-6;
  /// Answer the MEU-family lookaheads with the incremental DeltaFusionEngine
  /// when the model supports it (Accu, Voting, TruthFinder; see
  /// fusion/delta_fusion.h). Models without local-update structure (AccuCopy)
  /// ignore the flag and always re-fuse fully. Real validations and
  /// streaming appends always re-fuse with FusionModel::Fuse; the flag does
  /// not touch them. Only takes effect together with warm starts —
  /// cold-started runs stay on the full path so the paper's worked examples
  /// remain bit-exact.
  bool use_delta_fusion = true;
  /// Number of item-disjoint shards for the MEU-family candidate scans
  /// (DESIGN.md §5h). <= 1 keeps the classic single-view scan. With N > 1
  /// the scan runs a shard-confined estimate pass per shard, merges the
  /// per-shard top candidates, and re-ranks the merged pool with exact
  /// unconfined lookaheads — selections stay deterministic for any shard
  /// count × thread count. Fusion itself (Fuse) is unaffected; only the
  /// strategies' lookahead scans read this.
  std::size_t shards = 1;
  /// Optional hard-stop token (not owned; may be null). Iterative models
  /// poll it once per claim/accuracy alternation and bail at the next
  /// iteration boundary when a hard stop is requested, returning the
  /// partial result with converged() == false. Graceful stops never
  /// interrupt a fusion in flight — that keeps completed rounds bit-exact.
  const CancellationToken* cancel = nullptr;
};

/// Interface of a data fusion system. Every model iterates over one
/// source–claim bipartite graph, the CSR view of a CompiledDatabase; a model
/// implements FuseCompiled over that view and nothing else.
class FusionModel {
 public:
  virtual ~FusionModel() = default;

  /// Short identifier ("accu", "voting", ...).
  virtual std::string name() const = 0;

  /// Runs fusion over `c` with validated knowledge `priors` pinned. Pinned
  /// items keep their prior distribution but still contribute to source
  /// accuracy estimation. `warm` (if non-null) provides the starting source
  /// accuracies (see WarmStartAccuracies); iterative models converge faster
  /// from it on the lookahead re-fusions that MEU/GUB issue (§4.2.2). The
  /// result is laid out by `c`'s global claim ids.
  FusionResult Fuse(const CompiledDatabase& c, const PriorSet& priors,
                    const FusionOptions& opts,
                    const FusionResult* warm = nullptr) const {
    return FuseCompiled(c, priors, opts, warm);
  }

  /// Compiles `db` once and fuses over that view — for callers that hold no
  /// session view (examples, one-shot tools, benchmarks).
  FusionResult Fuse(const Database& db, const PriorSet& priors,
                    const FusionOptions& opts,
                    const FusionResult* warm = nullptr) const;

  /// Convenience overload with no priors.
  FusionResult Fuse(const Database& db, const FusionOptions& opts) const {
    return Fuse(db, PriorSet(), opts);
  }

 protected:
  /// The model's fusion over the CSR view, as specified by Fuse.
  virtual FusionResult FuseCompiled(const CompiledDatabase& c,
                                    const PriorSet& priors,
                                    const FusionOptions& opts,
                                    const FusionResult* warm) const = 0;
};

/// The clamped starting source accuracies of a Fuse over `num_sources`
/// sources: `warm`'s accuracies, with sources appended since it was computed
/// at `initial_accuracy`; all `initial_accuracy` when `warm` is null. A warm
/// result from before a streaming append is therefore a legal warm start.
std::vector<double> WarmStartAccuracies(const FusionResult* warm,
                                        std::size_t num_sources,
                                        double initial_accuracy);

/// Writes the distributions that never change across a model's iterations
/// into `probs` (by global claim id): a pinned item copies its prior, a
/// single-claim item is certainly true. Returns one flag per item, set for
/// exactly those items.
std::vector<char> MarkFixedItems(const CompiledDatabase& c,
                                 const PriorSet& priors,
                                 std::span<double> probs);

/// Eq. (2): the accuracy of each source becomes the clamped mean probability
/// of the claims it votes for, summed in the source's vote order. Sources
/// without votes keep their accuracy. Returns the L-infinity change.
double UpdateMeanVoteAccuracies(const CompiledDatabase& c,
                                std::span<const double> probs,
                                std::vector<double>* accuracies);

}  // namespace veritas

#endif  // VERITAS_FUSION_FUSION_MODEL_H_
