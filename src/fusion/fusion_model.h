// FusionModel: the abstract data fusion system F : D -> <P, A> of
// Definition 2. The feedback framework treats fusion as a black box (§3),
// so every strategy works with any FusionModel implementation.
#ifndef VERITAS_FUSION_FUSION_MODEL_H_
#define VERITAS_FUSION_FUSION_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fusion/fusion_result.h"
#include "fusion/priors.h"
#include "model/compiled_database.h"
#include "model/database.h"
#include "util/cancellation.h"

namespace veritas {

class Counter;
class Histogram;

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
  /// Number of item-disjoint shards for MEU's candidate scan (DESIGN.md
  /// §5h). <= 1 keeps the classic single-view scan. With N > 1 the scan
  /// runs a shard-confined estimate pass per shard, merges the per-shard
  /// top candidates, and re-ranks the merged pool with exact unconfined
  /// lookaheads — selections stay deterministic for any shard count ×
  /// thread count. Fusion itself (Fuse) is unaffected, and so is every
  /// other strategy: only MEU's lookahead scan reads this.
  std::size_t shards = 1;
  /// Optional hard-stop token (not owned; may be null). Iterative models
  /// poll it once per claim/accuracy alternation and bail at the next
  /// iteration boundary when a hard stop is requested, returning the
  /// partial result with converged() == false. Every item still holds a
  /// distribution (FixedPointDriver::Run). Graceful stops never interrupt a
  /// fusion in flight — that keeps completed rounds bit-exact.
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
  /// accuracies (see FixedPointDriver); iterative models converge faster
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

/// Eq. (2): the accuracy of each source becomes the clamped mean probability
/// of the claims it votes for, summed in the source's vote order. Sources
/// without votes keep their accuracy. Returns the L-infinity change.
double UpdateMeanVoteAccuracies(const CompiledDatabase& c,
                                std::span<const double> probs,
                                std::vector<double>* accuracies);

/// The claim-score gather of Accu's and TruthFinder's Eq. (1): for each
/// claim k of `item`, scores[k] = |S(v_k)| * per_vote + sum over the
/// claim's voters s, in CSR order, of term(s). Accu passes ln(|V_i| - 1)
/// and its log-odds, TruthFinder 0 and its trust score.
template <typename Term>
void GatherClaimScores(const CompiledDatabase& c, ItemId item,
                       double per_vote, const Term& term, double* scores) {
  const std::vector<SourceId>& claim_sources = c.claim_sources();
  const std::uint32_t g = c.claim_offset(item);
  const std::size_t n = c.item_num_claims(item);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t begin = c.claim_sources_begin(g + k);
    const std::uint32_t end = c.claim_sources_end(g + k);
    double score = static_cast<double>(end - begin) * per_vote;
    for (std::uint32_t v = begin; v < end; ++v) {
      score += term(claim_sources[v]);
    }
    scores[k] = score;
  }
}

/// The instruments of one iterative model's Fuse calls:
/// fusion.<model>.{fuse_calls,iterations,nonconverged,residual}. A model
/// builds its set once (a function-local static), so no Fuse looks one up.
struct FixedPointInstruments {
  explicit FixedPointInstruments(const std::string& model);
  Counter* fuse_calls;
  Counter* nonconverged;
  Histogram* iterations;
  Histogram* residual;
};

/// The alternation every iterative model runs (Accu, TruthFinder,
/// SimpleLCA, PooledInvestment, AccuCopy's inner EM): a claim step (Eq. 1)
/// rewrites the unfixed items' distributions from the source accuracies, a
/// source step (Eq. 2) re-estimates the accuracies from the distributions,
/// until the accuracies stop moving. One driver serves one Fuse call: it
/// owns the result, its fixed items and the accuracies, and records the
/// call in the model's instruments.
class FixedPointDriver {
 public:
  /// Starts a Fuse over `c`: counts the call and sets the fixed items (a
  /// pinned item copies its prior, a single-claim item gets 1) and the
  /// clamped starting accuracies: `warm`'s, with sources appended since it
  /// was computed at opts.initial_accuracy (all of them when `warm` is
  /// null), so a warm result from before a streaming append is legal.
  FixedPointDriver(const FixedPointInstruments& instruments,
                   const CompiledDatabase& c, const PriorSet& priors,
                   const FusionOptions& opts, const FusionResult* warm);

  /// Alternates `claims(accuracies, probs)`, which writes every unfixed
  /// item's distribution, and `sources(probs, &accuracies)`, which returns
  /// the accuracies' L-infinity change, once each per iteration, until the
  /// change is below opts.tolerance or opts.max_iterations ran; records the
  /// count and convergence in the result (the last run's, when a model runs
  /// more than once). A hard stop ends the run at an iteration boundary. A
  /// run that completes no iteration (a hard stop at entry, or a cap of 0)
  /// still runs the claim step once, so every item holds a distribution.
  template <typename ClaimStep, typename SourceStep>
  void Run(ClaimStep&& claims, SourceStep&& sources) {
    const std::span<double> probs = result_.mutable_probs();
    std::size_t iter = 0;
    bool converged = false;
    residual_ = 0.0;
    while (iter < opts_.max_iterations) {
      if (HardStopRequested(opts_.cancel)) break;
      ++iter;
      claims(std::as_const(accuracies_), probs);
      residual_ = sources(std::span<const double>(probs), &accuracies_);
      if (residual_ < opts_.tolerance) {
        converged = true;
        break;
      }
    }
    if (iter == 0) claims(std::as_const(accuracies_), probs);
    result_.set_iterations(iter);
    result_.set_converged(converged);
  }

  /// Run with Eq. (2)'s mean-vote source step (UpdateMeanVoteAccuracies).
  template <typename ClaimStep>
  void Run(ClaimStep&& claims) {
    Run(claims, [this](std::span<const double> probs,
                       std::vector<double>* accuracies) {
      return UpdateMeanVoteAccuracies(c_, probs, accuracies);
    });
  }

  const std::vector<char>& fixed() const { return fixed_; }
  std::vector<double>& accuracies() { return accuracies_; }
  FusionResult& result() { return result_; }

  /// Moves the accuracies into the result, records the run's iterations,
  /// residual and non-convergence, and returns the result.
  FusionResult Finish();

 private:
  const FixedPointInstruments& instruments_;
  const CompiledDatabase& c_;
  const FusionOptions& opts_;
  FusionResult result_;
  std::vector<double> accuracies_;
  std::vector<char> fixed_;
  double residual_ = 0.0;
};

}  // namespace veritas

#endif  // VERITAS_FUSION_FUSION_MODEL_H_
