#include "fusion/accu.h"

#include <cmath>

#include "model/compiled_database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"

namespace veritas {

namespace {

// Stable softmax of scores[0..n) written into probs[0..n).
void SoftmaxInto(const double* scores, std::size_t n, double* probs) {
  double max_score = scores[0];
  for (std::size_t k = 1; k < n; ++k) {
    if (scores[k] > max_score) max_score = scores[k];
  }
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += std::exp(scores[k] - max_score);
  const double lse = max_score + std::log(sum);
  for (std::size_t k = 0; k < n; ++k) probs[k] = std::exp(scores[k] - lse);
}

// Items whose distribution never changes across iterations: pinned items
// copy their prior once, single-claim items are certainly true. Returns one
// flag per item and writes the constant distributions into `probs` (indexed
// by global claim id).
std::vector<char> MarkFixedItems(const CompiledDatabase& c,
                                 const PriorSet& priors,
                                 std::vector<double>* probs) {
  std::vector<char> fixed(c.num_items(), 0);
  for (ItemId i = 0; i < c.num_items(); ++i) {
    const std::uint32_t g = c.claim_offset(i);
    if (priors.Has(i)) {
      const std::vector<double>& p = priors.Get(i);
      for (std::size_t k = 0; k < p.size(); ++k) (*probs)[g + k] = p[k];
      fixed[i] = 1;
    } else if (c.item_num_claims(i) == 1) {
      (*probs)[g] = 1.0;
      fixed[i] = 1;
    }
  }
  return fixed;
}

}  // namespace

std::vector<double> AccuFusion::ClaimLogScores(
    const Database& db, ItemId item, const std::vector<double>& accuracies) {
  const Item& o = db.item(item);
  const double false_values = static_cast<double>(o.claims.size()) - 1.0;
  std::vector<double> scores(o.claims.size(), 0.0);
  for (ClaimIndex k = 0; k < o.claims.size(); ++k) {
    double score = 0.0;
    for (SourceId s : o.claims[k].sources) {
      const double a = ClampAccuracy(accuracies[s]);
      score += std::log(false_values * a / (1.0 - a));
    }
    scores[k] = score;
  }
  return scores;
}

std::vector<double> AccuFusion::ClaimProbabilities(
    const Database& db, ItemId item, const std::vector<double>& accuracies) {
  if (db.num_claims(item) == 1) return {1.0};
  return SoftmaxFromLogScores(ClaimLogScores(db, item, accuracies));
}

FusionResult AccuFusion::Fuse(const Database& db, const PriorSet& priors,
                              const FusionOptions& opts) const {
  return Fuse(db, priors, opts, nullptr);
}

// The alternation of Eq. (1) and Eq. (2) over the CSR view: all state lives
// in flat arrays indexed by global claim id / source id, and the per-source
// log-odds ln(A/(1-A)) is tabulated once per iteration so the claim-scoring
// loop does lookups instead of a std::log per (claim, source) pair. The
// per-item factor ln(|V_i|-1) folds in as voters * log_false_values(i).
FusionResult AccuFusion::Fuse(const Database& db, const PriorSet& priors,
                              const FusionOptions& opts,
                              const FusionResult* warm) const {
  VERITAS_SPAN("fuse.accu");
  static Counter* fuse_calls =
      MetricsRegistry::Global().GetCounter("fusion.accu.fuse_calls");
  static Counter* nonconverged =
      MetricsRegistry::Global().GetCounter("fusion.accu.nonconverged");
  static Histogram* iterations_hist = MetricsRegistry::Global().GetHistogram(
      "fusion.accu.iterations", MetricsRegistry::CountEdges());
  static Histogram* residual_hist = MetricsRegistry::Global().GetHistogram(
      "fusion.accu.residual",
      {1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  fuse_calls->Add(1);

  const CompiledDatabase c(db);
  std::vector<double> accuracies =
      WarmStartAccuracies(warm, c.num_sources(), opts.initial_accuracy);

  std::vector<double> probs(c.num_claims(), 0.0);
  const std::vector<char> fixed = MarkFixedItems(c, priors, &probs);

  const std::vector<SourceId>& claim_sources = c.claim_sources();
  std::vector<double> logit(c.num_sources(), 0.0);
  std::vector<double> scores;

  const auto update_probabilities = [&]() {
    for (SourceId j = 0; j < c.num_sources(); ++j) {
      const double a = ClampAccuracy(accuracies[j]);
      logit[j] = std::log(a / (1.0 - a));
    }
    for (ItemId i = 0; i < c.num_items(); ++i) {
      if (fixed[i]) continue;
      const std::uint32_t g = c.claim_offset(i);
      const std::size_t n = c.item_num_claims(i);
      const double lf = c.log_false_values(i);
      scores.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t begin = c.claim_sources_begin(g + k);
        const std::uint32_t end = c.claim_sources_end(g + k);
        double score = static_cast<double>(end - begin) * lf;
        for (std::uint32_t v = begin; v < end; ++v) {
          score += logit[claim_sources[v]];
        }
        scores[k] = score;
      }
      SoftmaxInto(scores.data(), n, probs.data() + g);
    }
  };

  const std::vector<std::uint32_t>& source_claims = c.source_vote_claims();
  bool converged = false;
  std::size_t iter = 0;
  double last_residual = 0.0;
  while (iter < opts.max_iterations) {
    // Hard stop: bail at the iteration boundary with converged=false. The
    // final probability pass below still runs, so the partial result is
    // internally consistent (P matches the current A).
    if (HardStopRequested(opts.cancel)) break;
    ++iter;
    update_probabilities();
    // Eq. (2): accuracy of a source is the mean probability of its claims.
    double max_delta = 0.0;
    for (SourceId j = 0; j < c.num_sources(); ++j) {
      const std::uint32_t begin = c.source_votes_begin(j);
      const std::uint32_t end = c.source_votes_end(j);
      if (begin == end) continue;
      double sum = 0.0;
      for (std::uint32_t v = begin; v < end; ++v) sum += probs[source_claims[v]];
      const double updated = ClampAccuracy(sum / static_cast<double>(end - begin));
      max_delta = std::max(max_delta, std::fabs(updated - accuracies[j]));
      accuracies[j] = updated;
    }
    last_residual = max_delta;
    if (max_delta < opts.tolerance) {
      converged = true;
      break;
    }
  }
  iterations_hist->Observe(static_cast<double>(iter));
  residual_hist->Observe(last_residual);
  if (!converged) nonconverged->Add(1);
  // Final probability pass so P is consistent with the final A.
  update_probabilities();

  FusionResult result(db, opts.initial_accuracy);
  for (ItemId i = 0; i < c.num_items(); ++i) {
    std::vector<double>* out = result.mutable_item_probs(i);
    const std::uint32_t g = c.claim_offset(i);
    for (std::size_t k = 0; k < out->size(); ++k) (*out)[k] = probs[g + k];
  }
  *result.mutable_accuracies() = std::move(accuracies);
  result.set_iterations(iter);
  result.set_converged(converged);
  return result;
}

}  // namespace veritas
