#include "fusion/accu_copy.h"

#include <algorithm>
#include <cmath>

#include "fusion/accu.h"
#include "util/math.h"

namespace veritas {

namespace {

constexpr double kMinPosterior = 1e-6;

// Accuracies are capped inside the dependence likelihoods: with estimated
// accuracies near 1 the "shared true value" likelihood ratio degenerates to
// exactly 1 and total agreement stops being evidence of anything. Dong et
// al. bound the accuracy used for dependence detection for the same reason.
constexpr double kDepMinAccuracy = 0.2;
constexpr double kDepMaxAccuracy = 0.9;

// Evidence counts of one source pair over their overlapping items.
struct PairEvidence {
  std::size_t same_true = 0;   // Same value, currently believed true.
  std::size_t same_false = 0;  // Same value, currently believed false.
  std::size_t different = 0;   // Different values on the same item.
  double mean_false_count = 1.0;  // Average #false values of overlap items.
};

// Posterior probability that the pair is dependent, given evidence and the
// two accuracies (Bayes with the Dong et al. likelihoods, computed in log
// space). `c` is the copy rate, `alpha` the prior.
double DependencePosterior(const PairEvidence& ev, double a1, double a2,
                           double c, double alpha) {
  const double n = std::max(ev.mean_false_count, 1.0);
  const double p_same_true_ind = Clamp(a1 * a2, 1e-12, 1.0);
  const double p_same_false_ind =
      Clamp((1.0 - a1) * (1.0 - a2) / n, 1e-12, 1.0);
  const double p_diff_ind = Clamp(1.0 - p_same_true_ind - p_same_false_ind,
                                  1e-12, 1.0);
  const double p_same_true_dep =
      Clamp(c * a2 + (1.0 - c) * p_same_true_ind, 1e-12, 1.0);
  const double p_same_false_dep =
      Clamp(c * (1.0 - a2) + (1.0 - c) * p_same_false_ind, 1e-12, 1.0);
  const double p_diff_dep = Clamp((1.0 - c) * p_diff_ind, 1e-12, 1.0);

  const double log_ind = static_cast<double>(ev.same_true) *
                             std::log(p_same_true_ind) +
                         static_cast<double>(ev.same_false) *
                             std::log(p_same_false_ind) +
                         static_cast<double>(ev.different) *
                             std::log(p_diff_ind);
  const double log_dep = static_cast<double>(ev.same_true) *
                             std::log(p_same_true_dep) +
                         static_cast<double>(ev.same_false) *
                             std::log(p_same_false_dep) +
                         static_cast<double>(ev.different) *
                             std::log(p_diff_dep);
  // posterior = alpha e^{log_dep} / (alpha e^{log_dep} + (1-alpha) e^{log_ind})
  const double log_num = std::log(alpha) + log_dep;
  const double log_den = LogSumExp({log_num, std::log(1.0 - alpha) + log_ind});
  return Clamp(std::exp(log_num - log_den), kMinPosterior,
               1.0 - kMinPosterior);
}

// Collects evidence for the pair (a, b) by merging their vote lists (sorted
// by item). "True" is whatever the current fusion believes (winner claim).
PairEvidence CollectEvidence(const CompiledDatabase& c,
                             const FusionResult& fusion, SourceId a,
                             SourceId b) {
  PairEvidence ev;
  const std::vector<ItemId>& items = c.source_vote_items();
  const std::vector<std::uint32_t>& claims = c.source_vote_claims();
  std::uint32_t i = c.source_votes_begin(a);
  std::uint32_t j = c.source_votes_begin(b);
  const std::uint32_t end_a = c.source_votes_end(a);
  const std::uint32_t end_b = c.source_votes_end(b);
  double false_count_sum = 0.0;
  std::size_t overlap = 0;
  while (i < end_a && j < end_b) {
    if (items[i] < items[j]) {
      ++i;
    } else if (items[j] < items[i]) {
      ++j;
    } else {
      const ItemId item = items[i];
      ++overlap;
      false_count_sum += static_cast<double>(
          std::max<std::size_t>(c.item_num_claims(item), 2) - 1);
      // Global claim ids of one item are equal iff the local ones are.
      if (claims[i] == claims[j]) {
        if (claims[i] - c.claim_offset(item) == fusion.WinningClaim(item)) {
          ++ev.same_true;
        } else {
          ++ev.same_false;
        }
      } else {
        ++ev.different;
      }
      ++i;
      ++j;
    }
  }
  if (overlap > 0) {
    ev.mean_false_count = false_count_sum / static_cast<double>(overlap);
  }
  return ev;
}

}  // namespace

double AccuCopyFusion::DependenceProbability(SourceId a, SourceId b) const {
  std::lock_guard<std::mutex> lock(diag_mutex_);
  if (a == b || a >= last_num_sources_ || b >= last_num_sources_) return 0.0;
  return dependence_[static_cast<std::size_t>(a) * last_num_sources_ + b];
}

FusionResult AccuCopyFusion::FuseCompiled(const CompiledDatabase& c,
                                          const PriorSet& priors,
                                          const FusionOptions& opts,
                                          const FusionResult* warm) const {
  const std::size_t n_sources = c.num_sources();
  // Per-call dependence matrix: Fuse must not touch shared members while
  // running (MEU scores candidates with concurrent lookahead Fuse calls).
  // The result is published to the diagnostics members once, at the end.
  std::vector<double> dependence(n_sources * n_sources, 0.0);

  // Bootstrap from a *single* AccuNoDep iteration, not a converged run:
  // dependence evidence must be collected before the truth estimate
  // polarizes, otherwise a clique that owns an item's majority gets its
  // shared lies labelled "true" and escapes detection (and, worse, honest
  // minority pairs get flagged). At this stage the dominant, non-circular
  // signal is the pair's raw agreement rate: copiers never disagree on
  // shared items, independent sources do.
  AccuFusion base;
  FusionOptions bootstrap = opts;
  bootstrap.max_iterations = 1;
  FusionResult result = base.Fuse(c, priors, bootstrap, warm);

  std::vector<double> accuracies = result.accuracies();
  const std::span<double> probs = result.mutable_probs();
  const std::vector<char> fixed = MarkFixedItems(c, priors, probs);
  const std::vector<SourceId>& claim_sources = c.claim_sources();
  std::vector<double> independence_weight;  // Scratch per claim scoring.

  // Hard stop (see FusionOptions::cancel): the O(sources²) dependence scan
  // and the inner EM loop both poll at their boundaries and bail with
  // converged=false; the bootstrap result above keeps the output well
  // formed. Graceful stops never interrupt a fusion in flight.
  bool stopped = false;
  for (std::size_t round = 0;
       round < copy_options_.dependence_rounds && !stopped; ++round) {
    // 1. Re-estimate pairwise dependence under the current beliefs.
    for (SourceId a = 0; a < n_sources && !stopped; ++a) {
      if (HardStopRequested(opts.cancel)) {
        stopped = true;
        break;
      }
      for (SourceId b = a + 1; b < n_sources; ++b) {
        const PairEvidence ev = CollectEvidence(c, result, a, b);
        const std::size_t overlap = ev.same_true + ev.same_false +
                                    ev.different;
        double posterior = 0.0;
        if (overlap >= copy_options_.min_overlap) {
          // Direction-symmetric evidence: take the max of "a copies b" and
          // "b copies a" (discounting only needs undirected dependence).
          const double cap_a =
              Clamp(accuracies[a], kDepMinAccuracy, kDepMaxAccuracy);
          const double cap_b =
              Clamp(accuracies[b], kDepMinAccuracy, kDepMaxAccuracy);
          const double ab = DependencePosterior(
              ev, cap_a, cap_b, copy_options_.copy_rate,
              copy_options_.prior_copy_probability);
          const double ba = DependencePosterior(
              ev, cap_b, cap_a, copy_options_.copy_rate,
              copy_options_.prior_copy_probability);
          posterior = std::max(ab, ba);
        }
        dependence[static_cast<std::size_t>(a) * n_sources + b] = posterior;
        dependence[static_cast<std::size_t>(b) * n_sources + a] = posterior;
      }
    }

    // 2. Re-solve truth discovery under the refined dependence model,
    //    starting from fresh accuracies: carrying accuracies polarized by a
    //    previous round's (possibly clique-dominated) solution would anchor
    //    the very errors the discounting is meant to undo.
    if (stopped) break;
    std::fill(accuracies.begin(), accuracies.end(), opts.initial_accuracy);
    bool converged = false;
    std::size_t iter = 0;
    while (iter < opts.max_iterations) {
      if (HardStopRequested(opts.cancel)) {
        stopped = true;
        break;
      }
      ++iter;
      for (ItemId i = 0; i < c.num_items(); ++i) {
        if (fixed[i]) continue;
        const std::uint32_t g = c.claim_offset(i);
        const std::size_t n = c.item_num_claims(i);
        const double false_values = static_cast<double>(n) - 1.0;
        std::vector<double> scores(n, 0.0);
        std::vector<SourceId> ordered;
        for (std::size_t k = 0; k < n; ++k) {
          // Ordered discounting (Dong et al.): count the most accurate
          // voter in full, then discount each further voter by its
          // dependence on the voters already counted — so a clique of
          // copiers contributes barely more than its best member.
          ordered.assign(claim_sources.begin() + c.claim_sources_begin(g + k),
                         claim_sources.begin() + c.claim_sources_end(g + k));
          std::sort(ordered.begin(), ordered.end(),
                    [&](SourceId x, SourceId y) {
                      if (accuracies[x] != accuracies[y]) {
                        return accuracies[x] > accuracies[y];
                      }
                      return x < y;
                    });
          independence_weight.assign(ordered.size(), 1.0);
          for (std::size_t x = 1; x < ordered.size(); ++x) {
            for (std::size_t y = 0; y < x; ++y) {
              const double dep =
                  dependence[static_cast<std::size_t>(ordered[x]) *
                                 n_sources +
                             ordered[y]];
              independence_weight[x] *=
                  1.0 - copy_options_.copy_rate * dep;
            }
          }
          double score = 0.0;
          for (std::size_t x = 0; x < ordered.size(); ++x) {
            const double a = ClampAccuracy(accuracies[ordered[x]]);
            score += independence_weight[x] *
                     std::log(false_values * a / (1.0 - a));
          }
          scores[k] = score;
        }
        const std::vector<double> posterior = SoftmaxFromLogScores(scores);
        std::copy(posterior.begin(), posterior.end(), probs.begin() + g);
      }
      // Accuracy update (Eq. 2).
      const double max_delta = UpdateMeanVoteAccuracies(c, probs, &accuracies);
      if (max_delta < opts.tolerance) {
        converged = true;
        break;
      }
    }
    result.set_iterations(iter);
    result.set_converged(converged && !stopped);
  }
  if (stopped) result.set_converged(false);
  *result.mutable_accuracies() = std::move(accuracies);
  {
    std::lock_guard<std::mutex> lock(diag_mutex_);
    last_num_sources_ = n_sources;
    dependence_ = std::move(dependence);
  }
  return result;
}

}  // namespace veritas
