#include "fusion/lca.h"

#include <cmath>

#include "util/math.h"

namespace veritas {

FusionResult SimpleLcaFusion::Fuse(const Database& db, const PriorSet& priors,
                                   const FusionOptions& opts) const {
  return Fuse(db, priors, opts, nullptr);
}

FusionResult SimpleLcaFusion::Fuse(const Database& db, const PriorSet& priors,
                                   const FusionOptions& opts,
                                   const FusionResult* warm) const {
  FusionResult result(db, opts.initial_accuracy);
  std::vector<double> honesty =
      WarmStartAccuracies(warm, db.num_sources(), opts.initial_accuracy);

  bool converged = false;
  std::size_t iter = 0;
  std::vector<double> scores;
  while (iter < opts.max_iterations) {
    // Hard stop: bail at the iteration boundary with converged=false; the
    // posteriors from the completed E-steps stay internally consistent.
    if (HardStopRequested(opts.cancel)) break;
    ++iter;
    // E-step: claim posteriors from source honesty.
    for (ItemId i = 0; i < db.num_items(); ++i) {
      std::vector<double>* probs = result.mutable_item_probs(i);
      if (priors.Has(i)) {
        *probs = priors.Get(i);
        continue;
      }
      const Item& item = db.item(i);
      if (item.claims.size() == 1) {
        (*probs)[0] = 1.0;
        continue;
      }
      const double false_values =
          static_cast<double>(item.claims.size()) - 1.0;
      scores.assign(item.claims.size(), 0.0);
      for (ClaimIndex k = 0; k < item.claims.size(); ++k) {
        double score = 0.0;
        for (SourceId s : item.claims[k].sources) {
          const double h = ClampAccuracy(honesty[s]);
          // A vote for v (vs. the source's counterfactual dishonest vote
          // spread over the other claims).
          score += std::log(h) - std::log((1.0 - h) / false_values);
        }
        scores[k] = score;
      }
      *probs = SoftmaxFromLogScores(scores);
    }
    // M-step: smoothed honesty.
    double max_delta = 0.0;
    for (SourceId j = 0; j < db.num_sources(); ++j) {
      const Source& s = db.source(j);
      if (s.votes.empty()) continue;
      double sum = 0.0;
      for (const Vote& v : s.votes) sum += result.prob(v.item, v.claim);
      const double updated = ClampAccuracy(
          (sum + smoothing_ * opts.initial_accuracy) /
          (static_cast<double>(s.votes.size()) + smoothing_));
      max_delta = std::max(max_delta, std::fabs(updated - honesty[j]));
      honesty[j] = updated;
    }
    if (max_delta < opts.tolerance) {
      converged = true;
      break;
    }
  }
  *result.mutable_accuracies() = std::move(honesty);
  result.set_iterations(iter);
  result.set_converged(converged);
  return result;
}

}  // namespace veritas
