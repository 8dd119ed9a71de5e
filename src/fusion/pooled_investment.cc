#include "fusion/pooled_investment.h"

#include <cmath>

#include "util/math.h"

namespace veritas {

FusionResult PooledInvestmentFusion::Fuse(const Database& db,
                                          const PriorSet& priors,
                                          const FusionOptions& opts) const {
  return Fuse(db, priors, opts, nullptr);
}

FusionResult PooledInvestmentFusion::Fuse(const Database& db,
                                          const PriorSet& priors,
                                          const FusionOptions& opts,
                                          const FusionResult* warm) const {
  FusionResult result(db, opts.initial_accuracy);
  std::vector<double> trust =
      WarmStartAccuracies(warm, db.num_sources(), opts.initial_accuracy);

  bool converged = false;
  std::size_t iter = 0;
  std::vector<double> returns;
  while (iter < opts.max_iterations) {
    // Hard stop: bail at the iteration boundary with converged=false.
    if (HardStopRequested(opts.cancel)) break;
    ++iter;
    // Claim pooled returns H(v) = sum_s trust(s)/N(s), grown by G, then
    // normalized per item into a distribution.
    for (ItemId i = 0; i < db.num_items(); ++i) {
      std::vector<double>* probs = result.mutable_item_probs(i);
      if (priors.Has(i)) {
        *probs = priors.Get(i);
        continue;
      }
      const Item& o = db.item(i);
      if (o.claims.size() == 1) {
        (*probs)[0] = 1.0;
        continue;
      }
      returns.assign(o.claims.size(), 0.0);
      for (ClaimIndex k = 0; k < o.claims.size(); ++k) {
        double h = 0.0;
        for (SourceId s : o.claims[k].sources) {
          h += trust[s] / static_cast<double>(db.source_degree(s));
        }
        returns[k] = std::pow(h, g_);
      }
      *probs = Normalize(returns);
    }
    // Trust update: mean probability of the source's claims.
    double max_delta = 0.0;
    for (SourceId j = 0; j < db.num_sources(); ++j) {
      const Source& s = db.source(j);
      if (s.votes.empty()) continue;
      double sum = 0.0;
      for (const Vote& v : s.votes) sum += result.prob(v.item, v.claim);
      const double updated =
          ClampAccuracy(sum / static_cast<double>(s.votes.size()));
      max_delta = std::max(max_delta, std::fabs(updated - trust[j]));
      trust[j] = updated;
    }
    if (max_delta < opts.tolerance) {
      converged = true;
      break;
    }
  }
  *result.mutable_accuracies() = std::move(trust);
  result.set_iterations(iter);
  result.set_converged(converged);
  return result;
}

}  // namespace veritas
