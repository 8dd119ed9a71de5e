#include "fusion/fusion_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/math.h"

namespace veritas {

FusionResult FusionModel::Fuse(const Database& db, const PriorSet& priors,
                               const FusionOptions& opts,
                               const FusionResult* warm) const {
  return FuseCompiled(CompiledDatabase(db), priors, opts, warm);
}

std::vector<double> WarmStartAccuracies(const FusionResult* warm,
                                        std::size_t num_sources,
                                        double initial_accuracy) {
  std::vector<double> accuracies;
  if (warm != nullptr) accuracies = warm->accuracies();
  accuracies.resize(num_sources, initial_accuracy);
  for (double& a : accuracies) a = ClampAccuracy(a);
  return accuracies;
}

std::vector<char> MarkFixedItems(const CompiledDatabase& c,
                                 const PriorSet& priors,
                                 std::span<double> probs) {
  std::vector<char> fixed(c.num_items(), 0);
  for (ItemId i = 0; i < c.num_items(); ++i) {
    const std::uint32_t g = c.claim_offset(i);
    if (priors.Has(i)) {
      const std::vector<double>& p = priors.Get(i);
      assert(p.size() == c.item_num_claims(i));
      std::copy(p.begin(), p.end(), probs.begin() + g);
      fixed[i] = 1;
    } else if (c.item_num_claims(i) == 1) {
      probs[g] = 1.0;
      fixed[i] = 1;
    }
  }
  return fixed;
}

double UpdateMeanVoteAccuracies(const CompiledDatabase& c,
                                std::span<const double> probs,
                                std::vector<double>* accuracies) {
  const std::vector<std::uint32_t>& source_claims = c.source_vote_claims();
  double max_delta = 0.0;
  for (SourceId j = 0; j < c.num_sources(); ++j) {
    const std::uint32_t begin = c.source_votes_begin(j);
    const std::uint32_t end = c.source_votes_end(j);
    if (begin == end) continue;
    double sum = 0.0;
    for (std::uint32_t v = begin; v < end; ++v) sum += probs[source_claims[v]];
    const double updated =
        ClampAccuracy(sum / static_cast<double>(end - begin));
    max_delta = std::max(max_delta, std::fabs(updated - (*accuracies)[j]));
    (*accuracies)[j] = updated;
  }
  return max_delta;
}

}  // namespace veritas
