#include "fusion/fusion_model.h"

#include "util/math.h"

namespace veritas {

FusionResult FusionModel::Fuse(const Database& db, const PriorSet& priors,
                               const FusionOptions& opts,
                               const FusionResult* /*warm*/) const {
  return Fuse(db, priors, opts);
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

}  // namespace veritas
