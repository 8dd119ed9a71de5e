#include "fusion/fusion_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "util/math.h"

namespace veritas {

FusionResult FusionModel::Fuse(const Database& db, const PriorSet& priors,
                               const FusionOptions& opts,
                               const FusionResult* warm) const {
  return FuseCompiled(CompiledDatabase(db), priors, opts, warm);
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

FixedPointInstruments::FixedPointInstruments(const std::string& model) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::string prefix = "fusion.";
  prefix += model;
  fuse_calls = registry.GetCounter(prefix + ".fuse_calls");
  nonconverged = registry.GetCounter(prefix + ".nonconverged");
  iterations = registry.GetHistogram(prefix + ".iterations",
                                     MetricsRegistry::CountEdges());
  residual = registry.GetHistogram(
      prefix + ".residual",
      {1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
}

FixedPointDriver::FixedPointDriver(const FixedPointInstruments& instruments,
                                   const CompiledDatabase& c,
                                   const PriorSet& priors,
                                   const FusionOptions& opts,
                                   const FusionResult* warm)
    : instruments_(instruments),
      c_(c),
      opts_(opts),
      result_(c, opts.initial_accuracy),
      fixed_(c.num_items(), 0) {
  instruments_.fuse_calls->Add(1);
  if (warm != nullptr) accuracies_ = warm->accuracies();
  accuracies_.resize(c.num_sources(), opts.initial_accuracy);
  for (double& a : accuracies_) a = ClampAccuracy(a);
  const std::span<double> probs = result_.mutable_probs();
  for (ItemId i = 0; i < c.num_items(); ++i) {
    const std::uint32_t g = c.claim_offset(i);
    if (priors.Has(i)) {
      const std::vector<double>& p = priors.Get(i);
      assert(p.size() == c.item_num_claims(i));
      std::copy(p.begin(), p.end(), probs.begin() + g);
      fixed_[i] = 1;
    } else if (c.item_num_claims(i) == 1) {
      probs[g] = 1.0;
      fixed_[i] = 1;
    }
  }
}

FusionResult FixedPointDriver::Finish() {
  instruments_.iterations->Observe(
      static_cast<double>(result_.iterations()));
  instruments_.residual->Observe(residual_);
  if (!result_.converged()) instruments_.nonconverged->Add(1);
  *result_.mutable_accuracies() = std::move(accuracies_);
  return std::move(result_);
}

}  // namespace veritas
