#include "fusion/truthfinder.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"

namespace veritas {

// Trust/confidence alternation over the CSR view. The per-source score
// tau(s) = -ln(1 - t(s)) is tabulated once per iteration, so the claim
// confidence loop is additions over flat arrays.
FusionResult TruthFinderFusion::FuseCompiled(const CompiledDatabase& c,
                                             const PriorSet& priors,
                                             const FusionOptions& opts,
                                             const FusionResult* warm) const {
  VERITAS_SPAN("fuse.truthfinder");
  static Counter* fuse_calls =
      MetricsRegistry::Global().GetCounter("fusion.truthfinder.fuse_calls");
  static Counter* nonconverged =
      MetricsRegistry::Global().GetCounter("fusion.truthfinder.nonconverged");
  static Histogram* iterations_hist = MetricsRegistry::Global().GetHistogram(
      "fusion.truthfinder.iterations", MetricsRegistry::CountEdges());
  static Histogram* residual_hist = MetricsRegistry::Global().GetHistogram(
      "fusion.truthfinder.residual",
      {1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  fuse_calls->Add(1);

  FusionResult result(c, opts.initial_accuracy);
  std::vector<double> trust =
      WarmStartAccuracies(warm, c.num_sources(), opts.initial_accuracy);

  const std::span<double> probs = result.mutable_probs();
  const std::vector<char> fixed = MarkFixedItems(c, priors, probs);

  const std::vector<SourceId>& claim_sources = c.claim_sources();
  std::vector<double> tau(c.num_sources(), 0.0);

  bool converged = false;
  std::size_t iter = 0;
  double last_residual = 0.0;
  while (iter < opts.max_iterations) {
    // Hard stop: bail at the iteration boundary with converged=false.
    if (HardStopRequested(opts.cancel)) break;
    ++iter;
    // Claim confidences -> per-item distributions.
    for (SourceId j = 0; j < c.num_sources(); ++j) {
      tau[j] = -std::log(1.0 - ClampAccuracy(trust[j]));
    }
    for (ItemId i = 0; i < c.num_items(); ++i) {
      if (fixed[i]) continue;
      const std::uint32_t g = c.claim_offset(i);
      const std::size_t n = c.item_num_claims(i);
      double total = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        double sigma = 0.0;
        const std::uint32_t begin = c.claim_sources_begin(g + k);
        const std::uint32_t end = c.claim_sources_end(g + k);
        for (std::uint32_t v = begin; v < end; ++v) {
          sigma += tau[claim_sources[v]];
        }
        const double conf = 1.0 / (1.0 + std::exp(-gamma_ * sigma));
        probs[g + k] = conf;
        total += conf;
      }
      for (std::size_t k = 0; k < n; ++k) probs[g + k] /= total;
    }
    // Trust update.
    const double max_delta = UpdateMeanVoteAccuracies(c, probs, &trust);
    last_residual = max_delta;
    if (max_delta < opts.tolerance) {
      converged = true;
      break;
    }
  }
  iterations_hist->Observe(static_cast<double>(iter));
  residual_hist->Observe(last_residual);
  if (!converged) nonconverged->Add(1);

  *result.mutable_accuracies() = std::move(trust);
  result.set_iterations(iter);
  result.set_converged(converged);
  return result;
}

}  // namespace veritas
