#include "fusion/voting.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"

namespace veritas {

std::vector<double> VotingFusion::VoteShares(const CompiledDatabase& c,
                                             ItemId item) {
  const std::uint32_t g = c.claim_offset(item);
  std::vector<double> counts(c.item_num_claims(item), 0.0);
  for (ClaimIndex k = 0; k < counts.size(); ++k) {
    counts[k] = static_cast<double>(c.claim_sources_end(g + k) -
                                    c.claim_sources_begin(g + k));
  }
  return Normalize(counts);
}

FusionResult VotingFusion::FuseCompiled(const CompiledDatabase& c,
                                        const PriorSet& priors,
                                        const FusionOptions& opts,
                                        const FusionResult* /*warm*/) const {
  VERITAS_SPAN("fuse.voting");
  static Counter* fuse_calls =
      MetricsRegistry::Global().GetCounter("fusion.voting.fuse_calls");
  fuse_calls->Add(1);
  FusionResult result(c, opts.initial_accuracy);
  bool cancelled = false;
  for (ItemId i = 0; i < c.num_items(); ++i) {
    // Single-pass model, so the hard-stop poll sits in the item loop
    // (every 256 items — one relaxed load, invisible next to the
    // per-item allocations).
    if ((i & 0xFFu) == 0 && HardStopRequested(opts.cancel)) {
      cancelled = true;
      break;
    }
    const std::vector<double> probs =
        priors.Has(i) ? priors.Get(i) : VoteShares(c, i);
    std::copy(probs.begin(), probs.end(), result.mutable_item_probs(i).begin());
  }
  // Clamped like the iterative models so downstream odds ratios stay
  // finite when a strategy consumes these accuracies.
  UpdateMeanVoteAccuracies(c, result.probs(), result.mutable_accuracies());
  result.set_iterations(1);
  result.set_converged(!cancelled);
  return result;
}

}  // namespace veritas
