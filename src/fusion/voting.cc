#include "fusion/voting.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"

namespace veritas {

namespace {

// Eq. (5) into `shares`: the item's vote counts, normalized.
void WriteVoteShares(const CompiledDatabase& c, ItemId item,
                     std::span<double> shares) {
  const std::uint32_t g = c.claim_offset(item);
  for (ClaimIndex k = 0; k < shares.size(); ++k) {
    shares[k] = static_cast<double>(c.claim_sources_end(g + k) -
                                    c.claim_sources_begin(g + k));
  }
  NormalizeInPlace(shares);
}

}  // namespace

std::vector<double> VotingFusion::VoteShares(const CompiledDatabase& c,
                                             ItemId item) {
  std::vector<double> shares(c.item_num_claims(item));
  WriteVoteShares(c, item, shares);
  return shares;
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
  for (ItemId i = 0; i < c.num_items(); ++i) {
    const std::span<double> probs = result.mutable_item_probs(i);
    if (priors.Has(i)) {
      const std::vector<double>& prior = priors.Get(i);
      std::copy(prior.begin(), prior.end(), probs.begin());
    } else {
      WriteVoteShares(c, i, probs);
    }
  }
  // Clamped like the iterative models so downstream odds ratios stay
  // finite when a strategy consumes these accuracies.
  UpdateMeanVoteAccuracies(c, result.probs(), result.mutable_accuracies());
  result.set_iterations(1);
  // The single pass always completes; a hard stop is still reported, as the
  // iterative models report their partial runs.
  result.set_converged(!HardStopRequested(opts.cancel));
  return result;
}

}  // namespace veritas
