// Extending Veritas with your own fusion model.
//
// The feedback framework treats fusion as a black box (paper §3): anything
// implementing FusionModel can be driven by every strategy. This example
// implements a trivial "trusted sources" model — fixed per-source trust
// weights, claims scored by the sum of their supporters' trust — and runs
// a guided feedback session over it.
//
//   $ ./build/examples/custom_fusion
#include <algorithm>
#include <cstdio>

#include "core/oracle.h"
#include "core/session.h"
#include "core/us.h"
#include "data/synthetic.h"
#include "fusion/fusion_model.h"
#include "util/math.h"

using namespace veritas;

namespace {

// A fusion model with *static* trust: sources listed in `trusted` count
// double. Claim probability = normalized trust mass of its supporters.
// Pinned items keep their prior, like every Veritas fusion model.
class TrustedSourcesFusion : public FusionModel {
 public:
  explicit TrustedSourcesFusion(std::vector<SourceId> trusted)
      : trusted_(std::move(trusted)) {}

  std::string name() const override { return "trusted_sources"; }

 protected:
  // The one method a model implements: fusion over the compiled (CSR) view
  // of the database. The result is laid out by the view's global claim ids.
  FusionResult FuseCompiled(const CompiledDatabase& c, const PriorSet& priors,
                            const FusionOptions& opts,
                            const FusionResult* /*warm*/) const override {
    FusionResult result(c, opts.initial_accuracy);
    for (ItemId i = 0; i < c.num_items(); ++i) {
      const std::span<double> probs = result.mutable_item_probs(i);
      if (priors.Has(i)) {
        const std::vector<double>& prior = priors.Get(i);
        std::copy(prior.begin(), prior.end(), probs.begin());
        continue;
      }
      // Trust mass straight into the item's distribution (the result
      // starts at zero), normalized in place: no per-item vector.
      c.ForEachItemVote(i, [&](SourceId source, ClaimIndex claim) {
        probs[claim] += IsTrusted(source) ? 2.0 : 1.0;
      });
      NormalizeInPlace(probs);
    }
    result.set_iterations(1);
    result.set_converged(true);
    return result;
  }

 private:
  bool IsTrusted(SourceId source) const {
    for (SourceId t : trusted_) {
      if (t == source) return true;
    }
    return false;
  }

  std::vector<SourceId> trusted_;
};

}  // namespace

int main() {
  DenseConfig config;
  config.num_items = 120;
  config.num_sources = 12;
  config.density = 0.5;
  config.seed = 314;
  const SyntheticDataset data = GenerateDense(config);

  // Trust the three sources with the highest generated accuracy (in a real
  // deployment this would come from domain knowledge).
  std::vector<SourceId> trusted;
  for (int round = 0; round < 3; ++round) {
    SourceId best = kInvalidSource;
    for (SourceId j = 0; j < data.db.num_sources(); ++j) {
      const bool taken =
          std::find(trusted.begin(), trusted.end(), j) != trusted.end();
      if (taken) continue;
      if (best == kInvalidSource ||
          data.true_accuracies[j] > data.true_accuracies[best]) {
        best = j;
      }
    }
    trusted.push_back(best);
  }
  TrustedSourcesFusion model(trusted);

  std::printf("custom fusion model '%s' with %zu trusted sources\n",
              model.name().c_str(), trusted.size());

  UsStrategy strategy;  // Any strategy works against any FusionModel.
  PerfectOracle oracle;
  SessionOptions options;
  options.max_validations = 15;
  FeedbackSession session(data.db, model, &strategy, &oracle, data.truth,
                          options, /*rng=*/nullptr);
  const auto trace = session.Run();
  if (!trace.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }
  std::printf("initial distance %.4f\n", trace->initial_distance);
  for (std::size_t s = 0; s < trace->steps.size(); s += 5) {
    std::printf("after %2zu validations: distance %.4f (%+.1f%%)\n",
                trace->steps[s].num_validated, trace->steps[s].distance,
                trace->DistanceReductionPercent(s));
  }
  std::printf("after %2zu validations: distance %.4f (%+.1f%%)\n",
              trace->steps.back().num_validated, trace->steps.back().distance,
              trace->DistanceReductionPercent(trace->steps.size() - 1));
  return 0;
}
