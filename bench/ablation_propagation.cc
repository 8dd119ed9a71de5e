// Ablation: accuracy of Approx-MEU's differential estimate (Eq. 10) and
// empirical check of Theorem 4.1's hop-distance decay.
//
// For a sample of hypothesized validations we compare the estimated
// post-validation probabilities against the *true* ones obtained by
// actually re-running fusion, split by hop distance from the validated
// item (0 = validated, 1 = shares a source, 2 = further away). The paper
// predicts the change (and hence the estimation error) decays sharply with
// hop distance — this justifies the one-hop truncation.
#include <cmath>
#include <iostream>
#include <vector>

#include "core/approx_meu.h"
#include "data/synthetic.h"
#include "exp/report.h"
#include "exp/scale.h"
#include "fusion/accu.h"
#include "util/stats.h"

using namespace veritas;

namespace {

void RunPanel(const std::string& name, const SyntheticDataset& data) {
  AccuFusion model;
  FusionOptions opts;
  const FusionResult fusion = model.Fuse(data.db, opts);
  const CompiledDatabase compiled(data.db);

  // Hop-distance marker reused across samples.
  std::vector<int> hop(data.db.num_items(), 2);
  AccuracyDeltas deltas;
  std::vector<double> estimated;

  RunningStats true_change_hop1, true_change_hop2;
  RunningStats est_error_hop1, est_error_hop2;
  RunningStats validated_change;

  const auto conflicting = data.db.ConflictingItems();
  const std::size_t step = std::max<std::size_t>(1, conflicting.size() / 25);
  for (std::size_t c = 0; c < conflicting.size(); c += step) {
    const ItemId validated = conflicting[c];
    // Flip hypothesis: assume the runner-up claim true (the informative
    // branch).
    const ClaimIndex t = fusion.WinningClaim(validated) == 0 ? 1 : 0;
    validated_change.Add(1.0 - fusion.prob(validated, t));

    std::fill(hop.begin(), hop.end(), 2);
    compiled.ForEachItemVote(validated, [&](SourceId s, ClaimIndex) {
      compiled.ForEachSourceVote(s, [&](ItemId j, std::uint32_t) {
        hop[j] = 1;
      });
    });
    hop[validated] = 0;

    // True post-validation probabilities by re-fusing.
    PriorSet pinned;
    pinned.SetExact(data.db, validated, t);
    const FusionResult refused = model.Fuse(data.db, pinned, opts, &fusion);
    // Estimated ones by the differential formula.
    ComputeAccuracyDeltas(compiled, fusion, validated, t, &deltas);

    for (ItemId j = 0; j < data.db.num_items(); ++j) {
      if (j == validated || data.db.num_claims(j) < 2) continue;
      EstimateUpdatedProbs(compiled, fusion, j, deltas, &estimated);
      for (ClaimIndex k = 0; k < data.db.num_claims(j); ++k) {
        const double truth_move =
            std::fabs(refused.prob(j, k) - fusion.prob(j, k));
        const double est_error =
            std::fabs(estimated[k] - refused.prob(j, k));
        if (hop[j] == 1) {
          true_change_hop1.Add(truth_move);
          est_error_hop1.Add(est_error);
        } else {
          true_change_hop2.Add(truth_move);
          est_error_hop2.Add(est_error);
        }
      }
    }
  }

  PrintBanner(std::cout, "Ablation — differential-estimate accuracy (" +
                             name + ")");
  TextTable table({"quantity", "mean", "max"});
  table.AddRow({"|dp| of validated item", Num(validated_change.mean(), 4),
                Num(validated_change.max(), 4)});
  table.AddRow({"true |dp| at hop 1", Num(true_change_hop1.mean(), 5),
                Num(true_change_hop1.max(), 4)});
  table.AddRow({"true |dp| at hop 2+", Num(true_change_hop2.mean(), 5),
                Num(true_change_hop2.max(), 4)});
  table.AddRow({"estimate error at hop 1", Num(est_error_hop1.mean(), 5),
                Num(est_error_hop1.max(), 4)});
  table.AddRow({"estimate error at hop 2+", Num(est_error_hop2.mean(), 5),
                Num(est_error_hop2.max(), 4)});
  table.Print(std::cout);
  if (true_change_hop2.count() > 0 && true_change_hop2.mean() > 0.0) {
    std::cout << "hop-1 : hop-2+ mean-change ratio = "
              << Num(true_change_hop1.mean() /
                         std::max(true_change_hop2.mean(), 1e-12),
                     1)
              << "x  (Theorem 4.1 predicts a sharp decay)\n";
  } else {
    std::cout << "no hop-2+ items moved at all (decay is total)\n";
  }
}

}  // namespace

int main() {
  const ScaleMode mode = GetScaleMode();
  {
    DenseConfig config;
    config.num_items = mode == ScaleMode::kSmall ? 300 : 1000;
    config.num_sources = 38;
    config.density = 0.36;
    config.accuracy_mean = 0.75;
    config.copier_fraction = 0.5;
    config.seed = 81;
    RunPanel("dense", GenerateDense(config));
  }
  {
    LongTailConfig config;
    config.num_items = mode == ScaleMode::kSmall ? 300 : 1000;
    config.num_sources = mode == ScaleMode::kSmall ? 210 : 700;
    config.avg_votes_per_item = 19.0;
    config.accuracy_mean = 0.7;
    config.accuracy_sd = 0.15;
    config.copier_fraction = 0.3;
    config.seed = 82;
    RunPanel("long-tail", GenerateLongTail(config));
  }
  return 0;
}
