// Ablation: warm-started vs cold-started lookahead re-fusions in MEU.
//
// DESIGN.md calls out warm starting as an implementation choice on top of
// the paper (which does not specify the lookahead schedule). This ablation
// verifies the two executions pick (nearly always) the same actions while
// the warm start saves a large constant factor in fusion iterations.
#include <iostream>

#include "core/meu.h"
#include "data/synthetic.h"
#include "exp/report.h"
#include "exp/scale.h"
#include "fusion/accu.h"
#include "util/timer.h"

using namespace veritas;

int main() {
  const ScaleMode mode = GetScaleMode();
  DenseConfig config;
  config.num_items = mode == ScaleMode::kSmall ? 150 : 400;
  config.num_sources = 20;
  config.density = 0.4;
  config.accuracy_mean = 0.75;
  config.copier_fraction = 0.3;
  config.seed = 71;
  const SyntheticDataset data = GenerateDense(config);

  AccuFusion model;
  FusionOptions opts;
  PriorSet priors;
  const FusionResult fusion = model.Fuse(data.db, priors, opts);
  const CompiledDatabase compiled(data.db);

  PrintBanner(std::cout,
              "Ablation — MEU lookahead: warm-started vs cold-started "
              "re-fusion (" + std::to_string(data.db.num_items()) +
                  " items)");

  StrategyContext ctx;
  ctx.compiled = &compiled;
  ctx.fusion = &fusion;
  ctx.priors = &priors;
  ctx.model = &model;
  ctx.fusion_opts = &opts;

  MeuStrategy meu;
  const std::size_t picks = 5;

  ctx.warm_start_lookahead = true;
  Timer warm_timer;
  const auto warm_batch = meu.SelectBatch(ctx, picks);
  const double warm_seconds = warm_timer.ElapsedSeconds();

  ctx.warm_start_lookahead = false;
  Timer cold_timer;
  const auto cold_batch = meu.SelectBatch(ctx, picks);
  const double cold_seconds = cold_timer.ElapsedSeconds();

  std::size_t agreement = 0;
  for (std::size_t i = 0; i < picks; ++i) {
    if (i < warm_batch.size() && i < cold_batch.size() &&
        warm_batch[i] == cold_batch[i]) {
      ++agreement;
    }
  }

  TextTable table({"variant", "decision time", "top pick", "top-5 overlap"});
  table.AddRow({"warm start", Secs(warm_seconds),
                data.db.item(warm_batch.front()).name,
                std::to_string(agreement) + "/" + std::to_string(picks)});
  table.AddRow({"cold start", Secs(cold_seconds),
                data.db.item(cold_batch.front()).name, "-"});
  table.Print(std::cout);
  std::cout << "speedup: " << Num(cold_seconds / warm_seconds, 1)
            << "x; identical top pick: "
            << (warm_batch.front() == cold_batch.front() ? "yes" : "no")
            << "\n";
  return 0;
}
