// The paper's running example (Table 1): four sources claim directors for
// six animation movies. This program replays the worked numbers of the
// paper: the fusion output (Table 3), the QBC/US entropies (Examples
// 4.1/4.2), the exact MEU expected utilities (Table 6) and the Approx-MEU
// expected utilities (Table 9).
//
//   $ ./build/examples/movie_directors
#include <cstdio>

#include "core/approx_meu.h"
#include "core/meu.h"
#include "core/qbc.h"
#include "core/strategy.h"
#include "core/us.h"
#include "data/example_data.h"
#include "fusion/accu.h"

using namespace veritas;

int main() {
  const Database db = MakeMovieDatabase();
  const GroundTruth truth = MakeMovieGroundTruth(db);

  AccuFusion model;
  FusionOptions opts;
  const FusionResult fused = model.Fuse(db, opts);

  std::printf("== Table 3: output of data fusion ==\n");
  for (ItemId i = 0; i < db.num_items(); ++i) {
    const Item& item = db.item(i);
    std::printf("O%-2u %-14s:", i + 1, item.name.c_str());
    for (ClaimIndex k = 0; k < item.claims.size(); ++k) {
      std::printf("  %s (%.3f)", item.claims[k].value.c_str(),
                  fused.prob(i, k));
    }
    std::printf("\n");
  }

  std::printf("\n== Examples 4.1/4.2: vote entropy (QBC) and fusion-output "
              "entropy (US) ==\n");
  const CompiledDatabase compiled(db);
  for (ItemId i = 0; i < db.num_items(); ++i) {
    std::printf("O%-2u %-14s: vote entropy %.3f   output entropy %.3f\n",
                i + 1, db.item(i).name.c_str(), VoteEntropy(compiled, i),
                fused.ItemEntropy(i));
  }

  const PriorSet no_priors;
  StrategyContext ctx;
  ctx.db = &db;
  ctx.compiled = &compiled;
  ctx.fusion = &fused;
  ctx.priors = &no_priors;
  ctx.model = &model;
  ctx.fusion_opts = &opts;
  ctx.ground_truth = &truth;
  ctx.include_singletons = true;  // The paper's example scores O4 too.

  std::printf("\n== Table 6: exact MEU expected utilities EU* ==\n");
  std::printf("(current total entropy EU = %.3f)\n", fused.TotalEntropy());
  for (ItemId i = 0; i < db.num_items(); ++i) {
    std::printf("O%-2u %-14s: EU* = %.3f\n", i + 1, db.item(i).name.c_str(),
                MeuStrategy::ExpectedEntropyAfterValidation(ctx, i));
  }

  std::printf("\n== Table 9: Approx-MEU expected utilities EU* ==\n");
  for (ItemId i = 0; i < db.num_items(); ++i) {
    std::printf("O%-2u %-14s: EU* = %.3f\n", i + 1, db.item(i).name.c_str(),
                ApproxMeuStrategy::ExpectedEntropyAfterValidation(
                    ctx, i, /*impact_filter=*/nullptr));
  }

  MeuStrategy meu;
  ApproxMeuStrategy approx;
  QbcStrategy qbc;
  UsStrategy us;
  std::printf("\n== next action per strategy ==\n");
  auto report = [&](const char* name, Strategy* s) {
    const ItemId pick = s->SelectNext(ctx);
    std::printf("%-11s would validate %s\n", name,
                pick == kInvalidItem ? "(none)" : db.item(pick).name.c_str());
  };
  report("QBC", &qbc);
  report("US", &us);
  report("MEU", &meu);
  report("Approx-MEU", &approx);
  return 0;
}
