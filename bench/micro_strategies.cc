// google-benchmark micro-benchmarks for the feedback strategies: cost of
// one next-action decision per strategy and of the Approx-MEU primitives.
#include <benchmark/benchmark.h>

#include "core/approx_meu.h"
#include "core/strategy_factory.h"
#include "data/synthetic.h"
#include "fusion/accu.h"

using namespace veritas;

namespace {

struct Fixture {
  explicit Fixture(std::size_t items) {
    DenseConfig config;
    config.num_items = items;
    config.num_sources = 38;
    config.density = 0.36;
    config.seed = 7;
    data = GenerateDense(config);
    compiled = std::make_unique<CompiledDatabase>(data.db);
    fusion = model.Fuse(data.db, opts);
    ctx.db = &data.db;
    ctx.compiled = compiled.get();
    ctx.fusion = &fusion;
    ctx.priors = &priors;
    ctx.model = &model;
    ctx.fusion_opts = &opts;
    ctx.ground_truth = &data.truth;
    ctx.rng = &rng;
  }

  SyntheticDataset data;
  AccuFusion model;
  FusionOptions opts;
  FusionResult fusion;
  PriorSet priors;
  std::unique_ptr<CompiledDatabase> compiled;
  Rng rng{3};
  StrategyContext ctx;
};

void BM_SelectNext(benchmark::State& state, const std::string& name,
                   std::size_t items) {
  Fixture fixture(items);
  auto strategy = MakeStrategy(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize((*strategy)->SelectNext(fixture.ctx));
  }
}
BENCHMARK_CAPTURE(BM_SelectNext, qbc_400, "qbc", 400);
BENCHMARK_CAPTURE(BM_SelectNext, us_400, "us", 400);
BENCHMARK_CAPTURE(BM_SelectNext, approx_meu_400, "approx_meu", 400);
BENCHMARK_CAPTURE(BM_SelectNext, approx_meu_k10_400, "approx_meu_k:10", 400);
BENCHMARK_CAPTURE(BM_SelectNext, meu_100, "meu", 100);
BENCHMARK_CAPTURE(BM_SelectNext, gub_100, "gub", 100);

void BM_AccuracyDeltas(benchmark::State& state) {
  Fixture fixture(1000);
  const ItemId item = fixture.data.db.ConflictingItems().front();
  AccuracyDeltas deltas;
  for (auto _ : state) {
    ComputeAccuracyDeltas(*fixture.compiled, fixture.fusion, item, 0,
                          &deltas);
    benchmark::DoNotOptimize(deltas.delta.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AccuracyDeltas);

void BM_EstimateUpdatedProbs(benchmark::State& state) {
  Fixture fixture(1000);
  const auto conflicting = fixture.data.db.ConflictingItems();
  const ItemId item = conflicting.front();
  AccuracyDeltas deltas;
  ComputeAccuracyDeltas(*fixture.compiled, fixture.fusion, item, 0, &deltas);
  const ItemId neighbor = conflicting.back();
  std::vector<double> updated;
  for (auto _ : state) {
    EstimateUpdatedProbs(*fixture.compiled, fixture.fusion, neighbor, deltas,
                         &updated);
    benchmark::DoNotOptimize(updated.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EstimateUpdatedProbs);

}  // namespace

BENCHMARK_MAIN();
