// google-benchmark micro-benchmarks for the fusion substrate: iteration
// cost of each model, warm-start benefit, the incremental (delta) MEU
// lookahead, and Eq. (1) primitives.
//
// `--json <path>` skips the google-benchmark run and instead writes the
// machine-readable fusion baseline (full vs warm ns/op, MEU entropy-pin
// latency, dataset sizes) via exp/bench_json.h.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "data/synthetic.h"
#include "exp/bench_json.h"
#include "fusion/accu.h"
#include "fusion/delta_fusion.h"
#include "fusion/fusion_factory.h"
#include "util/timer.h"

using namespace veritas;

namespace {

SyntheticDataset MakeDataset(std::size_t items) {
  DenseConfig config;
  config.num_items = items;
  config.num_sources = 38;
  config.density = 0.36;
  config.seed = 99;
  return GenerateDense(config);
}

void BM_AccuFuse(benchmark::State& state) {
  const SyntheticDataset data = MakeDataset(state.range(0));
  AccuFusion model;
  FusionOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Fuse(data.db, opts));
  }
  state.SetItemsProcessed(state.iterations() * data.db.num_items());
}
BENCHMARK(BM_AccuFuse)->Arg(200)->Arg(1000)->Arg(4000);

void BM_AccuFuseWarmStart(benchmark::State& state) {
  const SyntheticDataset data = MakeDataset(state.range(0));
  AccuFusion model;
  FusionOptions opts;
  const FusionResult warm = model.Fuse(data.db, opts);
  PriorSet priors;
  priors.SetExact(data.db, data.db.ConflictingItems().front(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Fuse(data.db, priors, opts, &warm));
  }
  state.SetItemsProcessed(state.iterations() * data.db.num_items());
}
BENCHMARK(BM_AccuFuseWarmStart)->Arg(200)->Arg(1000)->Arg(4000);

// AccuCopy: dependence rounds around an ordered-discount EM, whose claim
// step visits every claim's voters best source first.
void BM_AccuCopyFuse(benchmark::State& state) {
  const SyntheticDataset data = MakeDataset(state.range(0));
  auto model = MakeFusionModel("accu_copy");
  FusionOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*model)->Fuse(data.db, opts));
  }
  state.SetItemsProcessed(state.iterations() * data.db.num_items());
}
BENCHMARK(BM_AccuCopyFuse)->Arg(200)->Arg(1000);

// The MEU inner loop: expected entropy of one hypothetical pin, computed
// from a shared base state with O(frontier) scratch.
void BM_MeuEntropyAfterPin(benchmark::State& state) {
  const SyntheticDataset data = MakeDataset(state.range(0));
  AccuFusion model;
  FusionOptions opts;
  const FusionResult warm = model.Fuse(data.db, opts);
  const CompiledDatabase compiled(data.db);
  const auto engine = DeltaFusionEngine::Create(compiled, model, opts);
  const DeltaFusionEngine::BaseState base = engine->PrepareBase(warm);
  DeltaFusionEngine::Workspace ws;
  const PriorSet priors;
  const std::vector<ItemId> conflicting = data.db.ConflictingItems();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->EntropyAfterExactPin(
        base, ws, priors, conflicting[i], 0));
    i = (i + 1) % conflicting.size();
  }
}
BENCHMARK(BM_MeuEntropyAfterPin)->Arg(200)->Arg(1000)->Arg(4000);

void BM_FusionModelComparison(benchmark::State& state,
                              const std::string& name) {
  const SyntheticDataset data = MakeDataset(1000);
  auto model = MakeFusionModel(name);
  FusionOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*model)->Fuse(data.db, PriorSet(), opts));
  }
}
BENCHMARK_CAPTURE(BM_FusionModelComparison, voting, "voting");
BENCHMARK_CAPTURE(BM_FusionModelComparison, accu, "accu");
BENCHMARK_CAPTURE(BM_FusionModelComparison, truthfinder, "truthfinder");
BENCHMARK_CAPTURE(BM_FusionModelComparison, pooled, "pooled_investment");

void BM_ClaimProbabilities(benchmark::State& state) {
  const SyntheticDataset data = MakeDataset(1000);
  AccuFusion model;
  const FusionResult fused = model.Fuse(data.db, FusionOptions{});
  const CompiledDatabase compiled(data.db);
  ItemId i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AccuFusion::ClaimProbabilities(
        compiled, i, fused.accuracies()));
    i = (i + 1) % static_cast<ItemId>(data.db.num_items());
  }
}
BENCHMARK(BM_ClaimProbabilities);

void BM_TotalEntropy(benchmark::State& state) {
  const SyntheticDataset data = MakeDataset(4000);
  AccuFusion model;
  const FusionResult fused = model.Fuse(data.db, FusionOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(fused.TotalEntropy());
  }
}
BENCHMARK(BM_TotalEntropy);

// Wall-clock seconds per call, measured with enough repetitions to swamp
// timer noise (used by the --json path; google-benchmark handles the rest).
template <typename Fn>
double SecondsPerOp(Fn&& fn, std::size_t min_reps = 5,
                    double min_seconds = 0.2) {
  Timer timer;
  std::size_t reps = 0;
  do {
    fn();
    ++reps;
  } while (reps < min_reps || timer.ElapsedSeconds() < min_seconds);
  return timer.ElapsedSeconds() / static_cast<double>(reps);
}

int WriteJsonBaseline(const std::string& path) {
  BenchJsonFile json("veritas-bench-fusion-micro-v1");
  json.SetMeta("workload", "dense synthetic, 38 sources, density 0.36");
  for (const std::size_t items : {std::size_t{200}, std::size_t{1000},
                                  std::size_t{4000}}) {
    const SyntheticDataset data = MakeDataset(items);
    AccuFusion model;
    FusionOptions opts;
    const FusionResult warm = model.Fuse(data.db, opts);
    const CompiledDatabase compiled(data.db);
    const auto engine = DeltaFusionEngine::Create(compiled, model, opts);
    const ItemId pin = data.db.ConflictingItems().front();
    PriorSet priors;
    priors.SetExact(data.db, pin, 0);

    const double full_s =
        SecondsPerOp([&] { model.Fuse(data.db, priors, opts); });
    const double warm_s =
        SecondsPerOp([&] { model.Fuse(data.db, priors, opts, &warm); });

    const DeltaFusionEngine::BaseState base = engine->PrepareBase(warm);
    DeltaFusionEngine::Workspace ws;
    const PriorSet no_priors;
    const std::vector<ItemId> conflicting = data.db.ConflictingItems();
    std::size_t i = 0;
    const double pin_s = SecondsPerOp([&] {
      benchmark::DoNotOptimize(engine->EntropyAfterExactPin(
          base, ws, no_priors, conflicting[i], 0));
      i = (i + 1) % conflicting.size();
    });

    json.Add("accu_refusion")
        .Set("items", data.db.num_items())
        .Set("sources", data.db.num_sources())
        .Set("observations", data.db.num_observations())
        .Set("full_ns_per_op", full_s * 1e9)
        .Set("warm_ns_per_op", warm_s * 1e9)
        .Set("entropy_pin_ns_per_op", pin_s * 1e9);
  }
  // Upsert by record name: the file is shared with the other bench binaries,
  // each of which owns its own record names.
  const Status status = json.MergeInto(path);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote fusion micro baseline to " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      return WriteJsonBaseline(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
