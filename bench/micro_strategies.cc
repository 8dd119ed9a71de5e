// google-benchmark micro-benchmarks for the feedback strategies: cost of
// one next-action decision per strategy and of the Approx-MEU primitives.
//
// `--json <path>` skips the google-benchmark run and instead merges the
// Approx-MEU kernel record (`approx_meu_kernel`, one per dataset shape) into
// the shared fusion baseline: ns per candidate of the canonical
// per-hypothesis body and of the fast single-walk body, how many candidates
// carry more than two claims (the multi-claim body), and whether the
// strategy's selections equal the canonical body's top k.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "core/approx_meu.h"
#include "core/strategy_factory.h"
#include "data/synthetic.h"
#include "exp/bench_json.h"
#include "exp/scale.h"
#include "fusion/accu.h"
#include "util/timer.h"

using namespace veritas;

namespace {

struct Fixture {
  explicit Fixture(std::size_t items) : Fixture(Dense(items)) {}

  explicit Fixture(SyntheticDataset dataset) : data(std::move(dataset)) {
    compiled = std::make_unique<CompiledDatabase>(data.db);
    fusion = model.Fuse(data.db, opts);
    ctx.compiled = compiled.get();
    ctx.fusion = &fusion;
    ctx.priors = &priors;
    ctx.model = &model;
    ctx.fusion_opts = &opts;
    ctx.ground_truth = &data.truth;
    ctx.rng = &rng;
  }

  static SyntheticDataset Dense(std::size_t items) {
    DenseConfig config;
    config.num_items = items;
    config.num_sources = 38;
    config.density = 0.36;
    config.seed = 7;
    return GenerateDense(config);
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

// The kernel shapes: the served FlightsLike snapshot (260 items, 38
// sources, heavy copying), the table-11 Books-like long tail (300 x 210),
// both binary, and the FlightsLike layout with up to three false values and
// less accurate sources, whose candidates mostly carry three or four claims
// (the multi-claim body).
SyntheticDataset FlightsLike260() {
  DenseConfig config;
  config.num_items = 260;
  config.num_sources = 38;
  config.density = 0.36;
  config.accuracy_mean = 0.75;
  config.accuracy_sd = 0.1;
  config.copier_fraction = 0.5;
  config.ensure_true_claim = true;
  config.seed = 1;
  return GenerateDense(config);
}

SyntheticDataset BooksLike300() {
  return MakeBooksLike(ScaleMode::kSmall).data;
}

SyntheticDataset MultiClaim260() {
  DenseConfig config;
  config.num_items = 260;
  config.num_sources = 38;
  config.density = 0.36;
  config.accuracy_mean = 0.6;
  config.accuracy_sd = 0.1;
  config.max_false_claims = 3;
  config.copier_fraction = 0.5;
  config.ensure_true_claim = true;
  config.seed = 1;
  return GenerateDense(config);
}

// Per-candidate cost of one Approx-MEU body: every conflicting item scored
// once per pass, serially.
void BM_ApproxMeuPerCandidate(benchmark::State& state, bool canonical,
                              SyntheticDataset (*make)()) {
  Fixture fixture(make());
  const std::vector<ItemId> candidates = CandidateItems(fixture.ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        canonical ? ApproxMeuStrategy::CanonicalGains(fixture.ctx, candidates,
                                                      nullptr)
                  : ApproxMeuStrategy::ScoreCandidates(fixture.ctx,
                                                       candidates, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(candidates.size()));
}
BENCHMARK_CAPTURE(BM_ApproxMeuPerCandidate, canonical_flights260, true,
                  &FlightsLike260);
BENCHMARK_CAPTURE(BM_ApproxMeuPerCandidate, single_walk_flights260, false,
                  &FlightsLike260);
BENCHMARK_CAPTURE(BM_ApproxMeuPerCandidate, canonical_books300, true,
                  &BooksLike300);
BENCHMARK_CAPTURE(BM_ApproxMeuPerCandidate, single_walk_books300, false,
                  &BooksLike300);
BENCHMARK_CAPTURE(BM_ApproxMeuPerCandidate, canonical_multiclaim260, true,
                  &MultiClaim260);
BENCHMARK_CAPTURE(BM_ApproxMeuPerCandidate, single_walk_multiclaim260, false,
                  &MultiClaim260);

// Best-of-`rounds` wall-clock seconds of one call.
template <typename Fn>
double MinSeconds(Fn&& fn, int rounds = 15) {
  double best = 0.0;
  for (int r = 0; r < rounds; ++r) {
    Timer timer;
    fn();
    const double s = timer.ElapsedSeconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

// Exits nonzero when a shape's selections differ from the canonical ones.
int WriteKernelRecords(const std::string& path) {
  BenchJsonFile json("veritas-bench-fusion-v1");
  bool all_match = true;
  const std::pair<const char*, SyntheticDataset (*)()> shapes[] = {
      {"FlightsLike", &FlightsLike260},
      {"Books-like", &BooksLike300},
      {"FlightsLike-multiclaim", &MultiClaim260}};
  for (const auto& [name, make] : shapes) {
    Fixture fixture(make());
    const std::vector<ItemId> candidates = CandidateItems(fixture.ctx);
    const double n = static_cast<double>(candidates.size());
    std::size_t multi_claim = 0;
    for (ItemId i : candidates) multi_claim += fixture.data.db.num_claims(i) > 2;
    std::vector<double> canonical;
    std::vector<double> fast;
    const double canonical_s = MinSeconds([&] {
      canonical =
          ApproxMeuStrategy::CanonicalGains(fixture.ctx, candidates, nullptr);
    });
    const double fast_s = MinSeconds([&] {
      fast = ApproxMeuStrategy::ScoreCandidates(fixture.ctx, candidates,
                                                nullptr);
    });
    // The strategy's picks (single walk plus the near-tie step) against the
    // canonical body's top k, for single-item and batched rounds.
    bool match = true;
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{5}, std::size_t{20}}) {
      ApproxMeuStrategy strategy;
      match = match && strategy.SelectBatch(fixture.ctx, k) ==
                           TopKByScore(candidates, canonical, k);
    }
    json.Add("approx_meu_kernel")
        .Set("dataset", name)
        .Set("items", fixture.data.db.num_items())
        .Set("sources", fixture.data.db.num_sources())
        .Set("observations", fixture.data.db.num_observations())
        .Set("candidates", candidates.size())
        .Set("multi_claim_candidates", multi_claim)
        .Set("canonical_ns_per_candidate", canonical_s * 1e9 / n)
        .Set("single_walk_ns_per_candidate", fast_s * 1e9 / n)
        .Set("speedup_vs_canonical", canonical_s / fast_s)
        .Set("selections_match_canonical", match);
    if (!match) std::cerr << "error: " << name << " selections differ\n";
    all_match = all_match && match;
  }
  const Status status = json.MergeInto(path, {"dataset"});
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote approx_meu_kernel records to " << path << "\n";
  return all_match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      return WriteKernelRecords(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
