// Scale sweep: the sharded MEU scale-out (DESIGN.md §5h) measured on the
// million-item scaled_longtail shape (data/synthetic.h GenerateFromSpec).
//
// For each swept database size this driver times one MEU SelectBatch step
// unsharded (FusionOptions::shards = 1, the classic scan) and sharded, on
// the same single-thread budget, and checks two contracts:
//   * selections: the sharded two-stage scan must pick exactly the items
//     the unsharded scan picks, at every size (exit nonzero on mismatch);
//   * cost: at full scale the sharded step must be at least 3x faster than
//     the unsharded step, and the sharded step time must grow sub-linearly
//     in the item count from the smallest to the largest size (the stage-1
//     confined lookaheads are independent of total database size; only the
//     constant-size stage-2 pool pays full-reach lookaheads).
// Results land as `scale_sweep` records in BENCH_fusion.json via the
// merge-safe upsert (--json <path>), keyed by (dataset, items, shards).
//
// VERITAS_SCALE=small runs a single 50k-item size with shards {1, 4} and
// only enforces the selection contract — the CI scale-smoke configuration.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/meu.h"
#include "core/strategy.h"
#include "data/synthetic.h"
#include "exp/bench_json.h"
#include "exp/report.h"
#include "exp/scale.h"
#include "fusion/accu.h"
#include "fusion/delta_fusion.h"
#include "fusion/priors.h"
#include "obs/metrics.h"
#include "util/timer.h"

using namespace veritas;

namespace {

constexpr std::size_t kBatch = 2;
constexpr double kRequiredSpeedup = 3.0;

struct StepRun {
  double seconds = -1.0;
  std::vector<ItemId> selected;
  /// Exact lookahead pins and branch-and-bound prunes per step (where the
  /// wall time goes: a pruned candidate costs O(1), a pin O(its ripple)).
  std::size_t lookahead_pins = 0;
  std::size_t candidates_pruned = 0;
};

std::string JoinIds(const std::vector<ItemId>& ids) {
  std::ostringstream out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out << " ";
    out << ids[i];
  }
  return out.str();
}

// One timed MEU step at a given shard count. A fresh strategy per
// configuration; the untimed warmup pays the one-time costs a session
// amortizes across rounds (workspace sync, shard partition build), so the
// timed reps measure the steady-state per-step cost.
StepRun TimeStep(const StrategyContext& ctx, std::size_t reps) {
  MeuStrategy meu(/*num_threads=*/1);
  StepRun run;
  run.selected = meu.SelectBatch(ctx, kBatch);  // Warmup.
  MetricsRegistry::Global().Reset();
  double total = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    meu.Reset();
    Timer timer;
    const std::vector<ItemId> selected = meu.SelectBatch(ctx, kBatch);
    total += timer.ElapsedSeconds();
    if (selected != run.selected) {
      // A step must be reproducible against a fixed fusion state.
      std::cerr << "error: non-deterministic selection across reps\n";
      run.seconds = -1.0;
      return run;
    }
  }
  run.seconds = total / static_cast<double>(reps);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  run.lookahead_pins =
      static_cast<std::size_t>(snap.Value("delta.lookahead_pins")) / reps;
  run.candidates_pruned =
      static_cast<std::size_t>(snap.Value("meu.candidates_pruned")) / reps;
  return run;
}

int RunSweep(const std::string& json_path, ScaleMode mode) {
  const bool small = mode == ScaleMode::kSmall;
  const std::vector<std::size_t> sizes =
      small ? std::vector<std::size_t>{50'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  const std::size_t shard_count = small ? 4 : 8;

  BenchJsonFile json("veritas-bench-fusion-v1");
  json.SetMeta("scale_sweep_mode", ScaleModeName(mode));

  TextTable table({"items", "sources", "observations", "contested",
                   "t_shards1_s", "t_sharded_s", "speedup", "pins_1",
                   "pins_sharded", "match"});
  bool failed = false;
  std::vector<double> sharded_seconds;
  std::vector<double> unsharded_seconds;
  double speedup_at_max = 0.0;

  for (const std::size_t n : sizes) {
    DatasetSpec spec;
    spec.name = "scaled_longtail";
    spec.shape = "scaled_longtail";
    spec.num_items = n;
    spec.num_sources = std::max<std::size_t>(4096, n / 10);
    spec.seed = 42;
    GenerationReport report;
    Result<SyntheticDataset> data = GenerateFromSpec(spec, &report);
    if (!data.ok()) {
      std::cerr << "error: " << data.status().ToString() << "\n";
      return 1;
    }
    const Database& db = data->db;

    AccuFusion model;
    FusionOptions opts;
    const FusionResult base = model.Fuse(db, PriorSet(), opts);
    const CompiledDatabase compiled(db);
    const auto engine = DeltaFusionEngine::Create(compiled, model, opts);
    if (engine == nullptr) {
      std::cerr << "error: delta engine unavailable for accu\n";
      return 1;
    }

    const PriorSet priors;
    StrategyContext ctx;
    ctx.compiled = &compiled;
    ctx.fusion = &base;
    ctx.priors = &priors;
    ctx.model = &model;
    ctx.ground_truth = &data->truth;
    ctx.delta = engine.get();

    const std::size_t reps = n >= 500'000 ? 1 : 3;
    FusionOptions unsharded_opts = opts;
    unsharded_opts.shards = 1;
    ctx.fusion_opts = &unsharded_opts;
    const StepRun flat = TimeStep(ctx, reps);
    FusionOptions sharded_opts = opts;
    sharded_opts.shards = shard_count;
    ctx.fusion_opts = &sharded_opts;
    const StepRun sharded = TimeStep(ctx, reps);
    if (flat.seconds < 0.0 || sharded.seconds < 0.0) return 1;

    const bool match = sharded.selected == flat.selected;
    const double speedup = sharded.seconds > 0.0
                               ? flat.seconds / sharded.seconds
                               : 0.0;
    if (!match) {
      std::cerr << "error: shards=" << shard_count
                << " selected [" << JoinIds(sharded.selected)
                << "] but shards=1 selected [" << JoinIds(flat.selected)
                << "] at " << n << " items\n";
      failed = true;
    }
    unsharded_seconds.push_back(flat.seconds);
    sharded_seconds.push_back(sharded.seconds);
    speedup_at_max = speedup;

    for (const bool is_sharded : {false, true}) {
      const StepRun& run = is_sharded ? sharded : flat;
      json.Add("scale_sweep")
          .Set("dataset", spec.name)
          .Set("items", report.num_items)
          .Set("shards", is_sharded ? shard_count : std::size_t{1})
          .Set("sources", report.num_sources)
          .Set("observations", report.num_observations)
          .Set("contested", report.contested_items)
          .Set("head_sources", report.head_sources)
          .Set("batch", kBatch)
          .Set("threads", std::size_t{1})
          .Set("step_seconds", run.seconds)
          .Set("lookahead_pins", run.lookahead_pins)
          .Set("candidates_pruned", run.candidates_pruned)
          .Set("selected", JoinIds(run.selected))
          .Set("selections_match_unsharded", is_sharded ? match : true)
          .Set("speedup_vs_unsharded", is_sharded ? speedup : 1.0);
    }
    table.AddRow({std::to_string(n), std::to_string(report.num_sources),
                  std::to_string(report.num_observations),
                  std::to_string(report.contested_items), Secs(flat.seconds),
                  Secs(sharded.seconds),
                  std::to_string(speedup).substr(0, 5),
                  std::to_string(flat.lookahead_pins),
                  std::to_string(sharded.lookahead_pins),
                  match ? "yes" : "NO"});
  }

  // Growth: fit t ~ n^alpha between the smallest and largest size. The
  // sharded exponent is the scale-out claim; the unsharded one is context.
  double sharded_exponent = 0.0;
  double unsharded_exponent = 0.0;
  const bool multi_size = sizes.size() > 1;
  if (multi_size) {
    const double n_ratio = static_cast<double>(sizes.back()) /
                           static_cast<double>(sizes.front());
    sharded_exponent =
        std::log(sharded_seconds.back() / sharded_seconds.front()) /
        std::log(n_ratio);
    unsharded_exponent =
        std::log(unsharded_seconds.back() / unsharded_seconds.front()) /
        std::log(n_ratio);
  }

  json.Add("scale_sweep_growth")
      .Set("dataset", "scaled_longtail")
      .Set("shards", shard_count)
      .Set("min_items", sizes.front())
      .Set("max_items", sizes.back())
      .Set("sharded_growth_exponent", sharded_exponent)
      .Set("unsharded_growth_exponent", unsharded_exponent)
      .Set("sub_linear", multi_size ? sharded_exponent < 1.0 : true)
      .Set("speedup_at_max_items", speedup_at_max)
      .Set("required_speedup", kRequiredSpeedup);

  PrintBanner(std::cout, "Sharded MEU scale sweep (shards=" +
                             std::to_string(shard_count) +
                             ", scale=" + ScaleModeName(mode) + ")");
  table.Print(std::cout);
  if (multi_size) {
    std::cout << "step-time growth exponent (t ~ items^a): sharded a="
              << sharded_exponent << ", unsharded a=" << unsharded_exponent
              << "\n";
    if (!(sharded_exponent < 1.0)) {
      std::cerr << "error: sharded step time grew super-linearly (a="
                << sharded_exponent << ")\n";
      failed = true;
    }
    if (speedup_at_max < kRequiredSpeedup) {
      std::cerr << "error: speedup at " << sizes.back() << " items is "
                << speedup_at_max << "x, required >= " << kRequiredSpeedup
                << "x\n";
      failed = true;
    }
  }

  if (!json_path.empty()) {
    const Status status =
        json.MergeInto(json_path, {"dataset", "items", "shards"});
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << "\n";
      return 1;
    }
    std::cout << "merged scale_sweep records into " << json_path << "\n";
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[i + 1];
      ++i;
    }
  }
  return RunSweep(json_path, GetScaleMode());
}
