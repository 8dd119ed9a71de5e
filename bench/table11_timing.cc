// Table 11: average time to determine the next action.
//
// Paper reference (seconds/action, Java, 2.7 GHz laptop):
//              QBC     US     MEU       Approx-MEU
//   Books      0.01    0.001  11.73     0.231
//   FlightsDay 0.045   0.002  90.00     4.401
//   Population 0.14    0.011  > 5 min   9.728
//   Flights    7       4      --        146 (Approx-MEU_5) / 348 (_10)
//
// Shape to reproduce: QBC/US orders of magnitude faster than the
// decision-theoretic methods; Approx-MEU roughly two orders of magnitude
// faster than MEU. Absolute numbers differ (C++ vs Java, scaled datasets).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/meu.h"
#include "core/oracle.h"
#include "core/session.h"
#include "core/strategy_factory.h"
#include "exp/bench_json.h"
#include "exp/report.h"
#include "exp/scale.h"
#include "fusion/accu.h"
#include "obs/metrics.h"
#include "obs/obs_flags.h"
#include "util/math.h"
#include "util/timer.h"

using namespace veritas;

namespace {

// The warm-start full-re-fusion path exactly as it existed before the
// incremental engine and the CompiledDatabase CSR views landed: Eq. (1)
// evaluated by pointer-chasing the nested Item/Claim/Source adjacency with a
// std::log per (claim, source) pair per iteration. Kept verbatim as the
// reference baseline the BENCH_fusion.json speedups are measured against.
// It walks the Database it was built for and reads nothing from the view it
// is handed, which must describe that same database.
class ReferenceAccuFusion : public FusionModel {
 public:
  explicit ReferenceAccuFusion(const Database& db) : db_(db) {}

  std::string name() const override { return "accu_reference"; }

 protected:
  FusionResult FuseCompiled(const CompiledDatabase& /*c*/,
                            const PriorSet& priors, const FusionOptions& opts,
                            const FusionResult* warm) const override {
    const Database& db = db_;
    FusionResult result(db, opts.initial_accuracy);
    std::vector<double> accuracies =
        warm != nullptr ? warm->accuracies()
                        : std::vector<double>(db.num_sources(),
                                              opts.initial_accuracy);
    for (double& a : accuracies) a = ClampAccuracy(a);
    bool converged = false;
    std::size_t iter = 0;
    while (iter < opts.max_iterations) {
      ++iter;
      UpdateProbabilities(db, priors, accuracies, &result);
      const double delta = UpdateAccuracies(db, result, &accuracies);
      if (delta < opts.tolerance) {
        converged = true;
        break;
      }
    }
    UpdateProbabilities(db, priors, accuracies, &result);
    *result.mutable_accuracies() = std::move(accuracies);
    result.set_iterations(iter);
    result.set_converged(converged);
    return result;
  }

 private:
  static std::vector<double> ClaimProbabilities(
      const Database& db, ItemId item, const std::vector<double>& accuracies) {
    const Item& o = db.item(item);
    const double false_values = static_cast<double>(o.claims.size()) - 1.0;
    std::vector<double> scores(o.claims.size(), 0.0);
    for (ClaimIndex k = 0; k < o.claims.size(); ++k) {
      double score = 0.0;
      for (SourceId s : o.claims[k].sources) {
        const double a = ClampAccuracy(accuracies[s]);
        score += std::log(false_values * a / (1.0 - a));
      }
      scores[k] = score;
    }
    return SoftmaxFromLogScores(scores);
  }

  static void UpdateProbabilities(const Database& db, const PriorSet& priors,
                                  const std::vector<double>& accuracies,
                                  FusionResult* result) {
    for (ItemId i = 0; i < db.num_items(); ++i) {
      const std::span<double> probs = result->mutable_item_probs(i);
      if (priors.Has(i)) {
        const std::vector<double>& p = priors.Get(i);
        std::copy(p.begin(), p.end(), probs.begin());
        continue;
      }
      if (db.num_claims(i) == 1) {
        probs[0] = 1.0;
        continue;
      }
      const std::vector<double> p = ClaimProbabilities(db, i, accuracies);
      std::copy(p.begin(), p.end(), probs.begin());
    }
  }

  static double UpdateAccuracies(const Database& db, const FusionResult& result,
                                 std::vector<double>* accuracies) {
    double max_delta = 0.0;
    for (SourceId j = 0; j < db.num_sources(); ++j) {
      const Source& s = db.source(j);
      if (s.votes.empty()) continue;
      double sum = 0.0;
      for (const Vote& v : s.votes) sum += result.prob(v.item, v.claim);
      const double updated =
          ClampAccuracy(sum / static_cast<double>(s.votes.size()));
      max_delta = std::max(max_delta, std::fabs(updated - (*accuracies)[j]));
      (*accuracies)[j] = updated;
    }
    return max_delta;
  }

  const Database& db_;
};

// Mean select-time over a few validations (metrics recording off so only
// strategy time is measured). `use_delta` toggles the incremental engine
// for the MEU lookaheads.
double MeanSelectSeconds(const NamedDataset& dataset, const FusionModel& model,
                         const std::string& strategy_name, std::size_t actions,
                         bool use_delta) {
  auto strategy = MakeStrategy(strategy_name);
  if (!strategy.ok()) return -1.0;
  PerfectOracle oracle;
  SessionOptions options;
  options.max_validations = actions;
  options.record_metrics = false;
  options.fusion.use_delta_fusion = use_delta;
  Rng rng(7);
  FeedbackSession session(dataset.data.db, model, strategy->get(), &oracle,
                          dataset.data.truth, options, &rng);
  auto trace = session.Run();
  if (!trace.ok()) return -1.0;
  return trace->MeanSelectSeconds();
}

double MeanSelectSeconds(const NamedDataset& dataset,
                         const std::string& strategy_name,
                         std::size_t actions, bool use_delta = true) {
  AccuFusion model;
  return MeanSelectSeconds(dataset, model, strategy_name, actions, use_delta);
}

// One pruned delta-MEU session at a given lane count: mean select time, the
// exact selected-item sequence (the determinism witness CI diffs across
// thread counts), and the scan's pruning counter.
struct ThreadSweepRun {
  double mean_select_seconds = -1.0;
  std::string selected;  // Space-joined item ids in validation order.
  std::size_t candidates_pruned = 0;
};

ThreadSweepRun RunMeuSession(const NamedDataset& dataset, Strategy* strategy,
                             std::size_t actions) {
  ThreadSweepRun out;
  AccuFusion model;
  PerfectOracle oracle;
  SessionOptions options;
  options.max_validations = actions;
  options.record_metrics = false;
  options.fusion.use_delta_fusion = true;
  Rng rng(7);
  MetricsRegistry::Global().Reset();
  FeedbackSession session(dataset.data.db, model, strategy, &oracle,
                          dataset.data.truth, options, &rng);
  auto trace = session.Run();
  if (!trace.ok()) return out;
  out.mean_select_seconds = trace->MeanSelectSeconds();
  std::ostringstream sel;
  bool first = true;
  for (const SessionStep& step : trace->steps) {
    for (ItemId item : step.items) {
      if (!first) sel << " ";
      sel << item;
      first = false;
    }
  }
  out.selected = sel.str();
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  out.candidates_pruned =
      static_cast<std::size_t>(snap.Value("meu.candidates_pruned"));
  return out;
}

template <typename Fn>
double SecondsPerOp(Fn&& fn, std::size_t min_reps = 3,
                    double min_seconds = 0.2) {
  Timer timer;
  std::size_t reps = 0;
  do {
    fn();
    ++reps;
  } while (reps < min_reps || timer.ElapsedSeconds() < min_seconds);
  return timer.ElapsedSeconds() / static_cast<double>(reps);
}

// Folds a histogram's summary stats into a bench record under
// `prefix`_{count,mean,stddev,min,max} (all zero when never observed).
void SetHistStats(BenchJsonRecord& record, const std::string& prefix,
                  const MetricsSnapshot& snap, const std::string& name) {
  const HistogramSnapshot* h = snap.FindHistogram(name);
  HistogramSnapshot empty;
  if (h == nullptr) h = &empty;
  record.Set(prefix + "_count", static_cast<std::size_t>(h->count))
      .Set(prefix + "_mean", h->mean)
      .Set(prefix + "_stddev", h->stddev)
      .Set(prefix + "_min", h->count > 0 ? h->min : 0.0)
      .Set(prefix + "_max", h->max);
}

// Largest |p_a - p_b| over all claims between two re-fusions after the
// same pin.
double MaxProbDiff(const Database& db, const FusionResult& a,
                   const FusionResult& b) {
  double max_diff = 0.0;
  for (ItemId i = 0; i < db.num_items(); ++i) {
    for (ClaimIndex k = 0; k < db.num_claims(i); ++k) {
      max_diff = std::max(max_diff, std::fabs(a.prob(i, k) - b.prob(i, k)));
    }
  }
  return max_diff;
}

// Machine-readable baseline: per-dataset fusion timings (reference vs full
// vs warm), exact-MEU step latency on the pre-optimization reference path,
// on the current full path, and with the delta lookahead engine, the
// speedups, and the probability agreement between the CSR warm re-fusion
// and the reference. "baseline" fields always mean the ReferenceAccuFusion
// pointer-chasing path that the CompiledDatabase + DeltaFusion work
// replaced.
int WriteBenchJson(const std::string& path, ScaleMode mode) {
  BenchJsonFile json("veritas-bench-fusion-v1");
  json.SetMeta("scale", ScaleModeName(mode));
  json.SetMeta("workload", "table 11 (MEU datasets)");
  json.SetMeta("baseline", "pre-CSR warm-start full re-fusion (accu_reference)");

  double total_baseline_s = 0.0;
  double total_full_s = 0.0;
  double total_delta_s = 0.0;
  for (const NamedDataset& dataset :
       {MakeBooksLike(mode), MakeFlightsDayLike(mode),
        MakePopulationLike(mode)}) {
    const Database& db = dataset.data.db;
    AccuFusion model;
    ReferenceAccuFusion reference(db);
    const CompiledDatabase compiled(db);
    FusionOptions opts;
    const FusionResult base = model.Fuse(db, PriorSet(), opts);
    const ItemId pin = db.ConflictingItems().front();
    PriorSet priors;
    priors.SetExact(db, pin, 0);

    const double baseline_s =
        SecondsPerOp([&] { reference.Fuse(compiled, priors, opts, &base); });
    const double full_s =
        SecondsPerOp([&] { model.Fuse(db, priors, opts); });
    const double warm_s =
        SecondsPerOp([&] { model.Fuse(db, priors, opts, &base); });
    const double prob_diff_vs_baseline =
        MaxProbDiff(db, model.Fuse(db, priors, opts, &base),
                    reference.Fuse(compiled, priors, opts, &base));

    const std::size_t actions = 3;
    const double meu_baseline_s = MeanSelectSeconds(
        dataset, reference, "meu", actions, /*use_delta=*/false);
    const double meu_full_s =
        MeanSelectSeconds(dataset, "meu", actions, /*use_delta=*/false);
    // Isolate the delta-path run in the registry so the per-phase record
    // below describes exactly this session (Reset keeps cached pointers).
    MetricsRegistry::Global().Reset();
    const double meu_delta_s =
        MeanSelectSeconds(dataset, "meu", actions, /*use_delta=*/true);
    const MetricsSnapshot phases = MetricsRegistry::Global().Snapshot();
    total_baseline_s += meu_baseline_s;
    total_full_s += meu_full_s;
    total_delta_s += meu_delta_s;

    json.Add("table11_meu")
        .Set("dataset", dataset.name)
        .Set("items", db.num_items())
        .Set("sources", db.num_sources())
        .Set("observations", db.num_observations())
        .Set("fusion_baseline_warm_ns_per_op", baseline_s * 1e9)
        .Set("fusion_full_ns_per_op", full_s * 1e9)
        .Set("fusion_warm_ns_per_op", warm_s * 1e9)
        .Set("max_abs_prob_diff_vs_baseline", prob_diff_vs_baseline)
        .Set("fusion_tolerance", opts.tolerance)
        .Set("meu_step_baseline_seconds", meu_baseline_s)
        .Set("meu_step_full_seconds", meu_full_s)
        .Set("meu_step_delta_seconds", meu_delta_s)
        .Set("meu_step_speedup_vs_baseline", meu_baseline_s / meu_delta_s)
        .Set("meu_step_speedup_vs_full", meu_full_s / meu_delta_s);

    // Per-phase breakdown of the delta-path MEU session, straight from the
    // metrics registry: where the wall time went and what the fusion and
    // delta engines did to earn it.
    BenchJsonRecord& phase_rec =
        json.Add("table11_phases").Set("dataset", dataset.name);
    SetHistStats(phase_rec, "select_seconds", phases,
                 "session.select_seconds");
    SetHistStats(phase_rec, "fuse_seconds", phases, "session.fuse_seconds");
    SetHistStats(phase_rec, "oracle_seconds", phases,
                 "session.oracle_seconds");
    SetHistStats(phase_rec, "accu_iterations", phases,
                 "fusion.accu.iterations");
    phase_rec
        .Set("accu_fuse_calls",
             static_cast<std::size_t>(phases.Value("fusion.accu.fuse_calls")))
        .Set("meu_lookaheads",
             static_cast<std::size_t>(phases.Value("strategy.meu.lookaheads")))
        .Set("delta_lookahead_pins",
             static_cast<std::size_t>(phases.Value("delta.lookahead_pins")))
        .Set("oracle_retry_attempts",
             static_cast<std::size_t>(phases.Value("oracle.retry.attempts")))
        .Set("oracle_retry_retries",
             static_cast<std::size_t>(phases.Value("oracle.retry.retries")));

    // Thread sweep over the pruned scan on the shared-cursor pool. The
    // selected sequence must be identical at every lane count (the scan's
    // determinism contract); CI diffs the 1-thread and 2-thread strings and
    // asserts candidates_pruned > 0.
    MeuScanOptions no_prune;
    no_prune.prune = false;
    MeuStrategy unpruned_meu(1, no_prune);
    const double meu_delta_unpruned_s =
        RunMeuSession(dataset, &unpruned_meu, actions).mean_select_seconds;
    ThreadSweepRun one_thread;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      MeuStrategy pruned_meu(threads);
      const ThreadSweepRun run = RunMeuSession(dataset, &pruned_meu, actions);
      if (threads == 1) one_thread = run;
      json.Add("table11_threads")
          .Set("dataset", dataset.name)
          .Set("threads", threads)
          .Set("meu_step_delta_seconds", run.mean_select_seconds)
          .Set("meu_step_unpruned_seconds", meu_delta_unpruned_s)
          .Set("candidates_pruned", run.candidates_pruned)
          .Set("selected", run.selected)
          .Set("selected_matches_1t", run.selected == one_thread.selected)
          .Set("speedup_vs_1t",
               run.mean_select_seconds > 0.0
                   ? one_thread.mean_select_seconds / run.mean_select_seconds
                   : 0.0)
          .Set("speedup_vs_unpruned",
               run.mean_select_seconds > 0.0
                   ? meu_delta_unpruned_s / run.mean_select_seconds
                   : 0.0);
    }
  }
  json.Add("meu_speedup")
      .Set("total_baseline_seconds", total_baseline_s)
      .Set("total_full_seconds", total_full_s)
      .Set("total_delta_seconds", total_delta_s)
      .Set("speedup_vs_baseline", total_baseline_s / total_delta_s)
      .Set("speedup_vs_full", total_full_s / total_delta_s);

  // Merge-upsert instead of overwrite: other bench binaries (scale_sweep,
  // replay) land their records in the same BENCH_fusion.json, keyed so a
  // re-run replaces its own rows and leaves everyone else's alone.
  const Status status = json.MergeInto(path, {"dataset", "threads"});
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote fusion baseline to " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ScaleMode mode = GetScaleMode();
  const ObsOutputs obs = ScanObsFlags(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      const int rc = WriteBenchJson(argv[i + 1], mode);
      const Status obs_status = WriteObsOutputs(obs);
      if (!obs_status.ok()) {
        std::cerr << "error: " << obs_status.ToString() << "\n";
        return 1;
      }
      return rc;
    }
  }
  PrintBanner(std::cout,
              "Table 11: seconds to determine the next action (scale=" +
                  ScaleModeName(mode) + ")");

  {
    TextTable table({"dataset", "qbc", "us", "meu", "approx_meu"});
    for (const NamedDataset& dataset :
         {MakeBooksLike(mode), MakeFlightsDayLike(mode),
          MakePopulationLike(mode)}) {
      std::vector<std::string> row = {dataset.name};
      for (const char* strategy : {"qbc", "us", "meu", "approx_meu"}) {
        // MEU on the Population-like shape is the paper's "> 5 min" cell;
        // keep it tractable by skipping at larger scales.
        if (std::string(strategy) == "meu" &&
            dataset.name == "Population-like" && mode != ScaleMode::kSmall) {
          row.push_back("(skipped)");
          continue;
        }
        const std::size_t actions = std::string(strategy) == "meu" ? 3 : 5;
        row.push_back(Secs(MeanSelectSeconds(dataset, strategy, actions)));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }

  // The large dense dataset: QBC / US / Approx-MEU_5 / Approx-MEU_10
  // (MEU cannot scale there, §5.1).
  {
    const NamedDataset flights = MakeFlightsLike(mode);
    TextTable table(
        {"dataset", "qbc", "us", "approx_meu_k:5", "approx_meu_k:10"});
    std::vector<std::string> row = {flights.name};
    for (const char* strategy :
         {"qbc", "us", "approx_meu_k:5", "approx_meu_k:10"}) {
      row.push_back(Secs(MeanSelectSeconds(flights, strategy, 3)));
    }
    table.AddRow(row);
    table.Print(std::cout);
  }
  std::cout << "(paper shape: QBC/US << Approx-MEU << MEU; absolute values "
               "differ by hardware/scale)\n";
  const Status obs_status = WriteObsOutputs(obs);
  if (!obs_status.ok()) {
    std::cerr << "error: " << obs_status.ToString() << "\n";
    return 1;
  }
  return 0;
}
