// veritas_cli — run fusion and guided feedback on CSV datasets from the
// command line.
//
// Commands:
//   stats        --data obs.csv [--truth truth.csv]
//   fuse         --data obs.csv [--model accu] [--out probs.csv]
//   rank         --data obs.csv [--strategy qbc] [--top 10]
//                [--truth truth.csv]            (needed for gub)
//   session      --data obs.csv --truth truth.csv [--strategy approx_meu]
//                [--budget 20] [--oracle perfect] [--batch 1] [--seed 42]
//   generate     [--shape dense|longtail] [--items 500] [--sources 38]
//                [--density 0.4] [--copiers 0.0] [--seed 42]
//                --out obs.csv [--truth-out truth.csv]
//   canonicalize --data obs.csv [--tolerance 10] --out canonical.csv
//
// All observation files are CSV triples `source,item,value`; truth files
// are CSV pairs `item,value` (see data/loader.h).
#include <csignal>
#include <cstdio>
#include <iostream>

#include "core/metrics.h"
#include "core/oracle.h"
#include "core/resilient_oracle.h"
#include "core/session.h"
#include "core/strategy_factory.h"
#include "data/canonicalize.h"
#include "data/dataset_stats.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "exp/export.h"
#include "exp/report.h"
#include "fusion/accu.h"
#include "fusion/fusion_factory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/args.h"
#include "util/cancellation.h"
#include "util/csv.h"

namespace veritas {
namespace {

// Session cancellation, tripped by SIGINT/SIGTERM. RequestStop escalates on
// repeat delivery: the first signal asks the session to finish the current
// round, checkpoint, and exit; a second one bails the inner fusion/lookahead
// loops too. CancellationToken is a single atomic int, so calling it from a
// signal handler is async-signal-safe.
CancellationToken g_session_cancel;

extern "C" void HandleStopSignal(int /*signum*/) {
  g_session_cancel.RequestStop();
}

void PrintUsage() {
  std::cout <<
      "veritas_cli <command> [options]\n"
      "\n"
      "commands:\n"
      "  stats        --data obs.csv [--truth truth.csv]\n"
      "  fuse         --data obs.csv [--model accu] [--out probs.csv]\n"
      "  rank         --data obs.csv [--strategy qbc] [--top 10]\n"
      "               [--truth truth.csv]\n"
      "  session      --data obs.csv --truth truth.csv\n"
      "               [--strategy approx_meu] [--budget 20]\n"
      "               [--oracle perfect] [--batch 1] [--seed 42]\n"
      "               [--model accu] [--threads 1]\n"
      "               [--no-delta]  (full re-fusion for MEU lookaheads)\n"
      "               [--shards 1]  (MEU only)\n"
      "               [--flaky <p|plan>] [--retries 3]\n"
      "               [--checkpoint ckpt] [--checkpoint-every 1]\n"
      "               [--resume ckpt] [--deadline-ms N]\n"
      "               [--steps-out steps.csv]\n"
      "               [--metrics-out metrics.json] [--trace-out trace.json]\n"
      "  generate     [--shape dense|longtail] [--items 500] [--sources 38]\n"
      "               [--density 0.4] [--copiers 0] [--seed 42]\n"
      "               --out obs.csv [--truth-out truth.csv]\n"
      "  canonicalize --data obs.csv [--tolerance 10] --out canonical.csv\n";
}

Result<Database> RequireData(const ArgMap& args) {
  const std::string path = args.GetString("data");
  if (path.empty()) {
    return Status::InvalidArgument("--data <observations.csv> is required");
  }
  return LoadObservations(path);
}

Result<GroundTruth> RequireTruth(const ArgMap& args, const Database& db) {
  const std::string path = args.GetString("truth");
  if (path.empty()) {
    return Status::InvalidArgument("--truth <truth.csv> is required");
  }
  VERITAS_ASSIGN_OR_RETURN(TruthLoadReport report, LoadGroundTruth(path, db));
  if (report.unknown_item + report.unknown_claim > 0) {
    std::cerr << "note: skipped " << report.unknown_item
              << " unknown items, " << report.unknown_claim
              << " unknown claims in truth file\n";
  }
  return report.truth;
}

Status RunStats(const ArgMap& args) {
  VERITAS_ASSIGN_OR_RETURN(Database db, RequireData(args));
  const DatasetStats stats = ComputeStats(db);
  TextTable table({"metric", "value"});
  table.AddRow({"items", std::to_string(stats.items)});
  table.AddRow({"sources", std::to_string(stats.sources)});
  table.AddRow({"observations", std::to_string(stats.observations)});
  table.AddRow({"distinct claims", std::to_string(stats.distinct_claims)});
  table.AddRow({"conflicting items", std::to_string(stats.conflicting_items)});
  table.AddRow({"density", Num(stats.density, 4)});
  table.AddRow({"avg claims/item", Num(stats.avg_claims_per_item, 2)});
  table.AddRow({"avg votes/item", Num(stats.avg_votes_per_item, 2)});
  table.AddRow({"sources covering <4% of items",
                Pct(CoverageBelow(db, 0.04) * 100.0)});
  if (args.Has("truth")) {
    VERITAS_ASSIGN_OR_RETURN(
        TruthLoadReport report,
        LoadGroundTruth(args.GetString("truth"), db));
    const DatasetStats truth_stats = ComputeStats(db, report);
    table.AddRow({"items with known truth",
                  std::to_string(report.truth.num_known())});
    table.AddRow({"truth rows applied",
                  std::to_string(truth_stats.truth_applied)});
    // Mismatches are normal for silver standards, but a nonzero unknown-item
    // count on a stream usually means truth arrived before the observations.
    table.AddRow({"truth rows: unknown item",
                  std::to_string(truth_stats.truth_unknown_item)});
    table.AddRow({"truth rows: unknown claim",
                  std::to_string(truth_stats.truth_unknown_claim)});
  }
  table.Print(std::cout);
  return Status::OK();
}

Status RunFuse(const ArgMap& args) {
  VERITAS_ASSIGN_OR_RETURN(Database db, RequireData(args));
  VERITAS_ASSIGN_OR_RETURN(auto model,
                           MakeFusionModel(args.GetString("model", "accu")));
  VERITAS_ASSIGN_OR_RETURN(long iterations, args.GetInt("iterations", 100));
  if (iterations < 0) {
    return Status::InvalidArgument("--iterations must be >= 0");
  }
  FusionOptions opts;
  opts.max_iterations = static_cast<std::size_t>(iterations);
  const FusionResult result = model->Fuse(db, PriorSet(), opts);

  std::vector<CsvRow> rows;
  rows.push_back({"item", "value", "probability", "winner"});
  for (ItemId i = 0; i < db.num_items(); ++i) {
    const ClaimIndex winner = result.WinningClaim(i);
    for (ClaimIndex k = 0; k < db.num_claims(i); ++k) {
      rows.push_back({db.item(i).name, db.item(i).claims[k].value,
                      Num(result.prob(i, k), 6),
                      k == winner ? "1" : "0"});
    }
  }
  const std::string out = args.GetString("out");
  if (out.empty()) {
    for (const CsvRow& row : rows) std::cout << FormatCsvRow(row) << "\n";
  } else {
    VERITAS_RETURN_IF_ERROR(WriteCsvFile(out, rows));
    std::cout << "wrote " << rows.size() - 1 << " claim probabilities to "
              << out << "\n";
  }
  std::cout << "# fusion: model=" << model->name()
            << " iterations=" << result.iterations()
            << " converged=" << (result.converged() ? "yes" : "no") << "\n";
  return Status::OK();
}

Status RunRank(const ArgMap& args) {
  VERITAS_ASSIGN_OR_RETURN(Database db, RequireData(args));
  const std::string strategy_name = args.GetString("strategy", "qbc");
  VERITAS_ASSIGN_OR_RETURN(auto strategy, MakeStrategy(strategy_name));
  VERITAS_ASSIGN_OR_RETURN(long top, args.GetInt("top", 10));

  AccuFusion model;
  FusionOptions opts;
  PriorSet priors;
  const CompiledDatabase compiled(db);
  const FusionResult fusion = model.Fuse(compiled, priors, opts);
  Rng rng(42);
  GroundTruth truth(db);
  if (args.Has("truth")) {
    VERITAS_ASSIGN_OR_RETURN(truth, RequireTruth(args, db));
  }

  StrategyContext ctx;
  ctx.compiled = &compiled;
  ctx.fusion = &fusion;
  ctx.priors = &priors;
  ctx.model = &model;
  ctx.fusion_opts = &opts;
  ctx.ground_truth = &truth;
  ctx.rng = &rng;

  const std::vector<ItemId> ranked =
      strategy->SelectBatch(ctx, static_cast<std::size_t>(top));
  TextTable table({"#", "item", "vote entropy", "output entropy"});
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    table.AddRow({std::to_string(r + 1), db.item(ranked[r]).name,
                  Num(VoteEntropy(compiled, ranked[r]), 3),
                  Num(fusion.ItemEntropy(ranked[r]), 3)});
  }
  std::cout << "next items to validate (strategy=" << strategy_name
            << "):\n";
  table.Print(std::cout);
  return Status::OK();
}

Status RunSession(const ArgMap& args) {
  // Observability sinks. The trace recorder must be live before any
  // instrumented code runs, so this precedes the session construction.
  const std::string metrics_out = args.GetString("metrics-out");
  const std::string chrome_trace_out = args.GetString("trace-out");
  if (!chrome_trace_out.empty()) TraceRecorder::Global().Enable();

  VERITAS_ASSIGN_OR_RETURN(Database db, RequireData(args));
  VERITAS_ASSIGN_OR_RETURN(GroundTruth truth, RequireTruth(args, db));
  VERITAS_ASSIGN_OR_RETURN(long threads, args.GetInt("threads", 1));
  if (threads < 1) {
    return Status::InvalidArgument("--threads must be >= 1");
  }
  VERITAS_ASSIGN_OR_RETURN(
      auto strategy, MakeStrategy(args.GetString("strategy", "approx_meu"),
                                  static_cast<std::size_t>(threads)));
  VERITAS_ASSIGN_OR_RETURN(auto oracle,
                           MakeOracle(args.GetString("oracle", "perfect")));
  VERITAS_ASSIGN_OR_RETURN(long budget, args.GetInt("budget", 20));
  VERITAS_ASSIGN_OR_RETURN(long batch, args.GetInt("batch", 1));
  VERITAS_ASSIGN_OR_RETURN(long seed, args.GetInt("seed", 42));

  // Optional resilience decorators: --flaky injects deterministic oracle
  // faults (testing degraded mode), --retries wraps the chain in a
  // RetryPolicy so transient faults are retried before the session skips.
  FeedbackOracle* oracle_ptr = oracle.get();
  std::unique_ptr<FlakyOracle> flaky;
  if (args.Has("flaky")) {
    VERITAS_ASSIGN_OR_RETURN(FaultPlan plan,
                             ParseFaultPlan(args.GetString("flaky")));
    flaky = std::make_unique<FlakyOracle>(
        oracle_ptr, plan, static_cast<std::uint64_t>(seed));
    oracle_ptr = flaky.get();
  }
  // The wall-clock budget is parsed before the retry decorator so the retry
  // policy can refuse backoffs that would overrun it (see below where the
  // same deadline bounds the session itself).
  Deadline session_deadline;
  if (args.Has("deadline-ms")) {
    VERITAS_ASSIGN_OR_RETURN(long deadline_ms, args.GetInt("deadline-ms", 0));
    if (deadline_ms < 0) {
      return Status::InvalidArgument("--deadline-ms must be >= 0");
    }
    session_deadline = Deadline::AfterMillis(deadline_ms);
  }
  std::unique_ptr<RetryingOracle> retrying;
  VERITAS_ASSIGN_OR_RETURN(long retries, args.GetInt("retries", 0));
  if (retries > 0) {
    RetryPolicy policy;
    policy.max_attempts = static_cast<std::size_t>(retries) + 1;
    // Retrying must not outlive the session: stop scheduling backoff once
    // the deadline is near, and abandon the loop outright on Ctrl-C.
    policy.session_deadline = session_deadline;
    policy.cancel = &g_session_cancel;
    retrying = std::make_unique<RetryingOracle>(oracle_ptr, policy);
    oracle_ptr = retrying.get();
  }

  VERITAS_ASSIGN_OR_RETURN(auto model,
                           MakeFusionModel(args.GetString("model", "accu")));
  SessionOptions options;
  // --no-delta forces the MEU-family lookaheads onto full re-fusions; with
  // the flag absent, models with local-update structure answer them with the
  // incremental DeltaFusionEngine. Post-feedback re-fusions are full warm
  // Fuses either way.
  options.fusion.use_delta_fusion = !args.GetBool("no-delta");
  // --shards > 1 routes MEU's candidate scan through the two-stage sharded
  // protocol (DESIGN.md §5h); 1 is the classic flat scan. MEU only: every
  // other strategy runs its flat scan whatever the shard count.
  VERITAS_ASSIGN_OR_RETURN(long shards, args.GetInt("shards", 1));
  if (shards < 1) {
    return Status::InvalidArgument("--shards must be >= 1");
  }
  options.fusion.shards = static_cast<std::size_t>(shards);
  options.max_validations = static_cast<std::size_t>(budget);
  options.batch_size = static_cast<std::size_t>(batch);
  options.checkpoint_path = args.GetString("checkpoint");
  options.resume_path = args.GetString("resume");
  VERITAS_ASSIGN_OR_RETURN(long every, args.GetInt("checkpoint-every", 1));
  if (every < 1) {
    return Status::InvalidArgument("--checkpoint-every must be >= 1");
  }
  options.checkpoint_every_rounds = static_cast<std::size_t>(every);

  // Wall-clock budget and Ctrl-C support. Both stop paths surface as
  // DeadlineExceeded, which main() maps to exit code 3 (distinct from hard
  // errors) so scripts can distinguish "interrupted, resume me" from
  // "failed".
  options.deadline = session_deadline;
  options.cancel = &g_session_cancel;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  Rng rng(static_cast<std::uint64_t>(seed));
  FeedbackSession session(db, *model, strategy.get(), oracle_ptr, truth,
                          options, &rng);
  auto trace_or = session.Run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (!trace_or.ok()) {
    if (trace_or.status().code() == StatusCode::kDeadlineExceeded &&
        !options.checkpoint_path.empty()) {
      std::cerr << "note: re-run with --resume " << options.checkpoint_path
                << " to continue where this session left off\n";
    }
    return trace_or.status();
  }
  SessionTrace trace = std::move(trace_or).value();

  TextTable table({"validated", "item(s)", "distance", "uncertainty",
                   "select time"});
  for (const SessionStep& step : trace.steps) {
    std::string items;
    for (std::size_t j = 0; j < step.items.size(); ++j) {
      if (j > 0) items += ", ";
      items += db.item(step.items[j]).name;
    }
    table.AddRow({std::to_string(step.num_validated), items,
                  Num(step.distance, 4), Num(step.uncertainty, 3),
                  Secs(step.select_seconds)});
  }
  std::cout << "initial: distance=" << Num(trace.initial_distance, 4)
            << " uncertainty=" << Num(trace.initial_uncertainty, 3) << "\n";
  table.Print(std::cout);
  const std::string steps_out = args.GetString("steps-out");
  if (!steps_out.empty()) {
    VERITAS_RETURN_IF_ERROR(WriteTraceCsv(trace, db, steps_out));
    std::cout << "wrote per-step trace to " << steps_out << "\n";
  }
  if (!metrics_out.empty()) {
    VERITAS_RETURN_IF_ERROR(
        MetricsRegistry::Global().WriteJsonFile(metrics_out));
    std::cout << "wrote metrics snapshot to " << metrics_out << "\n";
  }
  if (!chrome_trace_out.empty()) {
    VERITAS_RETURN_IF_ERROR(
        TraceRecorder::Global().WriteChromeJson(chrome_trace_out));
    std::cout << "wrote Chrome trace to " << chrome_trace_out
              << " (open in Perfetto or chrome://tracing)\n";
  }
  if (!trace.steps.empty()) {
    std::cout << "final distance reduction: "
              << Pct(trace.DistanceReductionPercent(trace.steps.size() - 1))
              << "\n";
  }
  if (!trace.skipped_items.empty() || trace.total_oracle_retries > 0 ||
      trace.fusion_nonconverged_rounds > 0 ||
      trace.fusion_fallback_rounds > 0) {
    std::cout << "resilience: skipped=" << trace.skipped_items.size()
              << " retries=" << trace.total_oracle_retries
              << " nonconverged_rounds=" << trace.fusion_nonconverged_rounds
              << " fusion_fallbacks=" << trace.fusion_fallback_rounds << "\n";
  }
  if (!options.checkpoint_path.empty()) {
    std::cout << "checkpoint written to " << options.checkpoint_path << "\n";
  }
  return Status::OK();
}

Status RunGenerate(const ArgMap& args) {
  const std::string out = args.GetString("out");
  if (out.empty()) {
    return Status::InvalidArgument("--out <observations.csv> is required");
  }
  VERITAS_ASSIGN_OR_RETURN(long items, args.GetInt("items", 500));
  VERITAS_ASSIGN_OR_RETURN(long sources, args.GetInt("sources", 38));
  VERITAS_ASSIGN_OR_RETURN(double density, args.GetDouble("density", 0.4));
  VERITAS_ASSIGN_OR_RETURN(double copiers, args.GetDouble("copiers", 0.0));
  VERITAS_ASSIGN_OR_RETURN(long seed, args.GetInt("seed", 42));
  const std::string shape = args.GetString("shape", "dense");

  SyntheticDataset data;
  if (shape == "dense") {
    DenseConfig config;
    config.num_items = static_cast<std::size_t>(items);
    config.num_sources = static_cast<std::size_t>(sources);
    config.density = density;
    config.copier_fraction = copiers;
    config.seed = static_cast<std::uint64_t>(seed);
    data = GenerateDense(config);
  } else if (shape == "longtail") {
    LongTailConfig config;
    config.num_items = static_cast<std::size_t>(items);
    config.num_sources = static_cast<std::size_t>(sources);
    config.copier_fraction = copiers;
    config.seed = static_cast<std::uint64_t>(seed);
    data = GenerateLongTail(config);
  } else {
    return Status::InvalidArgument("--shape must be dense or longtail");
  }
  VERITAS_RETURN_IF_ERROR(SaveObservations(data.db, out));
  std::cout << "wrote " << data.db.num_observations() << " observations to "
            << out << "\n";
  const std::string truth_out = args.GetString("truth-out");
  if (!truth_out.empty()) {
    VERITAS_RETURN_IF_ERROR(SaveGroundTruth(data.db, data.truth, truth_out));
    std::cout << "wrote " << data.truth.num_known() << " truths to "
              << truth_out << "\n";
  }
  return Status::OK();
}

Status RunCanonicalize(const ArgMap& args) {
  VERITAS_ASSIGN_OR_RETURN(Database db, RequireData(args));
  const std::string out = args.GetString("out");
  if (out.empty()) {
    return Status::InvalidArgument("--out <canonical.csv> is required");
  }
  CanonicalizeOptions options;
  VERITAS_ASSIGN_OR_RETURN(options.numeric_tolerance,
                           args.GetDouble("tolerance", 10.0));
  VERITAS_ASSIGN_OR_RETURN(CanonicalizeReport report,
                           CanonicalizeValues(db, options));
  VERITAS_RETURN_IF_ERROR(SaveObservations(report.db, out));
  std::cout << "merged " << report.merged_claims << " claims across "
            << report.numeric_items << " numeric items; wrote " << out
            << "\n";
  return Status::OK();
}

Status Dispatch(const ArgMap& args) {
  const std::string& command = args.command();
  if (command == "stats") return RunStats(args);
  if (command == "fuse") return RunFuse(args);
  if (command == "rank") return RunRank(args);
  if (command == "session") return RunSession(args);
  if (command == "generate") return RunGenerate(args);
  if (command == "canonicalize") return RunCanonicalize(args);
  if (command.empty() || command == "help") {
    PrintUsage();
    return Status::OK();
  }
  return Status::NotFound("unknown command: " + command);
}

}  // namespace
}  // namespace veritas

int main(int argc, char** argv) {
  const auto args = veritas::ArgMap::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << "error: " << args.status() << "\n";
    return 2;
  }
  const veritas::Status status = veritas::Dispatch(*args);
  if (!status.ok()) {
    // Deadline expiry / Ctrl-C is an orderly, resumable stop, not a failure:
    // give it its own exit code so wrappers can tell the two apart.
    if (status.code() == veritas::StatusCode::kDeadlineExceeded) {
      std::cerr << "interrupted: " << status << "\n";
      return 3;
    }
    std::cerr << "error: " << status << "\n";
    return 1;
  }
  return 0;
}
