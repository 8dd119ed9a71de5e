// veritas_replay — stream a generated dataset in timestamp order through a
// feedback session and measure steady-state ingest rate against fusion
// staleness (the wall time from batch receipt to the re-fused state that
// includes it).
//
// The generator stamps every observation with an order-preserving timestamp
// (data/synthetic.h, emit_stream), so replaying the sorted stream into an
// initially empty StreamingDatabase reproduces the batch-built database with
// identical ids. Ground-truth rows are disclosed at their own timestamps and
// ride the first batch whose horizon reaches them; the session defers rows
// whose item has not arrived yet.
//
// Usage:
//   veritas_replay [--shape dense|longtail] [--items 300] [--sources 40]
//                  [--density 0.4] [--copiers 0] [--seed 42]
//                  [--revisions 0.0]       fraction of late corrective
//                                          re-observations (last-write-wins)
//                  [--batch-obs 64]        observations per ingest batch
//                  [--budget 20] [--batch 1] [--strategy approx_meu]
//                  [--oracle perfect] [--model accu]
//                  [--no-delta]            full re-fusion for MEU lookaheads
//                  [--deadline-ms N]
//                  [--json BENCH_fusion.json]   merge a replay_ingest record
//                  [--metrics-out metrics.json]
#include <algorithm>
#include <csignal>
#include <iostream>
#include <string>
#include <utility>

#include "core/metrics.h"
#include "core/oracle.h"
#include "core/session.h"
#include "core/strategy_factory.h"
#include "data/synthetic.h"
#include "exp/bench_json.h"
#include "exp/report.h"
#include "fusion/fusion_factory.h"
#include "model/streaming_database.h"
#include "obs/metrics.h"
#include "util/args.h"
#include "util/cancellation.h"
#include "util/timer.h"

namespace veritas {
namespace {

CancellationToken g_cancel;

extern "C" void HandleStopSignal(int /*signum*/) { g_cancel.RequestStop(); }

Status RunReplay(const ArgMap& args) {
  VERITAS_ASSIGN_OR_RETURN(long items, args.GetInt("items", 300));
  VERITAS_ASSIGN_OR_RETURN(long sources, args.GetInt("sources", 40));
  VERITAS_ASSIGN_OR_RETURN(double density, args.GetDouble("density", 0.4));
  VERITAS_ASSIGN_OR_RETURN(double copiers, args.GetDouble("copiers", 0.0));
  VERITAS_ASSIGN_OR_RETURN(long seed, args.GetInt("seed", 42));
  VERITAS_ASSIGN_OR_RETURN(double revisions, args.GetDouble("revisions", 0.0));
  VERITAS_ASSIGN_OR_RETURN(long batch_obs, args.GetInt("batch-obs", 64));
  VERITAS_ASSIGN_OR_RETURN(long budget, args.GetInt("budget", 20));
  VERITAS_ASSIGN_OR_RETURN(long batch, args.GetInt("batch", 1));
  const std::string shape = args.GetString("shape", "dense");
  if (batch_obs < 1) {
    return Status::InvalidArgument("--batch-obs must be >= 1");
  }

  SyntheticDataset data;
  if (shape == "dense") {
    DenseConfig config;
    config.num_items = static_cast<std::size_t>(items);
    config.num_sources = static_cast<std::size_t>(sources);
    config.density = density;
    config.copier_fraction = copiers;
    config.seed = static_cast<std::uint64_t>(seed);
    config.emit_stream = true;
    config.revision_fraction = revisions;
    data = GenerateDense(config);
  } else if (shape == "longtail") {
    LongTailConfig config;
    config.num_items = static_cast<std::size_t>(items);
    config.num_sources = static_cast<std::size_t>(sources);
    config.copier_fraction = copiers;
    config.seed = static_cast<std::uint64_t>(seed);
    config.emit_stream = true;
    config.revision_fraction = revisions;
    data = GenerateLongTail(config);
  } else {
    return Status::InvalidArgument("--shape must be dense or longtail");
  }

  // Replay strictly in timestamp order. The generator's stamps are
  // order-preserving, so this sort is a no-op for untouched datasets and an
  // explicit contract for anything that reorders the log upstream.
  std::stable_sort(data.stream.begin(), data.stream.end(),
                   [](const StreamObservation& a, const StreamObservation& b) {
                     return a.timestamp < b.timestamp;
                   });

  // The session starts against an *empty* database; everything arrives
  // through the feed.
  StreamingDatabase stream{Database()};
  GroundTruth truth(stream.db());
  VectorFeed feed(std::move(data.stream), std::move(data.truth_stream),
                  static_cast<std::size_t>(batch_obs));

  VERITAS_ASSIGN_OR_RETURN(
      auto strategy, MakeStrategy(args.GetString("strategy", "approx_meu")));
  VERITAS_ASSIGN_OR_RETURN(auto oracle,
                           MakeOracle(args.GetString("oracle", "perfect")));
  VERITAS_ASSIGN_OR_RETURN(auto model,
                           MakeFusionModel(args.GetString("model", "accu")));

  SessionOptions options;
  // --no-delta only affects the MEU-family lookaheads; every ingest tick and
  // validation round re-fuses with one warm Fuse either way.
  options.fusion.use_delta_fusion = !args.GetBool("no-delta");
  options.max_validations = static_cast<std::size_t>(budget);
  options.batch_size = static_cast<std::size_t>(batch);
  options.streaming.stream = &stream;
  options.streaming.feed = &feed;
  options.streaming.truth = &truth;
  // The perfect oracle hard-fails on unknown truth; with the filter on, an
  // item whose truth row has not streamed in yet simply waits its turn.
  options.streaming.require_known_truth = true;
  options.cancel = &g_cancel;
  if (args.Has("deadline-ms")) {
    VERITAS_ASSIGN_OR_RETURN(long deadline_ms, args.GetInt("deadline-ms", 0));
    if (deadline_ms < 0) {
      return Status::InvalidArgument("--deadline-ms must be >= 0");
    }
    options.deadline = Deadline::AfterMillis(deadline_ms);
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  Rng rng(static_cast<std::uint64_t>(seed));
  FeedbackSession session(stream.db(), *model, strategy.get(), oracle.get(),
                          truth, options, &rng);
  Timer run_timer;
  auto trace_or = session.Run();
  const double session_seconds = run_timer.ElapsedSeconds();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  VERITAS_RETURN_IF_ERROR(trace_or.status());
  const SessionTrace trace = std::move(trace_or).value();

  // Feedback quality. The session started on the empty database, so its own
  // initial distance is 0; compare instead against a no-feedback fusion of
  // the database the session ended on (untimed, before the drain grows it).
  const double feedback_distance =
      DistanceToGroundTruth(trace.final_fusion, truth);
  const double baseline_distance =
      DistanceToGroundTruth(model->Fuse(stream.db(), options.fusion), truth);
  const double distance_reduction =
      baseline_distance > 0.0
          ? (feedback_distance - baseline_distance) / baseline_distance * 100.0
          : 0.0;

  // The validation budget usually ends the session before the feed runs dry;
  // drain the rest so the replay covers the whole dataset (no fusion behind
  // these batches — the staleness histogram measures only interleaved ticks).
  Timer drain_timer;
  IngestBatch rest;
  std::size_t drained_batches = 0;
  while (feed.Next(&rest)) {
    VERITAS_RETURN_IF_ERROR(stream.AppendBatch(rest).status());
    ++drained_batches;
  }
  const double run_seconds = session_seconds + drain_timer.ElapsedSeconds();
  const IngestStats& totals = stream.totals();

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* staleness =
      snap.FindHistogram("ingest.staleness_seconds");
  const double stale_p50 = staleness != nullptr ? staleness->Quantile(0.50) : 0;
  const double stale_p90 = staleness != nullptr ? staleness->Quantile(0.90) : 0;
  const double stale_p99 = staleness != nullptr ? staleness->Quantile(0.99) : 0;
  const double stale_max = staleness != nullptr ? staleness->max : 0;
  const double ingest_rate =
      run_seconds > 0.0
          ? static_cast<double>(totals.fresh + totals.revisions) / run_seconds
          : 0.0;
  const std::size_t stale_violations = static_cast<std::size_t>(
      snap.Value("delta.stale_view_violations", 0.0));

  TextTable table({"metric", "value"});
  table.AddRow({"stream shape", shape});
  table.AddRow({"ingest batches (interleaved)",
                std::to_string(trace.ingest_batches)});
  table.AddRow({"ingest batches (drained)",
                std::to_string(drained_batches)});
  table.AddRow({"observations ingested", std::to_string(totals.fresh)});
  table.AddRow({"revisions (last-write-wins)",
                std::to_string(totals.revisions)});
  table.AddRow({"duplicates ignored", std::to_string(totals.duplicates)});
  table.AddRow({"truths applied", std::to_string(trace.truths_applied)});
  table.AddRow({"truths still deferred",
                std::to_string(trace.truths_deferred)});
  table.AddRow({"final epoch", std::to_string(stream.epoch())});
  table.AddRow({"items validated",
                std::to_string(trace.steps.empty()
                                   ? 0
                                   : trace.steps.back().num_validated)});
  table.AddRow({"steady-state ingest rate", Num(ingest_rate, 1) + " obs/s"});
  table.AddRow({"fusion staleness p50", Secs(stale_p50)});
  table.AddRow({"fusion staleness p90", Secs(stale_p90)});
  table.AddRow({"fusion staleness p99", Secs(stale_p99)});
  table.AddRow({"fusion staleness max", Secs(stale_max)});
  table.AddRow({"stale-view violations", std::to_string(stale_violations)});
  table.Print(std::cout);
  std::cout << "final distance reduction: " << Pct(distance_reduction)
            << "\n";

  const std::string metrics_out = args.GetString("metrics-out");
  if (!metrics_out.empty()) {
    VERITAS_RETURN_IF_ERROR(
        MetricsRegistry::Global().WriteJsonFile(metrics_out));
    std::cout << "wrote metrics snapshot to " << metrics_out << "\n";
  }

  const std::string json_out = args.GetString("json");
  if (!json_out.empty()) {
    BenchJsonFile doc("veritas-bench-fusion-v1");
    BenchJsonRecord& rec = doc.Add("replay_ingest");
    rec.Set("shape", shape)
        .Set("items", static_cast<std::size_t>(items))
        .Set("sources", static_cast<std::size_t>(sources))
        .Set("batch_obs", static_cast<std::size_t>(batch_obs))
        .Set("revision_fraction", revisions)
        .Set("ingest_batches", trace.ingest_batches + drained_batches)
        .Set("observations_ingested", totals.fresh)
        .Set("revisions", totals.revisions)
        .Set("final_epoch", static_cast<std::size_t>(stream.epoch()))
        .Set("run_seconds", run_seconds)
        .Set("ingest_obs_per_second", ingest_rate)
        .Set("staleness_p50_seconds", stale_p50)
        .Set("staleness_p90_seconds", stale_p90)
        .Set("staleness_p99_seconds", stale_p99)
        .Set("staleness_max_seconds", stale_max)
        .Set("stale_view_violations", stale_violations)
        .Set("distance_reduction_pct", distance_reduction);
    // Upsert by name only: reruns replace the previous replay_ingest record,
    // every other bench binary's records survive untouched.
    VERITAS_RETURN_IF_ERROR(doc.MergeInto(json_out));
    std::cout << "merged replay_ingest record into " << json_out << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace veritas

int main(int argc, char** argv) {
  const auto args = veritas::ArgMap::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << "error: " << args.status() << "\n";
    return 2;
  }
  const veritas::Status status = veritas::RunReplay(*args);
  if (!status.ok()) {
    if (status.code() == veritas::StatusCode::kDeadlineExceeded) {
      std::cerr << "interrupted: " << status << "\n";
      return 3;
    }
    std::cerr << "error: " << status << "\n";
    return 1;
  }
  return 0;
}
