#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "core/oracle.h"
#include "core/session.h"
#include "core/strategy_factory.h"
#include "data/synthetic.h"
#include "fusion/fusion_factory.h"
#include "model/compiled_database.h"
#include "model/item_graph.h"
#include "model/streaming_database.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "serve/session_supervisor.h"

namespace perfbench {
namespace {

using namespace veritas;  // NOLINT: the benchmark drives the whole library.

// ---------------------------------------------------------------- output

void Put(RunResult* r, const std::string& name, double value,
         const std::string& unit, std::size_t samples = 0) {
  r->metrics[name] = Metric{value, unit, samples};
}

void PutQuantile(RunResult* r, const std::string& name, const Samples& s,
                 double q) {
  Put(r, name, s.Quantile(q), "s", s.count());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double CounterValue(const MetricsSnapshot& snap, const std::string& name) {
  return snap.Value(name, 0.0);
}

double HistQuantile(const MetricsSnapshot& snap, const std::string& name,
                    double q, std::size_t* count) {
  const HistogramSnapshot* h = snap.FindHistogram(name);
  *count = h != nullptr ? h->count : 0;
  return h != nullptr ? h->Quantile(q) : 0.0;
}

// Durations of every span called `name`, as samples.
Samples SpanDurations(const std::vector<TraceEvent>& events,
                      const std::string& name) {
  Samples s;
  for (const TraceEvent& e : events) {
    if (e.name == name) s.Add(e.dur_us * 1e-6);
  }
  return s;
}

bool IsProgramSpan(const std::string& name) {
  return name.rfind("bench.", 0) != 0;
}

// Layer of a program or bench span, for the per-layer self times.
std::string LayerOf(const std::string& span) {
  if (span == "session.ingest") return "model";
  if (span.rfind("fuse.", 0) == 0 || span.rfind("delta.", 0) == 0) {
    return "fusion";
  }
  if (span.rfind("bench.net.", 0) == 0) return "net";
  if (span.rfind("session.", 0) == 0 || span.rfind("strategy.", 0) == 0 ||
      span.rfind("oracle.", 0) == 0) {
    return "core";
  }
  return "";
}

void PutLayerSelfTimes(RunResult* r, const SpanTimes& spans,
                       double validations) {
  std::map<std::string, double> self;
  for (const auto& [name, secs] : spans.self_s) self[LayerOf(name)] += secs;
  for (const char* layer : {"core", "fusion", "model", "net"}) {
    Put(r, std::string(layer) + ".self_s_per_validation",
        Ratio(self[layer], validations), "s");
  }
}

// Writes the recorder's spans as a Chrome trace next to the other outputs.
void WriteTrace(const RunConfig& config, RunResult* r) {
  const std::string path = config.out_dir + "/trace-" + config.workload +
                           "-" + std::to_string(config.seed) + ".json";
  const Status st = TraceRecorder::Global().WriteChromeJson(path);
  if (!st.ok()) {
    r->errors.push_back("chrome trace not written: " + st.ToString());
  }
  r->notes["chrome_trace"] = path;
}

void ResetObservability() {
  MetricsRegistry::Global().Reset();
  TraceRecorder::Global().Disable();
  TraceRecorder::Global().Clear();
}

// ---------------------------------------------------------------- snapshots

// The table11 Books-like long-tail shape (exp/scale.cc MakeBooksLike, small
// preset), with every item's true value among its claims so a perfect
// oracle can always answer. The coverage tail is lighter (Pareto 2.0, not
// 0.7): at 0.7 one snapshot's MEU session costs anywhere from 5 ms to 1 s,
// and no affordable number of snapshots per run steadies the median.
SyntheticDataset BooksLike(std::uint64_t seed, bool small) {
  LongTailConfig c;
  c.num_items = small ? 120 : 300;
  c.num_sources = small ? 90 : 210;
  c.avg_votes_per_item = 19.0;
  c.pareto_alpha = 2.0;
  c.max_coverage_fraction = 0.5;
  c.accuracy_mean = 0.7;
  c.accuracy_sd = 0.15;
  c.copier_fraction = 0.3;
  c.ensure_true_claim = true;
  c.seed = seed;
  return GenerateLongTail(c);
}

// A small dense flights-like snapshot (38 sources, heavy copying).
DenseConfig FlightsLike(std::size_t items, std::uint64_t seed) {
  DenseConfig c;
  c.num_items = items;
  c.num_sources = 38;
  c.density = 0.36;
  c.accuracy_mean = 0.75;
  c.accuracy_sd = 0.1;
  c.copier_fraction = 0.5;
  c.ensure_true_claim = true;
  c.seed = seed;
  return c;
}

// ---------------------------------------------------------------- in-process

struct InProcessSpec {
  std::string strategy;
  std::size_t lanes = 1;
  std::size_t rounds = 10;
  /// Sessions per requested second, calibrated so a run of --seconds
  /// measures for about that long on a 4-core x86 VM.
  double sessions_per_second = 1.0;
  bool streaming = false;
  /// Also run the first reference session at 1 lane; its selections must
  /// equal the `lanes`-lane run (the thread-invariance contract).
  bool check_lanes = false;
};

// One snapshot a session runs on. Streaming snapshots hold the observation
// stream split into a preloaded prefix and the tail fed one batch per round.
struct Prepared {
  SyntheticDataset data;
  std::vector<StreamObservation> prefix;
  std::vector<StreamObservation> tail;
  std::vector<StreamTruth> truths;
  std::size_t batch_obs = 0;
};

struct Snapshots {
  std::vector<Prepared> list;
  /// Per-snapshot set-up: generate, compile, graph.
  Samples setup;
  Samples compile;
  Samples graph;
  Samples initial_fuse;
};

Result<Prepared> MakeSnapshot(const std::string& workload, std::size_t index,
                              const RunConfig& config,
                              const InProcessSpec& spec) {
  const std::uint64_t seed = config.seed * 1000 + index;
  Prepared p;
  if (workload == "meu_books") {
    VERITAS_SPAN("bench.setup.generate");
    p.data = BooksLike(seed, config.small);
  } else {
    DenseConfig c = FlightsLike(config.small ? 60 : 160, seed);
    c.emit_stream = true;
    c.revision_fraction = 0.05;
    {
      VERITAS_SPAN("bench.setup.generate");
      p.data = GenerateDense(c);
    }
    std::vector<StreamObservation> stream = std::move(p.data.stream);
    std::stable_sort(
        stream.begin(), stream.end(),
        [](const StreamObservation& a, const StreamObservation& b) {
          return a.timestamp < b.timestamp;
        });
    const std::size_t cut = stream.size() / 2;
    p.prefix.assign(stream.begin(), stream.begin() + cut);
    p.tail.assign(stream.begin() + cut, stream.end());
    p.truths = std::move(p.data.truth_stream);
    std::stable_sort(p.truths.begin(), p.truths.end(),
                     [](const StreamTruth& a, const StreamTruth& b) {
                       return a.timestamp < b.timestamp;
                     });
    // The tail drains over the session's rounds: one batch per round.
    p.batch_obs = (p.tail.size() + spec.rounds - 1) / spec.rounds;
  }
  return p;
}

// Generates `count` snapshots (replacing out->list) and times the model
// layer's constructors on each; timings accumulate across calls.
Status SetUpSnapshots(const RunConfig& config, const InProcessSpec& spec,
                      std::size_t count, const FusionModel& model,
                      Snapshots* s) {
  s->list.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const double start = NowSeconds();
    VERITAS_ASSIGN_OR_RETURN(Prepared p,
                             MakeSnapshot(config.workload, i, config, spec));
    const Database& db = p.data.db;
    double t = NowSeconds();
    std::optional<CompiledDatabase> compiled;
    {
      VERITAS_SPAN("bench.setup.compile");
      compiled.emplace(db);
    }
    s->compile.Add(NowSeconds() - t);
    t = NowSeconds();
    {
      VERITAS_SPAN("bench.setup.graph");
      const ItemGraph graph(db);
      (void)graph;
    }
    s->graph.Add(NowSeconds() - t);
    s->setup.Add(NowSeconds() - start);
    t = NowSeconds();
    {
      VERITAS_SPAN("bench.setup.fuse");
      const FusionResult fused = model.Fuse(db, FusionOptions());
      if (!fused.AllFinite()) return Status::Internal("non-finite fusion");
    }
    s->initial_fuse.Add(NowSeconds() - t);
    s->list.push_back(std::move(p));
  }
  return Status::OK();
}

// Runs one session on `snap`. The streaming reset (a fresh live database
// with the prefix preloaded) happens before `clock->open`, outside every
// timed interval.
Result<SessionTrace> RunSession(const InProcessSpec& spec, const Prepared& snap,
                                const FusionModel& model, Strategy* strategy,
                                FeedbackOracle* oracle, std::uint64_t seed,
                                QuestionClock* clock) {
  SessionOptions options;
  options.max_validations = spec.rounds;
  Rng rng(seed);
  if (!spec.streaming) {
    if (clock != nullptr) clock->open = NowSeconds();
    VERITAS_SPAN("bench.session");
    FeedbackSession session(snap.data.db, model, strategy, oracle,
                            snap.data.truth, options, &rng);
    return session.Run();
  }
  StreamingDatabase stream{Database()};
  IngestBatch preload;
  preload.observations = snap.prefix;
  VERITAS_RETURN_IF_ERROR(stream.AppendBatch(preload).status());
  stream.Compact();
  std::vector<ItemId> dirty_items;
  std::vector<SourceId> dirty_sources;
  stream.TakeDirty(&dirty_items, &dirty_sources);
  GroundTruth truth(stream.db());
  std::vector<StreamTruth> pending;
  for (const StreamTruth& t : snap.truths) {
    if (!truth.SetByValue(stream.db(), t.item, t.value).ok()) {
      pending.push_back(t);
    }
  }
  VectorFeed feed(snap.tail, std::move(pending), snap.batch_obs);
  options.streaming.stream = &stream;
  options.streaming.feed = &feed;
  options.streaming.truth = &truth;
  options.streaming.require_known_truth = true;
  if (clock != nullptr) clock->open = NowSeconds();
  VERITAS_SPAN("bench.session");
  FeedbackSession session(stream.db(), model, strategy, oracle, truth, options,
                          &rng);
  return session.Run();
}

// Session-level accumulators of one timed block (traced or untraced).
struct Block {
  Samples first_question;
  Samples question;
  Samples select;
  Samples session;
  Samples refuse;
  /// Per-session validations per wall second and CPU seconds per
  /// validation; their medians resist the rare pathological snapshot.
  Samples rate;
  Samples cpu_per_validation;
  double question_sum = 0.0;
  double question_select_sum = 0.0;
  double select_cpu = 0.0;
  double select_wall = 0.0;
  std::size_t validations = 0;
  std::vector<std::pair<double, double>> intervals;
};

std::size_t SessionCount(const RunConfig& config, const InProcessSpec& spec) {
  // Even, so the traced run can pair every untraced session with a traced
  // one on the same snapshot.
  if (config.small) return 2;
  const double want = config.seconds * spec.sessions_per_second;
  return 2 * std::max<std::size_t>(
                 1, static_cast<std::size_t>(std::ceil(want / 2)));
}

InProcessSpec SpecFor(const std::string& workload, bool small) {
  InProcessSpec spec;
  if (workload == "meu_books") {
    spec.strategy = "meu";
    spec.lanes = 2;
    spec.rounds = 5;
    spec.sessions_per_second = 14.0;
    spec.check_lanes = true;
  } else {  // stream_approx
    spec.strategy = "approx_meu";
    spec.lanes = 1;
    spec.rounds = small ? 5 : 20;
    spec.sessions_per_second = 3.5;
    spec.streaming = true;
  }
  return spec;
}

RunResult RunInProcess(const RunConfig& config) {
  RunResult r;
  const InProcessSpec spec = SpecFor(config.workload, config.small);
  auto model_or = MakeFusionModel("accu");
  if (!model_or.ok()) {
    r.errors.push_back(model_or.status().ToString());
    return r;
  }
  const FusionModel& model = **model_or;

  // --- Set-up, done twice; the median per-snapshot time is setup_s. The
  // second set stays. Every session gets a snapshot of its own (every
  // untraced/traced pair in the traced run), so one run averages over
  // many draws of the seed's data instead of resting on one.
  const std::size_t sessions = SessionCount(config, spec);
  const std::size_t num_snapshots = config.trace ? sessions / 2 : sessions;
  const auto snapshot_of = [&](std::size_t i) {
    return config.trace ? i / 2 : i;
  };
  Snapshots snaps;
  for (int rep = 0; rep < 2; ++rep) {
    const Status st =
        SetUpSnapshots(config, spec, num_snapshots, model, &snaps);
    if (!st.ok()) {
      r.errors.push_back("set-up failed: " + st.ToString());
      return r;
    }
  }
  const Samples& setup = snaps.setup;

  // --- Warm-up and reference selections (untimed, undecorated).
  const auto make_strategy = [&](std::size_t lanes) {
    return MakeStrategy(spec.strategy, lanes);
  };
  std::uint64_t reference = 0;
  {
    auto strategy = make_strategy(spec.lanes);
    PerfectOracle oracle;
    auto trace = RunSession(spec, snaps.list[0], model, strategy->get(),
                            &oracle, config.seed, nullptr);
    if (!trace.ok()) {
      r.errors.push_back("reference session failed: " +
                         trace.status().ToString());
      return r;
    }
    reference = SelectionDigest(*trace);
  }
  if (spec.check_lanes) {
    auto strategy = make_strategy(1);
    PerfectOracle oracle;
    auto trace = RunSession(spec, snaps.list[0], model, strategy->get(),
                            &oracle, config.seed, nullptr);
    if (!trace.ok() || SelectionDigest(*trace) != reference) {
      r.errors.push_back("selections differ between 1 and " +
                         std::to_string(spec.lanes) + " lanes");
    }
  }
  if (config.force_mismatch) reference ^= 1;

  // --- Timed phase: a fixed number of sessions. The traced run runs each
  // snapshot twice, untraced then traced.
  ResetObservability();
  Block untraced;
  Block traced;
  std::vector<std::optional<std::uint64_t>> snapshot_digest(num_snapshots);
  Digest all;
  Samples quality;
  std::size_t nonconverged = 0;
  std::size_t rounds = 0;
  double appended = 0.0, revisions = 0.0, compactions = 0.0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const std::size_t snap = snapshot_of(i);
    const bool trace_on = config.trace && i % 2 == 1;
    if (trace_on) {
      TraceRecorder::Global().Enable();
    } else {
      TraceRecorder::Global().Disable();
    }
    Block& block = trace_on ? traced : untraced;
    QuestionClock clock;
    clock.first_question = &block.first_question;
    clock.question = &block.question;
    clock.select = &block.select;
    clock.measure_cpu = config.trace;
    auto strategy = make_strategy(spec.lanes);
    TimedStrategy timed_strategy(strategy->get(), &clock);
    PerfectOracle perfect;
    TimedOracle timed_oracle(&perfect, &clock);
    ++r.attempted;
    const double session_cpu0 = ProcessCpuSeconds();
    auto trace = RunSession(spec, snaps.list[snap], model, &timed_strategy,
                            &timed_oracle, config.seed, &clock);
    const double end = NowSeconds();
    const double session_cpu = ProcessCpuSeconds() - session_cpu0;
    if (!trace.ok()) {
      ++r.failed;
      r.errors.push_back("session " + std::to_string(i) + " failed: " +
                         trace.status().ToString());
      continue;
    }
    const std::size_t validated =
        trace->steps.empty() ? 0 : trace->steps.back().num_validated;
    if (validated < spec.rounds) {
      ++r.failed;
      r.errors.push_back("session " + std::to_string(i) + " ended short: " +
                         std::to_string(validated) + "/" +
                         std::to_string(spec.rounds) + " validations");
      continue;
    }
    const std::uint64_t digest = SelectionDigest(*trace);
    all.Mix(digest);
    if (i == 0 && digest != reference) {
      r.errors.push_back(
          "decorated session selects differently from the undecorated "
          "reference");
    }
    if (!snapshot_digest[snap].has_value()) {
      snapshot_digest[snap] = digest;
    } else if (digest != *snapshot_digest[snap]) {
      r.errors.push_back("session " + std::to_string(i) +
                         " repeated a snapshot with different selections");
    }
    block.session.Add(end - clock.open);
    block.rate.Add(static_cast<double>(validated) / (end - clock.open));
    block.cpu_per_validation.Add(session_cpu / static_cast<double>(validated));
    block.validations += validated;
    for (const SessionStep& step : trace->steps) {
      block.refuse.Add(step.fuse_seconds);
    }
    block.question_sum += clock.question_wait_sum;
    block.question_select_sum += clock.question_select_sum;
    block.select_cpu += clock.select_cpu;
    block.select_wall += clock.select_wall;
    block.intervals.insert(block.intervals.end(), clock.intervals.begin(),
                           clock.intervals.end());
    quality.Add(-trace->DistanceReductionPercent(trace->steps.size() - 1));
    nonconverged += trace->fusion_nonconverged_rounds;
    rounds += trace->steps.size();
    appended += static_cast<double>(trace->ingested_observations);
    revisions += static_cast<double>(trace->ingest_revisions);
    compactions += static_cast<double>(trace->compactions);
  }
  TraceRecorder::Global().Disable();
  r.digest = all.Hex();
  const double done =
      static_cast<double>(std::max<std::size_t>(r.attempted - r.failed, 1));

  if (!config.trace) {
    Put(&r, "setup_s", setup.Quantile(0.5), "s", setup.count());
    PutQuantile(&r, "first_question_p50_s", untraced.first_question, 0.5);
    PutQuantile(&r, "question_p50_s", untraced.question, 0.5);
    PutQuantile(&r, "question_p90_s", untraced.question, 0.9);
    PutQuantile(&r, "session_p50_s", untraced.session, 0.5);
    Put(&r, "validations_per_s", untraced.rate.Quantile(0.5), "1/s",
        untraced.rate.count());
    Put(&r, "cpu_s_per_validation", untraced.cpu_per_validation.Quantile(0.5),
        "s", untraced.cpu_per_validation.count());
    Put(&r, "quality_pct",
        Ratio(quality.Sum(), static_cast<double>(quality.count())), "%",
        quality.count());
    Put(&r, "peak_rss_mb", PeakRssMb(), "MiB");
    return r;
  }

  // --- Per-layer metrics from the traced run.
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const std::vector<TraceEvent> events = TraceRecorder::Global().Flush();
  const double selects = static_cast<double>(rounds);
  const double lookaheads =
      CounterValue(snap, "strategy.meu.lookaheads") +
      CounterValue(snap, "strategy.approx_meu.lookaheads");
  PutQuantile(&r, "core.select_p50_s", traced.select, 0.5);
  PutQuantile(&r, "core.select_p90_s", traced.select, 0.9);
  // Share of the question wait spent inside select.
  Put(&r, "core.select_frac",
      Ratio(traced.question_select_sum, traced.question_sum), "ratio");
  Put(&r, "core.lookaheads_per_select", Ratio(lookaheads, selects), "count");
  Put(&r, "core.pruned_frac",
      Ratio(CounterValue(snap, "meu.candidates_pruned"),
            CounterValue(snap, "strategy.meu.lookaheads")),
      "ratio");
  PutQuantile(&r, "fusion.refuse_p50_s", traced.refuse, 0.5);
  Put(&r, "fusion.initial_fuse_s", snaps.initial_fuse.Quantile(0.5), "s",
      snaps.initial_fuse.count());
  Put(&r, "fusion.lookahead_pins_per_select",
      Ratio(CounterValue(snap, "delta.lookahead_pins"), selects), "count");
  Put(&r, "fusion.delta_fallbacks", CounterValue(snap, "delta.fallbacks"),
      "count");
  Put(&r, "fusion.nonconverged_frac",
      Ratio(static_cast<double>(nonconverged), selects), "ratio");
  Put(&r, "model.compile_s", snaps.compile.Quantile(0.5), "s",
      snaps.compile.count());
  Put(&r, "model.graph_build_s", snaps.graph.Quantile(0.5), "s",
      snaps.graph.count());
  PutQuantile(&r, "model.ingest_p50_s", SpanDurations(events, "session.ingest"),
              0.5);
  Put(&r, "model.appended_obs", appended / done, "count");
  Put(&r, "model.revisions", revisions / done, "count");
  Put(&r, "model.compactions", compactions / done, "count");
  Put(&r, "util.pool_steals_per_select",
      Ratio(CounterValue(snap, "meu.pool_steals"), selects), "count");
  Put(&r, "util.select_cpu_per_wall",
      Ratio(untraced.select_cpu + traced.select_cpu,
            untraced.select_wall + traced.select_wall),
      "ratio");
  // Paired: every traced session repeats the untraced one before it.
  Put(&r, "obs.trace_overhead_frac",
      Ratio(traced.question_sum, untraced.question_sum) - 1.0, "ratio",
      traced.question.count());

  // Unattributed: question time on the session thread no program span
  // covers (session.run itself spans everything, so it does not count).
  std::uint32_t session_tid = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "bench.session") {
      session_tid = e.tid;
      break;
    }
  }
  const Intervals covered = SpanIntervals(
      events, session_tid, [](const std::string& name) {
        return IsProgramSpan(name) && name != "session.run";
      });
  double total = 0.0, hit = 0.0;
  for (const auto& [a, b] : traced.intervals) {
    total += b - a;
    hit += Covered(covered, a, b);
  }
  Put(&r, "obs.unattributed_frac", Ratio(total - hit, total), "ratio",
      traced.intervals.size());
  PutLayerSelfTimes(&r, AnalyzeSpans(events),
                    static_cast<double>(traced.validations));
  WriteTrace(config, &r);
  return r;
}

// ---------------------------------------------------------------- served

constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kServeClients = 2;
constexpr std::size_t kSessionsPerClient = 4;  // Per daemon and pass.
constexpr long kPollMillis = 5;

struct ServeSpec {
  std::size_t items = 260;
  std::size_t rounds = 8;
  /// Sessions per requested second (see InProcessSpec).
  double sessions_per_second = 5.5;
};

ServeSpec ServeSpecFor(bool small) {
  ServeSpec spec;
  if (small) {
    spec.items = 40;
    spec.rounds = 4;
  }
  return spec;
}

SessionSpec ServedSession(const std::string& id, const ServeSpec& spec,
                          std::uint64_t seed) {
  SessionSpec s;
  s.id = id;
  s.strategy = "approx_meu";
  s.model = "accu";
  s.oracle = "perfect";
  s.max_validations = spec.rounds;
  s.seed = seed;
  s.threads = 1;
  return s;
}

// The daemon half of the served workload: the snapshot, a supervisor with
// its sessions directory, and a NetServer on a Unix socket in front of it.
struct Daemon {
  SyntheticDataset data;
  std::unique_ptr<SessionSupervisor> supervisor;
  std::unique_ptr<net::NetServer> server;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  void Stop() {
    if (server != nullptr) server->Stop();
    if (supervisor != nullptr) supervisor->Shutdown();
    server.reset();
    supervisor.reset();
  }
};

std::string SessionsDir(const RunConfig& config) {
  return config.out_dir + "/sessions-" + config.workload;
}

std::string SocketPath(const RunConfig& config) {
  return config.out_dir + "/serve.sock";
}

// One daemon start: generate, compile, start supervisor and server.
Status StartDaemon(const RunConfig& config, const ServeSpec& spec,
                   std::uint64_t data_seed, Daemon* daemon, Samples* compile,
                   Samples* graph) {
  {
    VERITAS_SPAN("bench.setup.generate");
    daemon->data = GenerateDense(FlightsLike(spec.items, data_seed));
  }
  double t = NowSeconds();
  {
    VERITAS_SPAN("bench.setup.compile");
    const CompiledDatabase compiled(daemon->data.db);
    (void)compiled;
  }
  compile->Add(NowSeconds() - t);
  t = NowSeconds();
  {
    VERITAS_SPAN("bench.setup.graph");
    const ItemGraph g(daemon->data.db);
    (void)g;
  }
  graph->Add(NowSeconds() - t);

  std::error_code ec;
  std::filesystem::remove_all(SessionsDir(config), ec);
  SupervisorOptions sopts;
  sopts.max_concurrent_sessions = kServeWorkers;
  sopts.max_queue_depth = 8;
  sopts.sessions_dir = SessionsDir(config);
  sopts.max_total_threads = kServeWorkers;  // One lookahead lane each.
  sopts.keep_traces = true;
  daemon->supervisor = std::make_unique<SessionSupervisor>(
      daemon->data.db, daemon->data.truth, sopts);
  VERITAS_RETURN_IF_ERROR(daemon->supervisor->Start());
  net::NetServerOptions nopts;
  nopts.address.unix_domain = true;
  nopts.address.path = SocketPath(config);
  nopts.max_connections = 16;
  daemon->server =
      std::make_unique<net::NetServer>(daemon->supervisor.get(), nopts);
  return daemon->server->Start();
}

net::NetClientOptions ClientOptions(const RunConfig& config) {
  net::NetClientOptions o;
  o.address.unix_domain = true;
  o.address.path = SocketPath(config);
  return o;
}

// What one client observed of one served session.
struct ServedOutcome {
  std::string id;
  bool ok = false;
  std::string error;
  double submit_s = 0.0;
  double session_s = 0.0;
  double queue_wait_s = 0.0;
  double run_s = 0.0;
  std::size_t validated = 0;
};

double FieldDouble(const net::NetResponse& r, const std::string& key) {
  auto it = r.fields.find(key);
  return it == r.fields.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

std::string Field(const net::NetResponse& r, const std::string& key) {
  auto it = r.fields.find(key);
  return it == r.fields.end() ? "" : it->second;
}

// Closed loop: submit, poll the report every kPollMillis until terminal.
ServedOutcome RunServedSession(TimedNetClient* client,
                               const SessionSpec& spec) {
  ServedOutcome out;
  out.id = spec.id;
  const double start = NowSeconds();
  auto response = client->Submit(spec);
  out.submit_s = NowSeconds() - start;
  while (true) {
    if (!response.ok()) {
      out.error = response.status().ToString();
      return out;
    }
    if (!response->status.ok()) {
      out.error = response->status.ToString();
      return out;
    }
    if (Field(*response, "state") == "done") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMillis));
    response = client->Report(spec.id);
  }
  out.session_s = NowSeconds() - start;
  if (Field(*response, "outcome") != "completed") {
    out.error = "outcome " + Field(*response, "outcome") + ": " +
                Field(*response, "session_message");
    return out;
  }
  out.queue_wait_s = FieldDouble(*response, "queue_wait_seconds");
  out.run_s = FieldDouble(*response, "run_seconds");
  out.validated =
      static_cast<std::size_t>(FieldDouble(*response, "num_validated"));
  out.ok = true;
  return out;
}

// Runs sessions [begin, end) over the closed loop of kServeClients clients.
std::vector<ServedOutcome> ServePhase(std::vector<TimedNetClient>* clients,
                                      const ServeSpec& spec,
                                      std::uint64_t seed, std::size_t begin,
                                      std::size_t end) {
  std::vector<std::vector<ServedOutcome>> per_client(clients->size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = begin + c; i < end; i += clients->size()) {
        const SessionSpec session =
            ServedSession("s" + std::to_string(i), spec, seed);
        per_client[c].push_back(RunServedSession(&(*clients)[c], session));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<ServedOutcome> all;
  for (auto& list : per_client) {
    all.insert(all.end(), list.begin(), list.end());
  }
  return all;
}

RunResult RunServe(const RunConfig& config) {
  RunResult r;
  const ServeSpec spec = ServeSpecFor(config.small);
  std::filesystem::create_directories(config.out_dir);
  ResetObservability();

  // Each daemon serves one block of sessions on its own snapshot (the
  // traced run serves the block twice, untraced then traced), so a run
  // averages over many snapshots drawn from the seed.
  const std::size_t block = kSessionsPerClient * kServeClients;
  const double blocks_wanted =
      config.seconds * spec.sessions_per_second / static_cast<double>(block);
  const double daemons_wanted =
      std::ceil(config.trace ? blocks_wanted / 2 : blocks_wanted);
  const std::size_t daemons =
      config.small ? 2
                   : std::max<std::size_t>(
                         2, static_cast<std::size_t>(daemons_wanted));
  std::vector<TimedNetClient> clients;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    clients.emplace_back(ClientOptions(config));
  }
  Samples setup, compile, graph, direct_submit, refuse, first_question;
  std::vector<ServedOutcome> untraced, traced;
  Digest all;
  Samples quality;
  double wall = 0.0, cpu = 0.0;
  std::size_t nonconverged = 0, rounds = 0, next_id = 0;

  for (std::size_t d = 0; d < daemons; ++d) {
    const std::uint64_t data_seed = config.seed * 1000 + d;
    Daemon daemon;
    const double t0 = NowSeconds();
    const Status st =
        StartDaemon(config, spec, data_seed, &daemon, &compile, &graph);
    if (!st.ok()) {
      r.errors.push_back("daemon start failed: " + st.ToString());
      return r;
    }
    setup.Add(NowSeconds() - t0);

    // Reference: the same session in-process on this snapshot, through
    // the decorators. The protocol runs whole sessions and never exposes
    // a question, so this is also where the served strategy's first
    // question on the snapshot is timed.
    std::uint64_t reference = 0;
    {
      QuestionClock clock;
      clock.first_question = &first_question;
      auto model = MakeFusionModel("accu");
      auto strategy = MakeStrategy("approx_meu", 1);
      TimedStrategy timed_strategy(strategy->get(), &clock);
      PerfectOracle perfect;
      TimedOracle timed_oracle(&perfect, &clock);
      SessionOptions options;
      options.max_validations = spec.rounds;
      Rng rng(config.seed);
      clock.open = NowSeconds();
      FeedbackSession session(daemon.data.db, **model, &timed_strategy,
                              &timed_oracle, daemon.data.truth, options, &rng);
      auto trace = session.Run();
      if (!trace.ok()) {
        r.errors.push_back("reference session failed: " +
                           trace.status().ToString());
        return r;
      }
      reference = SelectionDigest(*trace) ^ (config.force_mismatch ? 1 : 0);
    }

    if (d == 0) {
      // Warm-up: two sessions straight into the supervisor, one over the
      // wire per client (on clients of their own, so call counts stay
      // per timed session).
      for (int w = 0; w < 2; ++w) {
        const double t = NowSeconds();
        Status sub;
        {
          VERITAS_SPAN("bench.supervisor.submit");
          sub = daemon.supervisor->Submit(
              ServedSession("warm" + std::to_string(w), spec, config.seed));
        }
        direct_submit.Add(NowSeconds() - t);
        if (!sub.ok()) {
          r.errors.push_back("warm-up submit failed: " + sub.ToString());
        }
      }
      daemon.supervisor->Drain();
      for (std::size_t c = 0; c < kServeClients; ++c) {
        TimedNetClient warm(ClientOptions(config));
        const ServedOutcome w = RunServedSession(
            &warm, ServedSession("warmnet" + std::to_string(c), spec,
                                 config.seed));
        if (!w.ok) r.errors.push_back("warm-up session failed: " + w.error);
      }
    }

    std::vector<ServedOutcome> mine;
    for (int pass = 0; pass < (config.trace ? 2 : 1); ++pass) {
      const bool trace_on = pass == 1;
      if (trace_on) TraceRecorder::Global().Enable();
      const double cpu0 = ProcessCpuSeconds();
      const double wall0 = NowSeconds();
      std::vector<ServedOutcome> done =
          ServePhase(&clients, spec, config.seed, next_id, next_id + block);
      wall += NowSeconds() - wall0;
      cpu += ProcessCpuSeconds() - cpu0;
      TraceRecorder::Global().Disable();
      next_id += block;
      std::vector<ServedOutcome>& into = trace_on ? traced : untraced;
      into.insert(into.end(), done.begin(), done.end());
      mine.insert(mine.end(), done.begin(), done.end());
    }

    if (d + 1 == daemons) {
      // Metrics snapshot over the wire, kept beside the trace.
      TimedNetClient probe(ClientOptions(config));
      auto json = probe.MetricsJson();
      if (!json.ok() || json->empty() || json->front() != '{') {
        r.errors.push_back("metrics snapshot over the wire failed");
      } else {
        std::ofstream(config.out_dir + "/metrics-" + config.workload +
                      ".json")
            << *json;
      }
    }

    // Correctness: every session completed its budget and selected the
    // items the in-process reference selected on this snapshot.
    std::sort(mine.begin(), mine.end(),
              [](const ServedOutcome& a, const ServedOutcome& b) {
                return std::stoul(a.id.substr(1)) < std::stoul(b.id.substr(1));
              });
    for (const ServedOutcome& o : mine) {
      ++r.attempted;
      SessionReport report;
      if (!o.ok || o.validated < spec.rounds ||
          !daemon.supervisor->FindReport(o.id, &report)) {
        ++r.failed;
        r.errors.push_back("served session " + o.id + " failed: " +
                           (o.ok ? "ended short of its budget" : o.error));
        continue;
      }
      const SessionTrace& t = report.trace;
      const std::uint64_t digest = SelectionDigest(t);
      all.Mix(digest);
      if (digest != reference) {
        r.errors.push_back("served session " + o.id +
                           " selects differently from the in-process "
                           "reference");
      }
      quality.Add(-t.DistanceReductionPercent(t.steps.size() - 1));
      nonconverged += t.fusion_nonconverged_rounds;
      rounds += t.steps.size();
      for (const SessionStep& step : t.steps) refuse.Add(step.fuse_seconds);
    }
    daemon.Stop();
    std::error_code ec;
    std::filesystem::remove_all(SessionsDir(config), ec);
  }
  const std::size_t sessions = next_id;
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const double retries = CounterValue(snap, "net.retries");
  const double corrupt = CounterValue(snap, "net.frames_corrupt");
  if (corrupt != 0.0) r.errors.push_back("net.frames_corrupt is not 0");
  r.digest = all.Hex();
  const std::vector<TraceEvent> events = TraceRecorder::Global().Flush();

  Samples submit, session, question, queue_wait, run, overhead;
  double validations = 0.0;
  const auto gather = [&](const std::vector<ServedOutcome>& list) {
    submit = session = question = queue_wait = run = overhead = Samples();
    validations = 0.0;
    for (const ServedOutcome& o : list) {
      if (!o.ok) continue;
      submit.Add(o.submit_s);
      session.Add(o.session_s);
      question.Add(o.session_s / static_cast<double>(o.validated));
      queue_wait.Add(o.queue_wait_s);
      run.Add(o.run_s);
      overhead.Add(o.session_s - o.run_s - o.queue_wait_s);
      validations += static_cast<double>(o.validated);
    }
  };
  if (!config.trace) {
    gather(untraced);
    Put(&r, "setup_s", setup.Quantile(0.5), "s", setup.count());
    PutQuantile(&r, "first_question_p50_s", first_question, 0.5);
    PutQuantile(&r, "question_p50_s", question, 0.5);
    PutQuantile(&r, "question_p90_s", question, 0.9);
    PutQuantile(&r, "session_p50_s", session, 0.5);
    Put(&r, "validations_per_s", Ratio(validations, wall), "1/s");
    Put(&r, "cpu_s_per_validation", Ratio(cpu, validations), "s");
    Put(&r, "quality_pct",
        Ratio(quality.Sum(), static_cast<double>(quality.count())), "%",
        quality.count());
    Put(&r, "peak_rss_mb", PeakRssMb(), "MiB");
    return r;
  }

  // --- Per-layer metrics; span-derived ones come from the traced passes.
  gather(untraced);
  const double untraced_session_sum = session.Sum();
  gather(traced);
  Samples net_calls;
  for (const TimedNetClient& c : clients) net_calls.Append(c.calls());
  PutQuantile(&r, "core.select_p50_s", SpanDurations(events, "session.select"),
              0.5);
  PutQuantile(&r, "core.select_p90_s", SpanDurations(events, "session.select"),
              0.9);
  const SpanTimes spans = AnalyzeSpans(events);
  const auto total_of = [&](const std::string& name) {
    const auto it = spans.total_s.find(name);
    return it == spans.total_s.end() ? 0.0 : it->second;
  };
  Put(&r, "core.select_frac",
      Ratio(total_of("session.select"), total_of("session.run")), "ratio");
  Put(&r, "core.lookaheads_per_select",
      Ratio(CounterValue(snap, "strategy.approx_meu.lookaheads"),
            CounterValue(snap, "session.rounds")),
      "count");
  PutQuantile(&r, "core.checkpoint_p50_s",
              SpanDurations(events, "session.checkpoint"), 0.5);
  PutQuantile(&r, "fusion.refuse_p50_s", refuse, 0.5);
  Put(&r, "fusion.delta_fallbacks", CounterValue(snap, "delta.fallbacks"),
      "count");
  Put(&r, "fusion.nonconverged_frac",
      Ratio(static_cast<double>(nonconverged), static_cast<double>(rounds)),
      "ratio");
  Put(&r, "model.compile_s", compile.Quantile(0.5), "s", compile.count());
  Put(&r, "model.graph_build_s", graph.Quantile(0.5), "s", graph.count());
  PutQuantile(&r, "serve.queue_wait_p50_s", queue_wait, 0.5);
  PutQuantile(&r, "serve.session_p90_s", session, 0.9);
  PutQuantile(&r, "serve.run_p50_s", run, 0.5);
  std::size_t round_count = 0;
  Put(&r, "serve.round_p50_s",
      HistQuantile(snap, "session.step_seconds", 0.5, &round_count), "s",
      round_count);
  PutQuantile(&r, "serve.overhead_p50_s", overhead, 0.5);
  PutQuantile(&r, "serve.submit_p50_s", direct_submit, 0.5);
  PutQuantile(&r, "net.submit_p50_s", submit, 0.5);
  PutQuantile(&r, "net.call_p50_s", net_calls, 0.5);
  PutQuantile(&r, "net.call_p90_s", net_calls, 0.9);
  Put(&r, "net.calls_per_session",
      Ratio(static_cast<double>(net_calls.count()),
            static_cast<double>(sessions)),
      "count");
  Put(&r, "net.retries", retries, "count");
  Put(&r, "net.frames_corrupt", corrupt, "count");
  // Paired: every daemon serves the same sessions untraced, then traced.
  Put(&r, "obs.trace_overhead_frac",
      Ratio(session.Sum(), untraced_session_sum) - 1.0, "ratio",
      session.count());

  // Unattributed: session.run time on the worker threads that no program
  // span below it covers.
  std::set<std::uint32_t> workers;
  for (const TraceEvent& e : events) {
    if (e.name == "session.run") workers.insert(e.tid);
  }
  double total = 0.0, hit = 0.0;
  std::size_t runs = 0;
  for (std::uint32_t tid : workers) {
    const Intervals covered =
        SpanIntervals(events, tid, [](const std::string& name) {
          return IsProgramSpan(name) && name != "session.run";
        });
    for (const TraceEvent& e : events) {
      if (e.tid != tid || e.name != "session.run") continue;
      const double a = e.ts_us * 1e-6, b = (e.ts_us + e.dur_us) * 1e-6;
      total += b - a;
      hit += Covered(covered, a, b);
      ++runs;
    }
  }
  Put(&r, "obs.unattributed_frac", Ratio(total - hit, total), "ratio", runs);
  PutLayerSelfTimes(&r, spans, validations);
  WriteTrace(config, &r);
  return r;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"serve_approx", "meu_books", "stream_approx"};
}

RunResult RunWorkload(const RunConfig& config) {
  if (config.workload == "serve_approx") return RunServe(config);
  return RunInProcess(config);
}

}  // namespace perfbench
