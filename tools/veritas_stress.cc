// veritas_stress: load generator + chaos harness for the session supervisor
// (see DESIGN.md §5e and README "Running under load").
//
// Drives a SessionSupervisor with a Poisson arrival stream of feedback
// sessions over one shared synthetic snapshot. A configurable slice of the
// fleet is hostile: flaky oracles (fault injection + retries), hung oracles
// (StallOracle, to exercise the watchdog's graceful->hard escalation) and
// byte/round budgets (to exercise eviction-to-checkpoint). Publishes
// p50/p99 step latency, admitted/shed/evicted/recovered counts and
// throughput to a BENCH_serve.json document.
//
// Kill-and-recover mode: `--kill-after-ms N` SIGKILLs the process mid-run;
// a second invocation with `--sessions 0 --recover --drain-recovered`
// sweeps the sessions directory, resumes every interrupted session from its
// newest verifying checkpoint, and reports the recovery counts. CI's
// serve-smoke job asserts on exactly that sequence.
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "exp/bench_json.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "serve/session_supervisor.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/timer.h"

namespace veritas {
namespace {

constexpr const char* kUsage = R"(veritas_stress -- supervisor load harness

usage: veritas_stress [run] [flags]

load shape
  --sessions N            new sessions to submit (default 24)
  --arrival-hz R          Poisson arrival rate, sessions/second (default 200)
  --workers N             concurrent sessions (default 4)
  --queue-depth N         admissions waiting beyond the running (default 8)

per-session work
  --items N --sources N   synthetic snapshot size (default 60 x 10)
  --max-validations N     validation budget per session (default 6)
  --strategy S --model M  session configuration (default approx_meu / accu)
  --threads N             lookahead-scan threads per session (default 1;
                          the supervisor caps workers x threads at
                          --max-total-threads)
  --seed N                base seed (default 42)

chaos mix (fractions of the fleet, deterministic per seed)
  --flaky-fraction F      sessions with an injected-fault oracle (default 0.25)
  --flaky-plan SPEC       FaultPlan for those sessions (default prob=0.3,kind=unavailable)
  --retries N             retry attempts for flaky sessions (default 2)
  --evict-fraction F      sessions with a round budget (default 0.25)
  --budget-rounds N       rounds per run for those sessions (default 3)
  --hang-fraction F       sessions with a hung oracle (default 0.1)
  --stall-seconds S       how long a hung oracle blocks (default 30)
  --hang-deadline-ms N    deadline for hung sessions (default 150)

supervision
  --dir PATH              sessions directory (default stress_sessions)
  --deadline-ms N         default session deadline (default 0 = none)
  --watchdog-poll-ms N    watchdog scan period (default 5)
  --watchdog-grace-ms N   grace past deadline before graceful stop (def. 25)
  --watchdog-hard-ms N    grace before escalating to hard stop (default 50)
  --max-recovery N        recovery attempts before abandoning (default 3)
  --max-total-threads N   host-wide lookahead-thread budget shared by the
                          workers (default 0 = hardware concurrency)

modes
  --recover               run a recovery sweep before submitting
  --drain-recovered       keep sweeping+draining until no manifest remains
  --kill-after-ms N       SIGKILL this process after N ms (crash drill)
  --json PATH             upsert the bench document here, keyed by mode so
                          local and remote records coexist (default
                          BENCH_serve.json; "-" = stdout only)

remote mode (drive a veritas_serve daemon instead of an in-process
supervisor; the chaos mix travels inside the submitted specs)
  --remote ADDR           daemon address, host:port or unix:<path>
  --poll-ms N             report polling interval (default 20)
  --request-timeout-ms N  per-attempt transport budget (default 5000)
  --attempts N            transport retries per call incl. first (default 4)
  --client-deadline-ms N  overall budget per session incl. polling
                          (default 60000)
)";

long IntFlag(const ArgMap& args, const std::string& key, long fallback) {
  auto v = args.GetInt(key, fallback);
  if (!v.ok()) {
    std::cerr << "veritas_stress: " << v.status().ToString() << "\n";
    std::exit(2);
  }
  return *v;
}

double DoubleFlag(const ArgMap& args, const std::string& key,
                  double fallback) {
  auto v = args.GetDouble(key, fallback);
  if (!v.ok()) {
    std::cerr << "veritas_stress: " << v.status().ToString() << "\n";
    std::exit(2);
  }
  return *v;
}

/// The session shape shared by the local and remote drivers.
struct FleetConfig {
  std::string strategy;
  std::string model;
  std::string flaky_plan;
  long max_validations = 6;
  long threads = 1;
  long retries = 2;
  long budget_rounds = 3;
  long hang_deadline_ms = 150;
  double flaky_fraction = 0.25;
  double evict_fraction = 0.25;
  double hang_fraction = 0.1;
  double stall_seconds = 30.0;
  long seed = 42;
};

FleetConfig ParseFleetConfig(const ArgMap& args) {
  FleetConfig config;
  config.strategy = args.GetString("strategy", "approx_meu");
  config.model = args.GetString("model", "accu");
  config.max_validations = IntFlag(args, "max-validations", 6);
  config.threads = IntFlag(args, "threads", 1);
  config.seed = IntFlag(args, "seed", 42);
  config.flaky_fraction = DoubleFlag(args, "flaky-fraction", 0.25);
  config.flaky_plan = args.GetString("flaky-plan", "prob=0.3,kind=unavailable");
  config.retries = IntFlag(args, "retries", 2);
  config.evict_fraction = DoubleFlag(args, "evict-fraction", 0.25);
  config.budget_rounds = IntFlag(args, "budget-rounds", 3);
  config.hang_fraction = DoubleFlag(args, "hang-fraction", 0.1);
  config.stall_seconds = DoubleFlag(args, "stall-seconds", 30.0);
  config.hang_deadline_ms = IntFlag(args, "hang-deadline-ms", 150);
  return config;
}

/// Session `i` of the fleet; `mix` in [0, 1) picks its chaos bucket.
SessionSpec FleetSpec(const FleetConfig& config, long i, double mix) {
  SessionSpec spec;
  spec.id = NumberedName("s", i);
  spec.strategy = config.strategy;
  spec.model = config.model;
  spec.max_validations = static_cast<std::size_t>(config.max_validations);
  spec.threads =
      static_cast<std::size_t>(config.threads > 0 ? config.threads : 1);
  spec.seed = static_cast<std::uint64_t>(config.seed + i);
  if (mix < config.hang_fraction) {
    spec.stall_seconds = config.stall_seconds;
    spec.deadline_ms = config.hang_deadline_ms;
  } else if (mix < config.hang_fraction + config.flaky_fraction) {
    spec.flaky_plan = config.flaky_plan;
    spec.retries = static_cast<std::size_t>(config.retries);
  } else if (mix < config.hang_fraction + config.flaky_fraction +
                       config.evict_fraction) {
    spec.budget.max_rounds_per_run =
        static_cast<std::size_t>(config.budget_rounds);
  }
  return spec;
}

/// First number following `"name":` in a flat metrics JSON document, or
/// `fallback`. Enough of a scanner for counters out of
/// MetricsSnapshot::ToJson without a JSON dependency.
double ExtractJsonNumber(const std::string& json, const std::string& name,
                         double fallback) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return fallback;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/// Drives a remote veritas_serve daemon with the same Poisson arrivals and
/// chaos mix as the local mode, then proves the no-silent-loss partition:
/// every submitted session lands in exactly one tallied bucket.
int RunRemote(const ArgMap& args) {
  const std::string remote = args.GetString("remote");
  auto address = net::ParseNetAddress(remote);
  if (!address.ok()) {
    std::cerr << "veritas_stress: --remote: " << address.status().ToString()
              << "\n";
    return 2;
  }
  const long num_sessions = IntFlag(args, "sessions", 24);
  const double arrival_hz = DoubleFlag(args, "arrival-hz", 200.0);
  const FleetConfig config = ParseFleetConfig(args);
  const long poll_ms = IntFlag(args, "poll-ms", 20);
  const long request_timeout_ms = IntFlag(args, "request-timeout-ms", 5000);
  const long attempts = IntFlag(args, "attempts", 4);
  const long client_deadline_ms = IntFlag(args, "client-deadline-ms", 60'000);
  const std::string json_path = args.GetString("json", "BENCH_serve.json");

  net::NetClientOptions client_options;
  client_options.address = *address;
  client_options.request_timeout_ms = request_timeout_ms;
  client_options.max_attempts =
      static_cast<std::size_t>(attempts > 0 ? attempts : 1);
  {
    net::NetClient probe(client_options);
    auto health = probe.Health();
    if (!health.ok()) {
      std::cerr << "veritas_stress: daemon at " << remote
                << " not healthy: " << health.status().ToString() << "\n";
      return 1;
    }
  }

  // Outcome partition (no silent loss): terminal report outcomes, typed
  // rejections, transport failures. Every launched session increments
  // exactly one bucket.
  std::mutex tally_mu;
  std::size_t completed = 0, evicted = 0, cancelled = 0, failed = 0;
  std::size_t shed_typed = 0, unavailable_typed = 0, transport_errors = 0;
  std::size_t resubmits = 0, validations = 0;

  Timer wall;
  Rng rng(static_cast<std::uint64_t>(config.seed) ^ 0x5eedu);
  std::exponential_distribution<double> gap(arrival_hz > 0 ? arrival_hz
                                                           : 1e9);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<std::thread> fleet;
  fleet.reserve(static_cast<std::size_t>(num_sessions));
  for (long i = 0; i < num_sessions; ++i) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(gap(rng.engine())));
    SessionSpec spec = FleetSpec(config, i, coin(rng.engine()));
    fleet.emplace_back([spec = std::move(spec), client_options,
                        client_deadline_ms, poll_ms, &tally_mu, &completed,
                        &evicted, &cancelled, &failed, &shed_typed,
                        &unavailable_typed, &transport_errors, &resubmits,
                        &validations] {
      net::NetClientOptions options = client_options;
      options.overall_deadline = Deadline::AfterMillis(client_deadline_ms);
      net::NetClient client(options);
      auto result = client.RunRemoteSession(spec, poll_ms);
      std::lock_guard<std::mutex> lock(tally_mu);
      if (result.ok()) {
        resubmits += result->resubmits;
        validations += result->num_validated;
        if (result->outcome == "completed") {
          ++completed;
        } else if (result->outcome == "evicted") {
          ++evicted;
        } else if (result->outcome == "cancelled") {
          ++cancelled;
        } else {
          ++failed;
        }
        return;
      }
      switch (result.status().code()) {
        case StatusCode::kResourceExhausted:
          ++shed_typed;  // Admission-queue or connection-limit shed.
          break;
        case StatusCode::kUnavailable:
          ++unavailable_typed;  // Draining daemon or dead link.
          break;
        default:
          ++transport_errors;
      }
    });
  }
  for (std::thread& t : fleet) t.join();
  const double wall_seconds = wall.ElapsedSeconds();

  // Remote + local counters. The daemon's snapshot is best-effort: a
  // drained/dead daemon just leaves the remote numbers at 0.
  net::NetClient client(client_options);
  std::string remote_metrics;
  if (auto json = client.MetricsJson(); json.ok()) {
    remote_metrics = *json;
  }
  const MetricsSnapshot local = MetricsRegistry::Global().Snapshot();
  const std::size_t unaccounted =
      static_cast<std::size_t>(num_sessions) - completed - evicted -
      cancelled - failed - shed_typed - unavailable_typed - transport_errors;

  BenchJsonFile bench("veritas-serve-bench-v1");
  bench.SetMeta("tool", "veritas_stress");
  BenchJsonRecord& rec = bench.Add("serve_stress");
  rec.Set("mode", "remote");
  rec.Set("remote_address", remote);
  rec.Set("sessions_requested", static_cast<std::size_t>(num_sessions));
  rec.Set("completed", completed);
  rec.Set("evicted", evicted);
  rec.Set("cancelled", cancelled);
  rec.Set("failed", failed);
  rec.Set("shed_typed", shed_typed);
  rec.Set("unavailable_typed", unavailable_typed);
  rec.Set("transport_errors", transport_errors);
  rec.Set("unaccounted", unaccounted);
  rec.Set("resubmits", resubmits);
  rec.Set("validations", validations);
  rec.Set("wall_seconds", wall_seconds);
  rec.Set("client_retries", static_cast<std::size_t>(
                                local.Value("net.retries")));
  rec.Set("client_frames_corrupt", static_cast<std::size_t>(
                                       local.Value("net.frames_corrupt")));
  rec.Set("daemon_shed",
          ExtractJsonNumber(remote_metrics, "supervisor.shed", 0.0) +
              ExtractJsonNumber(remote_metrics, "net.shed", 0.0));
  rec.Set("daemon_frames_corrupt",
          ExtractJsonNumber(remote_metrics, "net.frames_corrupt", 0.0));
  rec.Set("daemon_accepted",
          ExtractJsonNumber(remote_metrics, "net.accepted", 0.0));

  std::cout << bench.Render() << "\n";
  if (json_path != "-") {
    if (Status s = bench.MergeInto(json_path, {"mode"}); !s.ok()) {
      std::cerr << "veritas_stress: " << s.ToString() << "\n";
      return 1;
    }
  }
  if (unaccounted != 0) {
    std::cerr << "veritas_stress: " << unaccounted
              << " session(s) unaccounted for — silent loss!\n";
    return 1;
  }
  return 0;
}

int Run(int argc, const char* const* argv) {
  auto args_or = ArgMap::Parse(argc, argv);
  if (!args_or.ok()) {
    std::cerr << "veritas_stress: " << args_or.status().ToString() << "\n";
    return 2;
  }
  const ArgMap& args = *args_or;
  if (args.command() == "help" || args.GetBool("help")) {
    std::cout << kUsage;
    return 0;
  }
  if (args.Has("remote")) return RunRemote(args);

  const long num_sessions = IntFlag(args, "sessions", 24);
  const double arrival_hz = DoubleFlag(args, "arrival-hz", 200.0);
  const long workers = IntFlag(args, "workers", 4);
  const long queue_depth = IntFlag(args, "queue-depth", 8);
  const long num_items = IntFlag(args, "items", 60);
  const long num_sources = IntFlag(args, "sources", 10);
  const FleetConfig config = ParseFleetConfig(args);
  const std::string strategy = config.strategy;
  const std::string model = config.model;
  const long seed = config.seed;
  const std::string dir = args.GetString("dir", "stress_sessions");
  const long default_deadline_ms = IntFlag(args, "deadline-ms", 0);
  const long watchdog_poll_ms = IntFlag(args, "watchdog-poll-ms", 5);
  const long watchdog_grace_ms = IntFlag(args, "watchdog-grace-ms", 25);
  const long watchdog_hard_ms = IntFlag(args, "watchdog-hard-ms", 50);
  const long max_recovery = IntFlag(args, "max-recovery", 3);
  const long max_total_threads = IntFlag(args, "max-total-threads", 0);
  const long kill_after_ms = IntFlag(args, "kill-after-ms", 0);
  const std::string json_path = args.GetString("json", "BENCH_serve.json");

  if (kill_after_ms > 0) {
    // Crash drill: die mid-run with no cleanup, exactly like a power cut.
    std::thread([kill_after_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
      ::kill(::getpid(), SIGKILL);
    }).detach();
  }

  DenseConfig data_config;
  data_config.num_items = static_cast<std::size_t>(num_items);
  data_config.num_sources = static_cast<std::size_t>(num_sources);
  data_config.seed = static_cast<std::uint64_t>(seed);
  const SyntheticDataset dataset = GenerateDense(data_config);

  MetricsRegistry::Global().Reset();

  SupervisorOptions options;
  options.max_concurrent_sessions = static_cast<std::size_t>(workers);
  options.max_queue_depth = static_cast<std::size_t>(queue_depth);
  options.sessions_dir = dir;
  options.default_deadline_ms = default_deadline_ms;
  options.watchdog_poll = std::chrono::milliseconds(watchdog_poll_ms);
  options.watchdog_grace = std::chrono::milliseconds(watchdog_grace_ms);
  options.watchdog_hard_grace = std::chrono::milliseconds(watchdog_hard_ms);
  options.max_recovery_attempts = static_cast<std::size_t>(max_recovery);
  options.max_total_threads = static_cast<std::size_t>(max_total_threads);

  SessionSupervisor supervisor(dataset.db, dataset.truth, options);
  if (Status s = supervisor.Start(); !s.ok()) {
    std::cerr << "veritas_stress: " << s.ToString() << "\n";
    return 1;
  }

  Timer wall;
  std::size_t recovered_at_startup = 0;
  if (args.GetBool("recover") || args.GetBool("drain-recovered")) {
    recovered_at_startup = supervisor.RecoverSessions();
    std::cout << "recovery sweep: re-admitted " << recovered_at_startup
              << " session(s)\n";
  }

  // Poisson arrivals: exponential inter-arrival gaps, deterministic per
  // seed. The chaos mix is drawn per session from the same stream.
  Rng rng(static_cast<std::uint64_t>(seed) ^ 0x5eedu);
  std::exponential_distribution<double> gap(arrival_hz > 0 ? arrival_hz
                                                           : 1e9);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::size_t submitted = 0, shed = 0, rejected = 0;
  for (long i = 0; i < num_sessions; ++i) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(gap(rng.engine())));
    SessionSpec spec = FleetSpec(config, i, coin(rng.engine()));
    const Status s = supervisor.Submit(std::move(spec));
    if (s.ok()) {
      ++submitted;
    } else if (s.code() == StatusCode::kResourceExhausted) {
      ++shed;  // Typed overload signal: expected under pressure.
    } else {
      ++rejected;
      std::cerr << "veritas_stress: submit: " << s.ToString() << "\n";
    }
  }
  supervisor.Drain();

  // Evicted/cancelled sessions left durable state behind; keep sweeping
  // until the directory is clean (completed or abandoned).
  std::size_t recovered_total = recovered_at_startup;
  if (args.GetBool("drain-recovered")) {
    std::size_t swept;
    while ((swept = supervisor.RecoverSessions()) > 0) {
      recovered_total += swept;
      supervisor.Drain();
    }
  }
  const double wall_seconds = wall.ElapsedSeconds();
  supervisor.Shutdown();

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* steps = snap.FindHistogram("session.step_seconds");
  const HistogramSnapshot* waits =
      snap.FindHistogram("supervisor.queue_wait_seconds");
  const double validated = snap.Value("session.items_validated");

  BenchJsonFile bench("veritas-serve-bench-v1");
  bench.SetMeta("tool", "veritas_stress");
  bench.SetMeta("strategy", strategy);
  bench.SetMeta("model", model);
  BenchJsonRecord& rec = bench.Add("serve_stress");
  rec.Set("mode", "local");
  rec.Set("items", static_cast<std::size_t>(num_items));
  rec.Set("sources", static_cast<std::size_t>(num_sources));
  rec.Set("sessions_requested", static_cast<std::size_t>(num_sessions));
  rec.Set("workers", static_cast<std::size_t>(workers));
  rec.Set("queue_depth", static_cast<std::size_t>(queue_depth));
  rec.Set("submitted", submitted);
  rec.Set("shed", static_cast<std::size_t>(snap.Value("supervisor.shed")));
  rec.Set("admitted",
          static_cast<std::size_t>(snap.Value("supervisor.admitted")));
  rec.Set("completed",
          static_cast<std::size_t>(snap.Value("supervisor.completed")));
  rec.Set("evicted",
          static_cast<std::size_t>(snap.Value("supervisor.evicted")));
  rec.Set("cancelled",
          static_cast<std::size_t>(snap.Value("supervisor.cancelled")));
  rec.Set("failed",
          static_cast<std::size_t>(snap.Value("supervisor.failed")));
  rec.Set("recovered",
          static_cast<std::size_t>(snap.Value("supervisor.recovered")));
  rec.Set("recovery_abandoned", static_cast<std::size_t>(snap.Value(
                                    "supervisor.recovery_abandoned")));
  rec.Set("watchdog_graceful", static_cast<std::size_t>(snap.Value(
                                   "supervisor.watchdog_graceful")));
  rec.Set("watchdog_hard", static_cast<std::size_t>(snap.Value(
                               "supervisor.watchdog_hard")));
  rec.Set("submit_rejected", rejected);
  rec.Set("validations", static_cast<std::size_t>(validated));
  rec.Set("wall_seconds", wall_seconds);
  rec.Set("validations_per_second",
          wall_seconds > 0 ? validated / wall_seconds : 0.0);
  rec.Set("step_p50_seconds", steps ? steps->Quantile(0.5) : 0.0);
  rec.Set("step_p99_seconds", steps ? steps->Quantile(0.99) : 0.0);
  rec.Set("queue_wait_p50_seconds", waits ? waits->Quantile(0.5) : 0.0);
  rec.Set("queue_wait_p99_seconds", waits ? waits->Quantile(0.99) : 0.0);

  std::cout << bench.Render() << "\n";
  if (json_path != "-") {
    // Upsert keyed by mode: a remote run against the same baseline file
    // must not clobber the local record, and vice versa.
    if (Status s = bench.MergeInto(json_path, {"mode"}); !s.ok()) {
      std::cerr << "veritas_stress: " << s.ToString() << "\n";
      return 1;
    }
  }
  return rejected == 0 ? 0 : 1;
}

}  // namespace
}  // namespace veritas

int main(int argc, char** argv) { return veritas::Run(argc, argv); }
