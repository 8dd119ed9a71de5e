// End-to-end drills of the network front end (net/server.h, net/client.h,
// net/chaos_proxy.h; DESIGN.md §5i): request round trips and idempotent
// re-submits, typed overload shedding at both layers, the no-silent-loss
// partition under an actively hostile link, drain -> recover resumability,
// and the bit-identical-to-in-process contract for completed sessions.
// Real accept/handler/pump threads run here, so the file lives in the
// concurrency suite and runs under TSan in CI.
#include <dirent.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "net/chaos_proxy.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/session_supervisor.h"
#include "test_dir.h"

namespace veritas {
namespace {

/// Names of leftover atomic-write temporaries — the durable-file layer
/// guarantees zero of these survive, whatever the chaos plan did.
std::vector<std::string> TmpLitter(const std::string& dir) {
  std::vector<std::string> litter;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return litter;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.find(".tmp.") != std::string::npos) litter.push_back(name);
  }
  ::closedir(d);
  return litter;
}

net::NetAddress Loopback() {
  auto address = net::ParseNetAddress("127.0.0.1:0");
  EXPECT_TRUE(address.ok());
  return *address;
}

double CounterValue(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [counter_name, value] : snap.counters) {
    if (counter_name == name) return static_cast<double>(value);
  }
  return 0.0;
}

class NetServeTest : public ::testing::Test {
 protected:
  NetServeTest() {
    DenseConfig config;
    config.num_items = 40;
    config.num_sources = 8;
    config.density = 0.5;
    config.seed = 11;
    data_ = GenerateDense(config);
  }

  SupervisorOptions SupOptions(const std::string& dir) {
    SupervisorOptions options;
    options.sessions_dir = TestPath(dir);
    options.max_concurrent_sessions = 2;
    options.max_queue_depth = 16;
    return options;
  }

  SessionSpec QuickSpec(const std::string& id) {
    SessionSpec spec;
    spec.id = id;
    spec.strategy = "qbc";
    spec.model = "accu";
    spec.max_validations = 4;
    return spec;
  }

  net::NetClientOptions ClientOptions(const net::NetAddress& address) {
    net::NetClientOptions options;
    options.address = address;
    options.request_timeout_ms = 5000;
    options.max_attempts = 6;
    options.initial_backoff_seconds = 0.005;
    return options;
  }

  SyntheticDataset data_;
};

TEST_F(NetServeTest, HealthSubmitReportRoundTrip) {
  SessionSupervisor supervisor(data_.db, data_.truth,
                               SupOptions("net_roundtrip"));
  ASSERT_TRUE(supervisor.Start().ok());
  net::NetServerOptions server_options;
  server_options.address = Loopback();
  net::NetServer server(&supervisor, server_options);
  ASSERT_TRUE(server.Start().ok());

  net::NetClient client(ClientOptions(server.bound_address()));
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->status.ok());
  EXPECT_EQ(health->fields.at("ready"), "1");

  auto result = client.RunRemoteSession(QuickSpec("rt1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, "completed");
  EXPECT_TRUE(result->session_status.ok());
  EXPECT_EQ(result->num_validated, 4u);
  EXPECT_EQ(result->resubmits, 0u);

  // Per-tenant observability: the session's steps were recorded under its
  // own id, and the metrics request exposes them remotely.
  auto metrics = client.MetricsJson();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("session.step_seconds.rt1"), std::string::npos);
  EXPECT_NE(metrics->find("net.accepted"), std::string::npos);

  server.Stop();
  supervisor.Shutdown();
}

TEST_F(NetServeTest, ResubmitSameIdIsIdempotent) {
  SessionSupervisor supervisor(data_.db, data_.truth,
                               SupOptions("net_idempotent"));
  ASSERT_TRUE(supervisor.Start().ok());
  net::NetServerOptions server_options;
  server_options.address = Loopback();
  net::NetServer server(&supervisor, server_options);
  ASSERT_TRUE(server.Start().ok());
  net::NetClient client(ClientOptions(server.bound_address()));

  const SessionSpec spec = QuickSpec("dup");
  auto first = client.RunRemoteSession(spec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->outcome, "completed");

  // A blind re-send of the same id answers from the report log — no second
  // run is admitted.
  auto again = client.Submit(spec);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->status.ok());
  EXPECT_EQ(again->fields.at("state"), "done");
  EXPECT_EQ(again->fields.at("deduped"), "1");
  EXPECT_EQ(again->fields.at("outcome"), "completed");

  std::size_t runs = 0;
  for (const SessionReport& report : supervisor.Reports()) {
    if (report.id == "dup") ++runs;
  }
  EXPECT_EQ(runs, 1u);

  server.Stop();
  supervisor.Shutdown();
}

TEST_F(NetServeTest, SupervisorShedArrivesAsTypedResourceExhausted) {
  SupervisorOptions options = SupOptions("net_shed");
  options.max_concurrent_sessions = 1;
  options.max_queue_depth = 1;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  net::NetServerOptions server_options;
  server_options.address = Loopback();
  net::NetServer server(&supervisor, server_options);
  ASSERT_TRUE(server.Start().ok());
  net::NetClient client(ClientOptions(server.bound_address()));

  // Occupy the only worker with a slow session, fill the depth-1 queue,
  // then overflow: the rejection must be the supervisor's typed shed,
  // transported untouched.
  SessionSpec slow = QuickSpec("slow");
  slow.stall_seconds = 0.2;
  slow.max_validations = 2;
  auto admitted = client.Submit(slow);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  ASSERT_TRUE(admitted->status.ok()) << admitted->status.ToString();
  while (supervisor.running_sessions() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto filler = client.Submit(QuickSpec("filler"));
  ASSERT_TRUE(filler.ok()) << filler.status().ToString();
  ASSERT_TRUE(filler->status.ok()) << filler->status.ToString();

  auto shed = client.Submit(QuickSpec("overflow"));
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status.code(), StatusCode::kResourceExhausted)
      << shed->status.ToString();

  supervisor.Drain();
  server.Stop();
  supervisor.Shutdown();
}

TEST_F(NetServeTest, ConnectionShedIsTypedToo) {
  SessionSupervisor supervisor(data_.db, data_.truth,
                               SupOptions("net_conn_shed"));
  ASSERT_TRUE(supervisor.Start().ok());
  net::NetServerOptions server_options;
  server_options.address = Loopback();
  server_options.max_connections = 1;
  net::NetServer server(&supervisor, server_options);
  ASSERT_TRUE(server.Start().ok());

  // Park one connection so the next lands in the over-capacity tier, which
  // answers a typed ResourceExhausted instead of hanging or dropping.
  net::NetClientOptions parked_options = ClientOptions(server.bound_address());
  auto parked =
      net::Connect(parked_options.address, Deadline::AfterMillis(2000));
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();

  net::NetClientOptions one_shot = ClientOptions(server.bound_address());
  one_shot.max_attempts = 1;  // A retry could land after the parked conn dies.
  net::NetClient client(one_shot);
  auto response = client.Health("probe");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kResourceExhausted)
      << response->status.ToString();

  net::CloseFd(*parked);
  server.Stop();
  supervisor.Shutdown();
}

TEST_F(NetServeTest, ChaosDrillHasNoSilentLoss) {
  const auto before = MetricsRegistry::Global().Snapshot();
  SupervisorOptions sup_options = SupOptions("net_chaos");
  SessionSupervisor supervisor(data_.db, data_.truth, sup_options);
  ASSERT_TRUE(supervisor.Start().ok());
  net::NetServerOptions server_options;
  server_options.address = Loopback();
  server_options.request_timeout_ms = 2000;
  net::NetServer server(&supervisor, server_options);
  ASSERT_TRUE(server.Start().ok());

  net::ChaosProxyOptions proxy_options;
  proxy_options.listen = Loopback();
  proxy_options.upstream = server.bound_address();
  proxy_options.seed = 1234;
  proxy_options.chunk_bytes = 64;  // Many chunks per frame = many fault rolls.
  proxy_options.corrupt.probability = 0.05;
  proxy_options.drop.probability = 0.02;
  proxy_options.truncate.probability = 0.02;
  proxy_options.half_close.probability = 0.01;
  net::ChaosProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  constexpr int kSessions = 12;
  std::mutex mu;
  std::map<std::string, int> tally;  // outcome/typed-error -> count
  std::vector<std::thread> runners;
  runners.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    runners.emplace_back([&, i] {
      net::NetClientOptions options = ClientOptions(proxy.bound_address());
      options.max_attempts = 8;
      options.overall_deadline = Deadline::AfterMillis(30'000);
      net::NetClient client(options);
      const auto result =
          client.RunRemoteSession(QuickSpec("c" + std::to_string(i)));
      std::lock_guard<std::mutex> lock(mu);
      if (result.ok()) {
        tally[result->outcome] += 1;
      } else {
        tally["error:" + std::string(StatusCodeName(result.status().code()))] +=
            1;
      }
    });
  }
  for (std::thread& t : runners) t.join();

  // The partition: every session is accounted for — a terminal outcome or a
  // typed client error; nothing vanished.
  int accounted = 0;
  for (const auto& [bucket, count] : tally) {
    accounted += count;
    SCOPED_TRACE(bucket);
    EXPECT_GT(count, 0);
  }
  EXPECT_EQ(accounted, kSessions);
  // Under this plan most sessions should actually complete (retries absorb
  // the chaos); at least one must.
  EXPECT_GE(tally["completed"], 1);

  // Completed remote sessions are bit-identical to in-process runs of the
  // same specs: chaos may kill transport attempts but never perturbs what
  // the session computed.
  SupervisorOptions local_options = SupOptions("net_chaos_local");
  SessionSupervisor local(data_.db, data_.truth, local_options);
  ASSERT_TRUE(local.Start().ok());
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(local.Submit(QuickSpec("c" + std::to_string(i))).ok());
  }
  local.Drain();
  for (const SessionReport& remote : supervisor.Reports()) {
    if (remote.outcome != SessionOutcome::kCompleted) continue;
    SessionReport reference;
    ASSERT_TRUE(local.FindReport(remote.id, &reference)) << remote.id;
    EXPECT_EQ(remote.num_validated, reference.num_validated) << remote.id;
    EXPECT_EQ(remote.rounds, reference.rounds) << remote.id;
    EXPECT_EQ(remote.status.code(), reference.status.code()) << remote.id;
  }
  local.Shutdown();

  // Corruption was both injected and *detected* — the CRC framing turned
  // flipped bits into typed, retried failures.
  const auto after = MetricsRegistry::Global().Snapshot();
  const double injected = CounterValue(after, "chaos.corrupt") -
                          CounterValue(before, "chaos.corrupt");
  const double detected = CounterValue(after, "net.frames_corrupt") -
                          CounterValue(before, "net.frames_corrupt");
  EXPECT_GT(injected, 0.0);
  EXPECT_GT(detected, 0.0);

  // Chaos or not, the durable layer leaves no atomic-write litter behind.
  EXPECT_TRUE(TmpLitter(sup_options.sessions_dir).empty());

  proxy.Stop();
  server.Stop();
  supervisor.Shutdown();
}

TEST_F(NetServeTest, DrainLeavesQueuedSessionsRecoverable) {
  SupervisorOptions options = SupOptions("net_drain");
  options.max_concurrent_sessions = 1;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  net::NetServerOptions server_options;
  server_options.address = Loopback();
  net::NetServer server(&supervisor, server_options);
  ASSERT_TRUE(server.Start().ok());
  net::NetClient client(ClientOptions(server.bound_address()));

  // One slow runner occupies the worker; two more queue behind it.
  SessionSpec running = QuickSpec("drain_running");
  running.stall_seconds = 0.1;
  ASSERT_TRUE(client.Submit(running).ok());
  auto q1 = client.Submit(QuickSpec("drain_q1"));
  auto q2 = client.Submit(QuickSpec("drain_q2"));
  ASSERT_TRUE(q1.ok() && q1->status.ok());
  ASSERT_TRUE(q2.ok() && q2->status.ok());

  auto drain = client.DrainServer();
  ASSERT_TRUE(drain.ok()) << drain.status().ToString();
  EXPECT_EQ(drain->fields.at("draining"), "1");

  // Draining daemons reject new work with a typed Unavailable but still
  // answer health (observability of the wind-down).
  auto rejected = client.Submit(QuickSpec("too_late"));
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status.code(), StatusCode::kUnavailable)
      << rejected->status.ToString();
  auto health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->fields.at("ready"), "0");

  while (supervisor.running_sessions() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();
  supervisor.Shutdown();

  // The queued sessions' manifests survived the drain...
  auto survivors = ListSessionManifests(options.sessions_dir);
  ASSERT_TRUE(survivors.ok());
  int queued_manifests = 0;
  for (const std::string& id : *survivors) {
    if (id == "drain_q1" || id == "drain_q2") ++queued_manifests;
  }
  EXPECT_EQ(queued_manifests, 2);

  // ...and a restarted supervisor recovers and finishes them.
  SessionSupervisor restarted(data_.db, data_.truth, options);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_GE(restarted.RecoverSessions(), 2u);
  restarted.Drain();
  for (const char* id : {"drain_q1", "drain_q2"}) {
    SessionReport report;
    ASSERT_TRUE(restarted.FindReport(id, &report)) << id;
    EXPECT_EQ(report.outcome, SessionOutcome::kCompleted) << id;
    EXPECT_EQ(report.num_validated, 4u) << id;
  }
  restarted.Shutdown();
  EXPECT_TRUE(TmpLitter(options.sessions_dir).empty());
}

}  // namespace
}  // namespace veritas
