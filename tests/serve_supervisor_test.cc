// SessionSupervisor behavior under load: typed admission control, budget
// eviction + bit-exact resume through the recovery sweep, watchdog
// escalation on hung sessions, and lifecycle/cleanup invariants. These
// tests run real worker/watchdog threads, so they carry the `concurrency`
// ctest label and run under the TSan preset in CI.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "obs/metrics.h"
#include "serve/session_supervisor.h"
#include "util/strings.h"
#include "test_dir.h"

namespace veritas {
namespace {

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

class SupervisorTest : public ::testing::Test {
 protected:
  SupervisorTest() {
    DenseConfig config;
    config.num_items = 40;
    config.num_sources = 8;
    config.density = 0.5;
    config.seed = 11;
    data_ = GenerateDense(config);
  }

  SessionSpec QuickSpec(const std::string& id) {
    SessionSpec spec;
    spec.id = id;
    spec.strategy = "qbc";
    spec.model = "accu";
    spec.max_validations = 4;
    return spec;
  }

  SyntheticDataset data_;
};

TEST_F(SupervisorTest, SubmitBeforeStartIsFailedPrecondition) {
  SupervisorOptions options;
  options.sessions_dir = TestPath("sup_prestart");
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  const Status s = supervisor.Submit(QuickSpec("early"));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(SupervisorTest, StartRequiresASessionsDir) {
  SupervisorOptions options;  // sessions_dir empty.
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  EXPECT_EQ(supervisor.Start().code(), StatusCode::kInvalidArgument);
}

TEST_F(SupervisorTest, RejectsBadAndDuplicateIds) {
  SupervisorOptions options;
  options.sessions_dir = TestPath("sup_ids");
  options.max_concurrent_sessions = 1;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  EXPECT_EQ(supervisor.Submit(QuickSpec("bad id")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(supervisor.Submit(QuickSpec("../escape")).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(supervisor.Submit(QuickSpec("dup")).ok());
  // Queued or running either way: a second "dup" must be rejected.
  const Status again = supervisor.Submit(QuickSpec("dup"));
  if (!again.ok()) {  // It may already have completed on a fast machine.
    EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
  }
  supervisor.Drain();
}

TEST_F(SupervisorTest, ShedsPastTheQueueDepthWithATypedStatus) {
  SupervisorOptions options;
  options.sessions_dir = TestPath("sup_shed");
  options.max_concurrent_sessions = 1;
  options.max_queue_depth = 2;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  // A hung session occupies the single worker so the queue really fills.
  SessionSpec plug = QuickSpec("plug");
  plug.stall_seconds = 30.0;
  plug.deadline_ms = 300;
  ASSERT_TRUE(supervisor.Submit(plug).ok());
  std::size_t ok = 0, shed = 0;
  for (int i = 0; i < 6; ++i) {
    const Status s = supervisor.Submit(QuickSpec(NumberedName("q", i)));
    if (s.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
      EXPECT_NE(s.message().find("shed"), std::string::npos) << s.ToString();
      ++shed;
    }
  }
  EXPECT_GE(shed, 4u);  // Depth 2: at most 2 of the 6 can be admitted.
  EXPECT_LE(ok, 2u);
  supervisor.Drain();
  supervisor.Shutdown();
  EXPECT_EQ(supervisor.Submit(QuickSpec("late")).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SupervisorTest, CompletedSessionCleansUpItsArtifacts) {
  const std::string dir = TestPath("sup_cleanup");
  SupervisorOptions options;
  options.sessions_dir = dir;
  options.keep_traces = true;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  ASSERT_TRUE(supervisor.Submit(QuickSpec("clean")).ok());
  supervisor.Drain();
  SessionReport report;
  ASSERT_TRUE(supervisor.FindReport("clean", &report));
  EXPECT_EQ(report.outcome, SessionOutcome::kCompleted);
  EXPECT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.num_validated, 4u);
  EXPECT_EQ(report.trace.steps.size(), 4u);
  EXPECT_FALSE(report.resumed);
  // Terminal success leaves no durable state behind.
  EXPECT_FALSE(Exists(SessionManifestPath(dir, "clean")));
  EXPECT_FALSE(Exists(SessionCheckpointPath(dir, "clean")));
}

TEST_F(SupervisorTest, UnknownModelFailsTheSessionWithoutRecoveryLoop) {
  const std::string dir = TestPath("sup_badmodel");
  SupervisorOptions options;
  options.sessions_dir = dir;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  SessionSpec spec = QuickSpec("broken");
  spec.model = "no_such_model";
  ASSERT_TRUE(supervisor.Submit(spec).ok());
  supervisor.Drain();
  SessionReport report;
  ASSERT_TRUE(supervisor.FindReport("broken", &report));
  EXPECT_EQ(report.outcome, SessionOutcome::kFailed);
  EXPECT_FALSE(report.status.ok());
  // The manifest is gone, so a recovery sweep cannot re-run the failure.
  EXPECT_FALSE(Exists(SessionManifestPath(dir, "broken")));
  EXPECT_EQ(supervisor.RecoverSessions(), 0u);
}

// The tentpole acceptance scenario: a budget-evicted session, resumed via
// the recovery sweep (possibly several times), lands bit-exactly on the
// uninterrupted run's result.
TEST_F(SupervisorTest, EvictedSessionRecoversBitExactly) {
  SessionSpec base = QuickSpec("target");
  base.max_validations = 8;

  // Reference: the same spec run uninterrupted (no budget).
  const std::string ref_dir = TestPath("sup_bitexact_ref");
  SessionReport reference;
  {
    SupervisorOptions options;
    options.sessions_dir = ref_dir;
    options.keep_traces = true;
    SessionSupervisor supervisor(data_.db, data_.truth, options);
    ASSERT_TRUE(supervisor.Start().ok());
    ASSERT_TRUE(supervisor.Submit(base).ok());
    supervisor.Drain();
    ASSERT_TRUE(supervisor.FindReport("target", &reference));
    ASSERT_EQ(reference.outcome, SessionOutcome::kCompleted);
  }

  // Interrupted: 3 rounds per admission, evicted + recovered until done.
  const std::string dir = TestPath("sup_bitexact");
  SupervisorOptions options;
  options.sessions_dir = dir;
  options.keep_traces = true;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  SessionSpec budgeted = base;
  budgeted.budget.max_rounds_per_run = 3;
  ASSERT_TRUE(supervisor.Submit(budgeted).ok());
  supervisor.Drain();

  SessionReport evicted;
  ASSERT_TRUE(supervisor.FindReport("target", &evicted));
  ASSERT_EQ(evicted.outcome, SessionOutcome::kEvicted);
  EXPECT_EQ(evicted.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(Exists(SessionManifestPath(dir, "target")));
  EXPECT_TRUE(Exists(SessionCheckpointPath(dir, "target")));

  std::size_t sweeps = 0;
  while (supervisor.RecoverSessions() > 0) {
    supervisor.Drain();
    ASSERT_LT(++sweeps, 10u) << "recovery did not converge";
  }
  SessionReport final_report;
  ASSERT_TRUE(supervisor.FindReport("target", &final_report));
  ASSERT_EQ(final_report.outcome, SessionOutcome::kCompleted)
      << final_report.status;
  EXPECT_TRUE(final_report.resumed);
  EXPECT_TRUE(final_report.recovered);
  ASSERT_GE(sweeps, 2u);  // 8 rounds at 3 per admission: 2 recoveries.

  // Bit-exact: the stitched-together run equals the uninterrupted one.
  const SessionTrace& a = reference.trace;
  const SessionTrace& b = final_report.trace;
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    EXPECT_EQ(a.steps[s].items, b.steps[s].items);
    EXPECT_EQ(a.steps[s].distance, b.steps[s].distance);
    EXPECT_EQ(a.steps[s].uncertainty, b.steps[s].uncertainty);
  }
  EXPECT_EQ(a.final_fusion.accuracies(), b.final_fusion.accuracies());
  for (ItemId i = 0; i < a.final_fusion.num_items(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a.final_fusion.item_probs(i),
                                   b.final_fusion.item_probs(i)))
        << "item " << i;
  }
  // Completion cleaned the durable state.
  EXPECT_FALSE(Exists(SessionManifestPath(dir, "target")));
}

// Watchdog contract: a session whose oracle hangs past its deadline is
// escalated graceful -> hard, terminates as kCancelled, and the escalations
// are visible in the obs counters.
TEST_F(SupervisorTest, WatchdogCancelsAHungSession) {
  MetricsRegistry::Global().Reset();
  const std::string dir = TestPath("sup_watchdog");
  SupervisorOptions options;
  options.sessions_dir = dir;
  options.watchdog_poll = std::chrono::milliseconds(5);
  options.watchdog_grace = std::chrono::milliseconds(20);
  options.watchdog_hard_grace = std::chrono::milliseconds(40);
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  SessionSpec hung = QuickSpec("hung");
  hung.stall_seconds = 60.0;  // Would block for a minute without the watchdog.
  hung.deadline_ms = 50;
  ASSERT_TRUE(supervisor.Submit(hung).ok());
  supervisor.Drain();

  SessionReport report;
  ASSERT_TRUE(supervisor.FindReport("hung", &report));
  EXPECT_EQ(report.outcome, SessionOutcome::kCancelled);
  EXPECT_EQ(report.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(report.run_seconds, 10.0);  // Far less than the 60s stall.
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.Value("supervisor.watchdog_graceful"), 1.0);
  EXPECT_GE(snap.Value("supervisor.watchdog_hard"), 1.0);
  // Cancelled sessions stay recoverable.
  EXPECT_TRUE(Exists(SessionManifestPath(dir, "hung")));
}

TEST_F(SupervisorTest, ManySessionsAcrossWorkersAllComplete) {
  const std::string dir = TestPath("sup_fleet");
  SupervisorOptions options;
  options.sessions_dir = dir;
  options.max_concurrent_sessions = 4;
  options.max_queue_depth = 64;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  const int kFleet = 12;
  for (int i = 0; i < kFleet; ++i) {
    SessionSpec spec = QuickSpec("fleet" + std::to_string(i));
    spec.seed = 100 + i;
    ASSERT_TRUE(supervisor.Submit(spec).ok());
  }
  supervisor.Drain();
  EXPECT_EQ(supervisor.running_sessions(), 0u);
  EXPECT_EQ(supervisor.queued_sessions(), 0u);
  const auto reports = supervisor.Reports();
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kFleet));
  for (const SessionReport& report : reports) {
    EXPECT_EQ(report.outcome, SessionOutcome::kCompleted) << report.id;
    EXPECT_EQ(report.num_validated, 4u) << report.id;
  }
  // Identical specs except the seed: every session ran independently (no
  // cross-session state bleed through the shared snapshot).
  EXPECT_EQ(supervisor.RecoverSessions(), 0u);
}

TEST_F(SupervisorTest, OutcomeNamesAreStable) {
  EXPECT_STREQ(SessionOutcomeName(SessionOutcome::kCompleted), "completed");
  EXPECT_STREQ(SessionOutcomeName(SessionOutcome::kEvicted), "evicted");
  EXPECT_STREQ(SessionOutcomeName(SessionOutcome::kCancelled), "cancelled");
  EXPECT_STREQ(SessionOutcomeName(SessionOutcome::kFailed), "failed");
}

}  // namespace
}  // namespace veritas
