// Crash-recovery sweep semantics: a new supervisor over an old sessions
// directory resumes every interrupted session from its durable state,
// abandons sessions past their recovery-attempt cap (and corrupt
// manifests), and two supervisor workers evicting/restoring *distinct*
// sessions in the same directory never cross-contaminate each other's
// recovery chains or leak temp files. Runs real threads -> `concurrency`
// label, TSan in CI.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "obs/metrics.h"
#include "serve/session_supervisor.h"
#include "test_dir.h"

namespace veritas {
namespace {

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::vector<std::string> ListWithSubstring(const std::string& dir,
                                           const std::string& needle) {
  std::vector<std::string> hits;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return hits;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.find(needle) != std::string::npos) hits.push_back(name);
  }
  ::closedir(d);
  return hits;
}

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    DenseConfig config;
    config.num_items = 40;
    config.num_sources = 8;
    config.density = 0.5;
    config.seed = 11;
    data_ = GenerateDense(config);
  }

  SessionSpec Spec(const std::string& id, std::uint64_t seed) {
    SessionSpec spec;
    spec.id = id;
    spec.strategy = "qbc";
    spec.model = "accu";
    spec.max_validations = 8;
    spec.seed = seed;
    return spec;
  }

  SyntheticDataset data_;
};

// A process death between admissions: supervisor A evicts a session and is
// destroyed (durable state survives); a brand-new supervisor B over the
// same directory sweeps, resumes, and finishes the session.
TEST_F(RecoveryTest, NewSupervisorResumesWhatTheOldOneLeft) {
  const std::string dir = TestPath("rec_restart");
  {
    SupervisorOptions options;
    options.sessions_dir = dir;
    SessionSupervisor first(data_.db, data_.truth, options);
    ASSERT_TRUE(first.Start().ok());
    SessionSpec spec = Spec("carry", 21);
    spec.budget.max_rounds_per_run = 3;
    ASSERT_TRUE(first.Submit(spec).ok());
    first.Drain();
    SessionReport report;
    ASSERT_TRUE(first.FindReport("carry", &report));
    ASSERT_EQ(report.outcome, SessionOutcome::kEvicted);
  }  // "Crash": the supervisor dies; manifest + checkpoint survive.
  ASSERT_TRUE(Exists(SessionManifestPath(dir, "carry")));
  ASSERT_TRUE(Exists(SessionCheckpointPath(dir, "carry")));

  SupervisorOptions options;
  options.sessions_dir = dir;
  options.keep_traces = true;
  SessionSupervisor second(data_.db, data_.truth, options);
  ASSERT_TRUE(second.Start().ok());
  std::size_t sweeps = 0;
  while (second.RecoverSessions() > 0) {
    second.Drain();
    ASSERT_LT(++sweeps, 10u);
  }
  ASSERT_GE(sweeps, 1u);
  SessionReport report;
  ASSERT_TRUE(second.FindReport("carry", &report));
  EXPECT_EQ(report.outcome, SessionOutcome::kCompleted) << report.status;
  EXPECT_TRUE(report.resumed);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.num_validated, 8u);
  EXPECT_FALSE(Exists(SessionManifestPath(dir, "carry")));
}

TEST_F(RecoveryTest, AbandonsSessionsPastTheAttemptCap) {
  MetricsRegistry::Global().Reset();
  const std::string dir = TestPath("rec_cap");
  SupervisorOptions options;
  options.sessions_dir = dir;
  options.max_recovery_attempts = 3;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  // Simulate a session that already burned its recovery budget.
  SessionSpec spec = Spec("doomed", 5);
  spec.recovery_attempts = 3;
  ASSERT_TRUE(
      SaveSessionManifest(spec, SessionManifestPath(dir, "doomed")).ok());
  EXPECT_EQ(supervisor.RecoverSessions(), 0u);
  EXPECT_FALSE(Exists(SessionManifestPath(dir, "doomed")));
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.Value("supervisor.recovery_abandoned"), 1.0);
}

TEST_F(RecoveryTest, RecoveryIncrementsTheDurableAttemptCount) {
  const std::string dir = TestPath("rec_count");
  SupervisorOptions options;
  options.sessions_dir = dir;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  SessionSpec spec = Spec("counted", 5);
  spec.budget.max_rounds_per_run = 3;
  ASSERT_TRUE(supervisor.Submit(spec).ok());
  supervisor.Drain();  // Evicted after 3 rounds.
  ASSERT_EQ(supervisor.RecoverSessions(), 1u);
  supervisor.Drain();  // Evicted again after 3 more rounds.
  // The attempt was persisted *before* the re-run: a crash mid-recovery
  // still counts against the cap.
  auto manifest = LoadSessionManifest(SessionManifestPath(dir, "counted"));
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->recovery_attempts, 1u);
}

TEST_F(RecoveryTest, CorruptManifestIsAbandonedNotRetried) {
  const std::string dir = TestPath("rec_corrupt");
  SupervisorOptions options;
  options.sessions_dir = dir;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  {
    std::ofstream out(SessionManifestPath(dir, "garbled"));
    out << "veritas-session-manifest v1\nid garbled\n";  // No end marker.
  }
  EXPECT_EQ(supervisor.RecoverSessions(), 0u);
  EXPECT_FALSE(Exists(SessionManifestPath(dir, "garbled")));
  // And the next sweep has nothing left to look at.
  EXPECT_EQ(supervisor.RecoverSessions(), 0u);
}

// ISSUE-6 satellite: two workers evicting + restoring *distinct* sessions
// in the same directory. Each session's stitched-together result must equal
// its own uninterrupted reference (no cross-contamination of checkpoint
// chains), and the directory must hold no atomic-write temp litter.
TEST_F(RecoveryTest, ConcurrentEvictRestoreCyclesStayIsolated) {
  // The two sessions must provably differ (different validation budgets and
  // strategies), or the isolation check below could not detect a swapped
  // checkpoint chain.
  const auto spec_for = [this](const std::string& id) {
    SessionSpec spec = Spec(id, id == "alpha" ? 1001 : 2002);
    if (id == "beta") {
      spec.strategy = "us";
      spec.max_validations = 6;
    }
    return spec;
  };
  // References: each spec run alone, uninterrupted.
  std::map<std::string, SessionReport> reference;
  for (const auto& id : {std::string("alpha"), std::string("beta")}) {
    const std::string ref_dir = TestPath("rec_iso_ref_" + id);
    SupervisorOptions options;
    options.sessions_dir = ref_dir;
    options.keep_traces = true;
    SessionSupervisor supervisor(data_.db, data_.truth, options);
    ASSERT_TRUE(supervisor.Start().ok());
    ASSERT_TRUE(supervisor.Submit(spec_for(id)).ok());
    supervisor.Drain();
    SessionReport report;
    ASSERT_TRUE(supervisor.FindReport(id, &report));
    ASSERT_EQ(report.outcome, SessionOutcome::kCompleted);
    reference[id] = report;
  }
  ASSERT_NE(reference["alpha"].trace.final_fusion.accuracies(),
            reference["beta"].trace.final_fusion.accuracies());

  const std::string dir = TestPath("rec_iso");
  SupervisorOptions options;
  options.sessions_dir = dir;
  options.max_concurrent_sessions = 2;  // Both sessions in flight at once.
  options.keep_traces = true;
  SessionSupervisor supervisor(data_.db, data_.truth, options);
  ASSERT_TRUE(supervisor.Start().ok());
  SessionSpec alpha = spec_for("alpha");
  alpha.budget.max_rounds_per_run = 3;
  SessionSpec beta = spec_for("beta");
  beta.budget.max_rounds_per_run = 2;  // Deliberately out of phase.
  ASSERT_TRUE(supervisor.Submit(alpha).ok());
  ASSERT_TRUE(supervisor.Submit(beta).ok());
  supervisor.Drain();
  std::size_t sweeps = 0;
  while (supervisor.RecoverSessions() > 0) {
    supervisor.Drain();
    ASSERT_LT(++sweeps, 12u);
  }
  for (const auto& id : {std::string("alpha"), std::string("beta")}) {
    SCOPED_TRACE(id);
    SessionReport report;
    ASSERT_TRUE(supervisor.FindReport(id, &report));
    ASSERT_EQ(report.outcome, SessionOutcome::kCompleted) << report.status;
    const SessionTrace& a = reference[id].trace;
    const SessionTrace& b = report.trace;
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t s = 0; s < a.steps.size(); ++s) {
      SCOPED_TRACE("step " + std::to_string(s));
      EXPECT_EQ(a.steps[s].items, b.steps[s].items);
      EXPECT_EQ(a.steps[s].distance, b.steps[s].distance);
    }
    EXPECT_EQ(a.final_fusion.accuracies(), b.final_fusion.accuracies());
  }
  // No manifest, checkpoint, or atomic-write temp file survives success.
  EXPECT_EQ(supervisor.RecoverSessions(), 0u);
  EXPECT_TRUE(ListWithSubstring(dir, ".tmp.").empty());
  EXPECT_TRUE(ListWithSubstring(dir, ".session").empty());
}

}  // namespace
}  // namespace veritas
