// Tests of session checkpoint/resume. The headline property (the ISSUE's
// acceptance criterion): a session killed mid-run and resumed from its
// checkpoint produces a SessionTrace identical to an uninterrupted run under
// the same seed — including the fault schedule of a flaky oracle.
#include "core/session_checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/qbc.h"
#include "core/resilient_oracle.h"
#include "core/session.h"
#include "data/example_data.h"
#include "data/synthetic.h"
#include "fusion/accu.h"
#include "test_dir.h"

namespace veritas {
namespace {

// Bit-exact trace comparison, excluding wall-clock timing fields (the only
// fields a resume legitimately changes).
void ExpectTracesIdentical(const SessionTrace& a, const SessionTrace& b) {
  EXPECT_EQ(a.initial_distance, b.initial_distance);
  EXPECT_EQ(a.initial_uncertainty, b.initial_uncertainty);
  EXPECT_EQ(a.skipped_items, b.skipped_items);
  EXPECT_EQ(a.total_oracle_retries, b.total_oracle_retries);
  EXPECT_EQ(a.fusion_nonconverged_rounds, b.fusion_nonconverged_rounds);
  EXPECT_EQ(a.fusion_fallback_rounds, b.fusion_fallback_rounds);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    EXPECT_EQ(a.steps[s].num_validated, b.steps[s].num_validated);
    EXPECT_EQ(a.steps[s].items, b.steps[s].items);
    EXPECT_EQ(a.steps[s].skipped, b.steps[s].skipped);
    EXPECT_EQ(a.steps[s].oracle_retries, b.steps[s].oracle_retries);
    EXPECT_EQ(a.steps[s].distance, b.steps[s].distance);
    EXPECT_EQ(a.steps[s].uncertainty, b.steps[s].uncertainty);
  }
  ASSERT_EQ(a.priors.size(), b.priors.size());
  for (ItemId i : a.priors.Items()) {
    ASSERT_TRUE(b.priors.Has(i)) << "item " << i;
    EXPECT_EQ(a.priors.Get(i), b.priors.Get(i)) << "item " << i;
  }
  ASSERT_EQ(a.final_fusion.num_items(), b.final_fusion.num_items());
  for (ItemId i = 0; i < a.final_fusion.num_items(); ++i) {
    EXPECT_EQ(a.final_fusion.item_probs(i), b.final_fusion.item_probs(i))
        << "item " << i;
  }
  EXPECT_EQ(a.final_fusion.accuracies(), b.final_fusion.accuracies());
}

class CheckpointTest : public ::testing::Test {
 protected:
  Database db_ = MakeMovieDatabase();
  GroundTruth truth_ = MakeMovieGroundTruth(db_);
  AccuFusion model_;
};

TEST_F(CheckpointTest, SaveLoadRoundTripsEveryField) {
  SessionCheckpoint cp;
  cp.num_validated = 3;
  cp.initial_distance = 0.123456789123456789;
  cp.initial_uncertainty = 2.5;
  cp.total_oracle_retries = 7;
  cp.fusion_nonconverged_rounds = 2;
  cp.fusion_fallback_rounds = 1;
  SessionStep step;
  step.num_validated = 3;
  step.items = {0, 2};
  step.skipped = {4};
  step.oracle_retries = 5;
  step.distance = 0.25;
  step.uncertainty = 1.5;
  cp.steps.push_back(step);
  cp.skipped_items = {4};
  ASSERT_TRUE(cp.priors.SetExact(db_, 0, truth_.TrueClaim(0)).ok());
  cp.fusion = FusionResult(db_, 0.8);
  cp.fusion.set_iterations(9);
  cp.fusion.set_converged(true);
  (*cp.fusion.mutable_item_probs(1))[0] = 0.625;
  cp.rng_state = "12345 67890";
  cp.oracle_state = "0 |";

  const std::string path = TestPath("veritas_ckpt_roundtrip.txt");
  ASSERT_TRUE(SaveSessionCheckpoint(cp, path).ok());
  const auto loaded = LoadSessionCheckpoint(path, db_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->num_validated, cp.num_validated);
  EXPECT_EQ(loaded->initial_distance, cp.initial_distance);
  EXPECT_EQ(loaded->initial_uncertainty, cp.initial_uncertainty);
  EXPECT_EQ(loaded->total_oracle_retries, cp.total_oracle_retries);
  EXPECT_EQ(loaded->fusion_nonconverged_rounds, cp.fusion_nonconverged_rounds);
  EXPECT_EQ(loaded->fusion_fallback_rounds, cp.fusion_fallback_rounds);
  ASSERT_EQ(loaded->steps.size(), 1u);
  EXPECT_EQ(loaded->steps[0].items, step.items);
  EXPECT_EQ(loaded->steps[0].skipped, step.skipped);
  EXPECT_EQ(loaded->steps[0].oracle_retries, step.oracle_retries);
  EXPECT_EQ(loaded->steps[0].distance, step.distance);
  EXPECT_EQ(loaded->skipped_items, cp.skipped_items);
  ASSERT_TRUE(loaded->priors.Has(0));
  EXPECT_EQ(loaded->priors.Get(0), cp.priors.Get(0));
  ASSERT_EQ(loaded->fusion.num_items(), cp.fusion.num_items());
  EXPECT_EQ(loaded->fusion.item_probs(1), cp.fusion.item_probs(1));
  EXPECT_EQ(loaded->fusion.accuracies(), cp.fusion.accuracies());
  EXPECT_EQ(loaded->fusion.iterations(), 9u);
  EXPECT_TRUE(loaded->fusion.converged());
  EXPECT_EQ(loaded->rng_state, cp.rng_state);
  EXPECT_EQ(loaded->oracle_state, cp.oracle_state);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, MissingFileIsNotFound) {
  const auto loaded =
      LoadSessionCheckpoint(TestPath("veritas_ckpt_nope.txt"), db_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, CorruptFileIsInvalidArgument) {
  const std::string path = TestPath("veritas_ckpt_corrupt.txt");
  {
    std::ofstream out(path);
    out << "not a checkpoint at all\n";
  }
  const auto loaded = LoadSessionCheckpoint(path, db_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, FutureVersionIsRejected) {
  const std::string path = TestPath("veritas_ckpt_future.txt");
  {
    std::ofstream out(path);
    out << "veritas-checkpoint 999\nend\n";
  }
  const auto loaded = LoadSessionCheckpoint(path, db_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, TrailerlessV1IsRejected) {
  // v1 predates the checksum trailer; loading one would trust unverified
  // bytes, so it is rejected like any other non-current version.
  const std::string path = TestPath("veritas_ckpt_v1.txt");
  {
    std::ofstream out(path);
    out << "veritas-checkpoint 1\nmeta 0 0 0 0\nend\n";
  }
  const auto loaded = LoadSessionCheckpoint(path, db_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, SessionWritesCheckpointDuringRun) {
  const std::string path = TestPath("veritas_ckpt_written.txt");
  std::remove(path.c_str());
  QbcStrategy strategy;
  PerfectOracle oracle;
  SessionOptions options;
  options.checkpoint_path = path;
  Rng rng(5);
  FeedbackSession session(db_, model_, &strategy, &oracle, truth_, options,
                          &rng);
  ASSERT_TRUE(session.Run().ok());
  const auto cp = LoadSessionCheckpoint(path, db_);
  ASSERT_TRUE(cp.ok()) << cp.status();
  EXPECT_EQ(cp->num_validated, 5u);
  EXPECT_EQ(cp->priors.size(), 5u);
  std::remove(path.c_str());
}

// The acceptance scenario: run A uninterrupted; run B with the same seeds
// but a validation cap, checkpointing (the simulated kill); run C resumes
// from B's checkpoint with fresh strategy/oracle/rng objects. C must equal A
// bit for bit.
TEST_F(CheckpointTest, ResumeMatchesUninterruptedRun) {
  DenseConfig config;
  config.num_items = 40;
  config.num_sources = 8;
  config.density = 0.5;
  config.seed = 11;
  const SyntheticDataset data = GenerateDense(config);
  FaultPlan plan;
  plan.probability = 0.3;

  SessionOptions base;
  base.max_validations = 20;

  // Run A: uninterrupted.
  SessionTrace trace_a;
  {
    QbcStrategy strategy;
    PerfectOracle inner;
    FlakyOracle oracle(&inner, plan, /*seed=*/19);
    Rng rng(7);
    FeedbackSession session(data.db, model_, &strategy, &oracle, data.truth,
                            base, &rng);
    const auto trace = session.Run();
    ASSERT_TRUE(trace.ok()) << trace.status();
    trace_a = *trace;
  }
  ASSERT_GT(trace_a.steps.size(), 8u);  // The kill point must be mid-run.

  const std::string path = TestPath("veritas_ckpt_resume.txt");
  std::remove(path.c_str());

  // Run B: same seeds, killed after 8 validations, checkpointing as it goes.
  {
    QbcStrategy strategy;
    PerfectOracle inner;
    FlakyOracle oracle(&inner, plan, /*seed=*/19);
    Rng rng(7);
    SessionOptions options = base;
    options.max_validations = 8;
    options.checkpoint_path = path;
    FeedbackSession session(data.db, model_, &strategy, &oracle, data.truth,
                            options, &rng);
    ASSERT_TRUE(session.Run().ok());
  }

  // Run C: fresh objects, resumed from B's checkpoint.
  SessionTrace trace_c;
  {
    QbcStrategy strategy;
    PerfectOracle inner;
    FlakyOracle oracle(&inner, plan, /*seed=*/19);
    Rng rng(7);  // Overwritten by the checkpointed engine state.
    SessionOptions options = base;
    options.resume_path = path;
    FeedbackSession session(data.db, model_, &strategy, &oracle, data.truth,
                            options, &rng);
    const auto trace = session.Run();
    ASSERT_TRUE(trace.ok()) << trace.status();
    trace_c = *trace;
  }

  ExpectTracesIdentical(trace_a, trace_c);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ResumeFromMissingFileIsAFreshStart) {
  QbcStrategy strategy;
  PerfectOracle oracle;
  SessionOptions options;
  options.resume_path = TestPath("veritas_ckpt_never_written.txt");
  Rng rng(5);
  FeedbackSession session(db_, model_, &strategy, &oracle, truth_, options,
                          &rng);
  const auto trace = session.Run();
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->priors.size(), 5u);
}

TEST_F(CheckpointTest, ResumeAfterCompletionReplaysTheFinishedTrace) {
  const std::string path = TestPath("veritas_ckpt_done.txt");
  std::remove(path.c_str());
  SessionTrace first;
  {
    QbcStrategy strategy;
    PerfectOracle oracle;
    SessionOptions options;
    options.checkpoint_path = path;
    Rng rng(5);
    FeedbackSession session(db_, model_, &strategy, &oracle, truth_, options,
                            &rng);
    const auto trace = session.Run();
    ASSERT_TRUE(trace.ok());
    first = *trace;
  }
  {
    QbcStrategy strategy;
    PerfectOracle oracle;
    SessionOptions options;
    options.resume_path = path;
    Rng rng(5);
    FeedbackSession session(db_, model_, &strategy, &oracle, truth_, options,
                            &rng);
    const auto trace = session.Run();
    ASSERT_TRUE(trace.ok());
    ExpectTracesIdentical(first, *trace);
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, CorruptResumeFileAbortsTheRun) {
  const std::string path = TestPath("veritas_ckpt_bad_resume.txt");
  {
    std::ofstream out(path);
    out << "garbage\n";
  }
  QbcStrategy strategy;
  PerfectOracle oracle;
  SessionOptions options;
  options.resume_path = path;
  Rng rng(5);
  FeedbackSession session(db_, model_, &strategy, &oracle, truth_, options,
                          &rng);
  const auto trace = session.Run();
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace veritas
