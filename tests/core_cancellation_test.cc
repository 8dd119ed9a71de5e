// Tests of the deadline/cancellation contract end to end: a graceful stop
// finishes the round, checkpoints, and returns DeadlineExceeded — and a
// session resumed from that checkpoint reproduces the uninterrupted run's
// trace bit for bit (the acceptance criterion). A hard stop discards the
// in-flight round and resumes from the previous checkpoint instead.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/qbc.h"
#include "core/session.h"
#include "core/session_checkpoint.h"
#include "data/example_data.h"
#include "data/synthetic.h"
#include "fusion/accu.h"
#include "util/cancellation.h"
#include "test_dir.h"

namespace veritas {
namespace {

void RemoveChain(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".2").c_str());
}

// Timing fields excluded: they are the only fields a resume legitimately
// changes.
void ExpectTracesIdentical(const SessionTrace& a, const SessionTrace& b) {
  EXPECT_EQ(a.initial_distance, b.initial_distance);
  EXPECT_EQ(a.initial_uncertainty, b.initial_uncertainty);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    EXPECT_EQ(a.steps[s].num_validated, b.steps[s].num_validated);
    EXPECT_EQ(a.steps[s].items, b.steps[s].items);
    EXPECT_EQ(a.steps[s].distance, b.steps[s].distance);
    EXPECT_EQ(a.steps[s].uncertainty, b.steps[s].uncertainty);
  }
  ASSERT_EQ(a.priors.size(), b.priors.size());
  for (ItemId i : a.priors.Items()) {
    ASSERT_TRUE(b.priors.Has(i)) << "item " << i;
    EXPECT_EQ(a.priors.Get(i), b.priors.Get(i)) << "item " << i;
  }
  EXPECT_EQ(a.final_fusion.accuracies(), b.final_fusion.accuracies());
  for (ItemId i = 0; i < a.final_fusion.num_items(); ++i) {
    EXPECT_EQ(a.final_fusion.item_probs(i), b.final_fusion.item_probs(i))
        << "item " << i;
  }
}

// Decorator that trips the cancellation token after a fixed number of
// answers — a deterministic stand-in for an operator pressing Ctrl-C
// mid-session.
class CancelAfterOracle : public FeedbackOracle {
 public:
  CancelAfterOracle(FeedbackOracle* inner, CancellationToken* token,
                    std::size_t cancel_after, bool hard)
      : inner_(inner), token_(token), cancel_after_(cancel_after),
        hard_(hard) {}

  std::string name() const override { return inner_->name(); }

  Result<std::vector<double>> Answer(const Database& db, ItemId item,
                                     const GroundTruth& truth,
                                     Rng* rng) override {
    auto answer = inner_->Answer(db, item, truth, rng);
    if (++answered_ == cancel_after_) {
      if (hard_) {
        token_->RequestHardStop();
      } else {
        token_->RequestStop();
      }
    }
    return answer;
  }

  std::string SerializeState() const override {
    return inner_->SerializeState();
  }
  Status RestoreState(const std::string& state) override {
    return inner_->RestoreState(state);
  }

 private:
  FeedbackOracle* inner_;
  CancellationToken* token_;
  std::size_t cancel_after_;
  bool hard_;
  std::size_t answered_ = 0;
};

class CancellationSessionTest : public ::testing::Test {
 protected:
  CancellationSessionTest() {
    DenseConfig config;
    config.num_items = 40;
    config.num_sources = 8;
    config.density = 0.5;
    config.seed = 11;
    data_ = GenerateDense(config);
  }
  SyntheticDataset data_;
  AccuFusion model_;
};

TEST_F(CancellationSessionTest, ExpiredDeadlineStopsBeforeTheFirstRound) {
  QbcStrategy strategy;
  PerfectOracle oracle;
  SessionOptions options;
  options.deadline = Deadline::AfterMillis(0);
  Rng rng(7);
  FeedbackSession session(data_.db, model_, &strategy, &oracle, data_.truth,
                          options, &rng);
  const auto trace = session.Run();
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(trace.status().message().find("deadline expired"),
            std::string::npos)
      << trace.status();
}

TEST_F(CancellationSessionTest,
       ExpiredDeadlineStillWritesAResumableCheckpoint) {
  const std::string path = TestPath("veritas_cancel_deadline_ckpt.txt");
  RemoveChain(path);
  QbcStrategy strategy;
  PerfectOracle oracle;
  SessionOptions options;
  options.deadline = Deadline::AfterMillis(0);
  options.checkpoint_path = path;
  Rng rng(7);
  FeedbackSession session(data_.db, model_, &strategy, &oracle, data_.truth,
                          options, &rng);
  const auto trace = session.Run();
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kDeadlineExceeded);
  // The status points the operator at the resume file, and the file loads.
  EXPECT_NE(trace.status().message().find(path), std::string::npos)
      << trace.status();
  const auto cp = LoadSessionCheckpoint(path, data_.db);
  ASSERT_TRUE(cp.ok()) << cp.status();
  EXPECT_EQ(cp->num_validated, 0u);
  RemoveChain(path);
}

// The acceptance scenario. Run A: uninterrupted. Run B: same seeds, token
// tripped (gracefully) mid-run — the round in flight completes and is
// checkpointed. Run C: fresh objects resumed from B's checkpoint. C must
// equal A bit for bit.
TEST_F(CancellationSessionTest, GracefulCancelResumesBitExactly) {
  SessionOptions base;
  base.max_validations = 16;

  SessionTrace trace_a;
  {
    QbcStrategy strategy;
    PerfectOracle oracle;
    Rng rng(7);
    FeedbackSession session(data_.db, model_, &strategy, &oracle, data_.truth,
                            base, &rng);
    const auto trace = session.Run();
    ASSERT_TRUE(trace.ok()) << trace.status();
    trace_a = *trace;
  }
  ASSERT_GT(trace_a.steps.size(), 7u);  // The cancel point must be mid-run.

  const std::string path = TestPath("veritas_cancel_graceful_ckpt.txt");
  RemoveChain(path);

  {
    QbcStrategy strategy;
    PerfectOracle inner;
    CancellationToken token;
    CancelAfterOracle oracle(&inner, &token, /*cancel_after=*/7,
                             /*hard=*/false);
    Rng rng(7);
    SessionOptions options = base;
    options.checkpoint_path = path;
    options.cancel = &token;
    FeedbackSession session(data_.db, model_, &strategy, &oracle, data_.truth,
                            options, &rng);
    const auto trace = session.Run();
    ASSERT_FALSE(trace.ok());
    EXPECT_EQ(trace.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(trace.status().message().find("cancellation"),
              std::string::npos)
        << trace.status();
    // Graceful contract: the in-flight round completed and was persisted.
    const auto cp = LoadSessionCheckpoint(path, data_.db);
    ASSERT_TRUE(cp.ok()) << cp.status();
    EXPECT_EQ(cp->num_validated, 7u);
  }

  SessionTrace trace_c;
  {
    QbcStrategy strategy;
    PerfectOracle oracle;
    Rng rng(7);  // Overwritten by the checkpointed engine state.
    SessionOptions options = base;
    options.resume_path = path;
    FeedbackSession session(data_.db, model_, &strategy, &oracle, data_.truth,
                            options, &rng);
    const auto trace = session.Run();
    ASSERT_TRUE(trace.ok()) << trace.status();
    trace_c = *trace;
  }

  ExpectTracesIdentical(trace_a, trace_c);
  RemoveChain(path);
}

// A hard stop discards the round in flight: the checkpoint stays at the
// previous round, and resuming from it still lands exactly on the
// uninterrupted run.
TEST_F(CancellationSessionTest, HardCancelDiscardsTheRoundAndStillResumes) {
  SessionOptions base;
  base.max_validations = 16;

  SessionTrace trace_a;
  {
    QbcStrategy strategy;
    PerfectOracle oracle;
    Rng rng(7);
    FeedbackSession session(data_.db, model_, &strategy, &oracle, data_.truth,
                            base, &rng);
    const auto trace = session.Run();
    ASSERT_TRUE(trace.ok()) << trace.status();
    trace_a = *trace;
  }

  const std::string path = TestPath("veritas_cancel_hard_ckpt.txt");
  RemoveChain(path);

  {
    QbcStrategy strategy;
    PerfectOracle inner;
    CancellationToken token;
    // The token goes hard while round 8 is in flight; that answer is
    // discarded, so the checkpoint must still say 7.
    CancelAfterOracle oracle(&inner, &token, /*cancel_after=*/8,
                             /*hard=*/true);
    Rng rng(7);
    SessionOptions options = base;
    options.checkpoint_path = path;
    options.cancel = &token;
    FeedbackSession session(data_.db, model_, &strategy, &oracle, data_.truth,
                            options, &rng);
    const auto trace = session.Run();
    ASSERT_FALSE(trace.ok());
    EXPECT_EQ(trace.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(trace.status().message().find("hard cancellation"),
              std::string::npos)
        << trace.status();
    const auto cp = LoadSessionCheckpoint(path, data_.db);
    ASSERT_TRUE(cp.ok()) << cp.status();
    EXPECT_EQ(cp->num_validated, 7u);
  }

  SessionTrace trace_c;
  {
    QbcStrategy strategy;
    PerfectOracle oracle;
    Rng rng(7);
    SessionOptions options = base;
    options.resume_path = path;
    FeedbackSession session(data_.db, model_, &strategy, &oracle, data_.truth,
                            options, &rng);
    const auto trace = session.Run();
    ASSERT_TRUE(trace.ok()) << trace.status();
    trace_c = *trace;
  }

  ExpectTracesIdentical(trace_a, trace_c);
  RemoveChain(path);
}

TEST_F(CancellationSessionTest, InterruptedRunWithoutCheckpointSaysSo) {
  QbcStrategy strategy;
  PerfectOracle inner;
  CancellationToken token;
  CancelAfterOracle oracle(&inner, &token, /*cancel_after=*/2,
                           /*hard=*/false);
  SessionOptions options;
  options.cancel = &token;
  Rng rng(7);
  FeedbackSession session(data_.db, model_, &strategy, &oracle, data_.truth,
                          options, &rng);
  const auto trace = session.Run();
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(trace.status().message().find("not persisted"), std::string::npos)
      << trace.status();
}

TEST_F(CancellationSessionTest, HardCancelledFusionReportsNonConvergence) {
  CancellationToken token;
  token.RequestHardStop();
  FusionOptions opts;
  opts.cancel = &token;
  const FusionResult result =
      model_.Fuse(data_.db, PriorSet(), opts);
  EXPECT_FALSE(result.converged());
  EXPECT_TRUE(result.AllFinite());  // Bailed, but never half-written.
}

TEST_F(CancellationSessionTest, NullTokenAndInfiniteDeadlineRunToCompletion) {
  Database db = MakeMovieDatabase();
  GroundTruth truth = MakeMovieGroundTruth(db);
  QbcStrategy strategy;
  PerfectOracle oracle;
  SessionOptions options;  // cancel == nullptr, deadline infinite.
  Rng rng(5);
  FeedbackSession session(db, model_, &strategy, &oracle, truth, options,
                          &rng);
  const auto trace = session.Run();
  ASSERT_TRUE(trace.ok()) << trace.status();
  EXPECT_EQ(trace->priors.size(), 5u);
}

}  // namespace
}  // namespace veritas
