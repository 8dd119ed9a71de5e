// Tests of the two-step-lookahead strategy (the paper's future-work
// extension beyond myopic VPI).
#include "core/sequential_meu.h"

#include <gtest/gtest.h>

#include "core/meu.h"
#include "core/session.h"
#include "core/strategy_factory.h"
#include "data/example_data.h"
#include "data/synthetic.h"
#include "fusion/accu.h"

namespace veritas {
namespace {

class SequentialMeuTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fusion_ = model_.Fuse(db_, opts_);
    ctx_.compiled = &compiled_;
    ctx_.fusion = &fusion_;
    ctx_.priors = &priors_;
    ctx_.model = &model_;
    ctx_.fusion_opts = &opts_;
  }

  Database db_ = MakeMovieDatabase();
  CompiledDatabase compiled_{db_};
  AccuFusion model_;
  FusionOptions opts_ = PaperExampleFusionOptions();
  FusionResult fusion_;
  PriorSet priors_;
  StrategyContext ctx_;
};

TEST_F(SequentialMeuTest, TwoStepNeverWorseThanOneStep) {
  // The second validation can only reduce (or keep) the expected entropy:
  // TwoStep(i) <= OneStep(i) for every item, because "do nothing" is
  // always an admissible follow-up.
  for (ItemId i : db_.ConflictingItems()) {
    const double one = MeuStrategy::ExpectedEntropyAfterValidation(ctx_, i);
    const double two =
        SequentialMeuStrategy::TwoStepExpectedEntropy(ctx_, i, 5);
    EXPECT_LE(two, one + 1e-9) << "item " << i;
  }
}

TEST_F(SequentialMeuTest, SelectsFromCandidates) {
  SequentialMeuStrategy strategy;
  const ItemId pick = strategy.SelectNext(ctx_);
  EXPECT_NE(pick, kInvalidItem);
  EXPECT_TRUE(db_.HasConflict(pick));
  EXPECT_FALSE(priors_.Has(pick));
}

TEST_F(SequentialMeuTest, BatchHasDistinctItems) {
  SequentialMeuStrategy strategy;
  const auto batch = strategy.SelectBatch(ctx_, 5);
  EXPECT_EQ(batch.size(), 5u);
  const std::set<ItemId> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), batch.size());
}

TEST_F(SequentialMeuTest, BatchBeyondBeamFallsBackToMyopicOrder) {
  SequentialMeuOptions options;
  options.beam_width = 2;
  SequentialMeuStrategy strategy(options);
  const auto batch = strategy.SelectBatch(ctx_, 5);
  EXPECT_EQ(batch.size(), 5u);  // All candidates still returned.
}

TEST_F(SequentialMeuTest, SkipsValidatedItems) {
  SequentialMeuStrategy strategy;
  const ItemId first = strategy.SelectNext(ctx_);
  ASSERT_TRUE(priors_.SetExact(db_, first, 0).ok());
  FusionResult updated = model_.Fuse(db_, priors_, opts_);
  ctx_.fusion = &updated;
  EXPECT_NE(strategy.SelectNext(ctx_), first);
}

TEST_F(SequentialMeuTest, EmptyCandidates) {
  for (ItemId i : db_.ConflictingItems()) {
    ASSERT_TRUE(priors_.SetExact(db_, i, 0).ok());
  }
  SequentialMeuStrategy strategy;
  EXPECT_TRUE(strategy.SelectBatch(ctx_, 3).empty());
}

TEST_F(SequentialMeuTest, FactoryName) {
  auto strategy = MakeStrategy("meu2");
  ASSERT_TRUE(strategy.ok());
  EXPECT_EQ((*strategy)->name(), "meu2");
}

TEST_F(SequentialMeuTest, OptionsAccessor) {
  SequentialMeuOptions options;
  options.beam_width = 3;
  options.inner_beam = 2;
  SequentialMeuStrategy strategy(options);
  EXPECT_EQ(strategy.options().beam_width, 3u);
  EXPECT_EQ(strategy.options().inner_beam, 2u);
}

TEST(SequentialMeuSyntheticTest, SessionImprovesFusion) {
  DenseConfig config;
  config.num_items = 50;
  config.num_sources = 8;
  config.density = 0.5;
  config.seed = 13;
  const SyntheticDataset data = GenerateDense(config);
  AccuFusion model;
  auto strategy = MakeStrategy("meu2");
  ASSERT_TRUE(strategy.ok());
  PerfectOracle oracle;
  SessionOptions options;
  options.max_validations = 8;
  Rng rng(1);
  FeedbackSession session(data.db, model, strategy->get(), &oracle,
                          data.truth, options, &rng);
  const auto trace = session.Run();
  ASSERT_TRUE(trace.ok());
  EXPECT_LT(trace->steps.back().distance, trace->initial_distance);
}

TEST(SequentialMeuSyntheticTest, TwoStepAtLeastMatchesMyopicPlanValue) {
  // On a small dataset, the two-step plan value of meu2's pick must be at
  // least the two-step value of MEU's myopic pick (meu2 optimizes it
  // within the beam, and the beam contains the myopic argmax).
  DenseConfig config;
  config.num_items = 30;
  config.num_sources = 6;
  config.density = 0.5;
  config.seed = 29;
  const SyntheticDataset data = GenerateDense(config);
  AccuFusion model;
  FusionOptions opts;
  PriorSet priors;
  const FusionResult fusion = model.Fuse(data.db, priors, opts);
  const CompiledDatabase compiled(data.db);
  StrategyContext ctx;
  ctx.compiled = &compiled;
  ctx.fusion = &fusion;
  ctx.priors = &priors;
  ctx.model = &model;
  ctx.fusion_opts = &opts;

  MeuStrategy meu;
  SequentialMeuStrategy meu2;
  const ItemId myopic_pick = meu.SelectNext(ctx);
  const ItemId two_step_pick = meu2.SelectNext(ctx);
  const double myopic_value =
      SequentialMeuStrategy::TwoStepExpectedEntropy(ctx, myopic_pick, 5);
  const double two_step_value =
      SequentialMeuStrategy::TwoStepExpectedEntropy(ctx, two_step_pick, 5);
  EXPECT_LE(two_step_value, myopic_value + 1e-9);
}

}  // namespace
}  // namespace veritas
