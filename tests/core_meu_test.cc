// Tests of the exact decision-theoretic strategy MEU (§4.2.2).
#include "core/meu.h"

#include <gtest/gtest.h>

#include "data/example_data.h"
#include "data/synthetic.h"
#include "fusion/accu.h"

namespace veritas {
namespace {

class MeuTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fusion_ = model_.Fuse(db_, opts_);
    ctx_.compiled = &compiled_;
    ctx_.fusion = &fusion_;
    ctx_.priors = &priors_;
    ctx_.model = &model_;
    ctx_.fusion_opts = &opts_;
    ctx_.include_singletons = true;
    ctx_.warm_start_lookahead = false;  // The worked example cold-starts.
  }

  Database db_ = MakeMovieDatabase();
  CompiledDatabase compiled_{db_};
  AccuFusion model_;
  FusionOptions opts_ = PaperExampleFusionOptions();
  FusionResult fusion_;
  PriorSet priors_;
  StrategyContext ctx_;
};

TEST_F(MeuTest, SingletonValidationIsExactlyNeutral) {
  // Table 6's key invariant: validating O4 (already certain, p = 1) cannot
  // change anything — its expected entropy equals the current entropy, so
  // the utility gain is exactly 0.
  const ItemId dory = *db_.FindItem("Finding Dory");
  const double expected =
      MeuStrategy::ExpectedEntropyAfterValidation(ctx_, dory);
  EXPECT_NEAR(expected, fusion_.TotalEntropy(), 1e-9);
}

TEST_F(MeuTest, ExpectedEntropyWeightsByClaimProbability) {
  // For Inside Out (p = {0.999, 0.001}) the expectation is dominated by the
  // Docter branch: it must be close to the Docter-pinned entropy.
  const ItemId o3 = *db_.FindItem("Inside Out");
  PriorSet docter_pinned;
  ASSERT_TRUE(
      docter_pinned.SetExact(db_, o3, *db_.FindClaim(o3, "Docter")).ok());
  const double docter_entropy =
      model_.Fuse(db_, docter_pinned, opts_).TotalEntropy();
  const double expected =
      MeuStrategy::ExpectedEntropyAfterValidation(ctx_, o3);
  // Docter branch has weight ~0.999.
  EXPECT_NEAR(expected, docter_entropy, 0.05);
}

TEST_F(MeuTest, SelectsItemWithMaximumGain) {
  MeuStrategy meu;
  const double current = fusion_.TotalEntropy();
  const ItemId pick = meu.SelectNext(ctx_);
  const double pick_gain =
      current - MeuStrategy::ExpectedEntropyAfterValidation(ctx_, pick);
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    const double gain =
        current - MeuStrategy::ExpectedEntropyAfterValidation(ctx_, i);
    EXPECT_LE(gain, pick_gain + 1e-9) << "item " << i;
  }
}

TEST_F(MeuTest, SkipsValidatedItems) {
  MeuStrategy meu;
  const ItemId first = meu.SelectNext(ctx_);
  ASSERT_TRUE(priors_.SetExact(db_, first, 0).ok());
  FusionResult updated = model_.Fuse(db_, priors_, opts_);
  ctx_.fusion = &updated;
  EXPECT_NE(meu.SelectNext(ctx_), first);
}

TEST_F(MeuTest, BatchIsOrderedByGain) {
  MeuStrategy meu;
  const auto batch = meu.SelectBatch(ctx_, 4);
  ASSERT_EQ(batch.size(), 4u);
  const double current = fusion_.TotalEntropy();
  double prev_gain = 1e300;
  for (ItemId i : batch) {
    const double gain =
        current - MeuStrategy::ExpectedEntropyAfterValidation(ctx_, i);
    EXPECT_LE(gain, prev_gain + 1e-9);
    prev_gain = gain;
  }
}

TEST_F(MeuTest, ExcludesSingletonsWhenConfigured) {
  ctx_.include_singletons = false;
  MeuStrategy meu;
  const auto batch = meu.SelectBatch(ctx_, 6);
  EXPECT_EQ(batch.size(), 5u);
  for (ItemId i : batch) EXPECT_TRUE(db_.HasConflict(i));
}

TEST_F(MeuTest, WarmAndColdLookaheadAgreeAtConvergence) {
  // At full convergence the warm start is purely a speed optimization.
  FusionOptions converged;
  converged.max_iterations = 500;
  FusionResult base = model_.Fuse(db_, converged);
  ctx_.fusion = &base;
  ctx_.fusion_opts = &converged;

  ctx_.warm_start_lookahead = false;
  const double cold =
      MeuStrategy::ExpectedEntropyAfterValidation(ctx_, 0);
  ctx_.warm_start_lookahead = true;
  const double warm =
      MeuStrategy::ExpectedEntropyAfterValidation(ctx_, 0);
  EXPECT_NEAR(cold, warm, 1e-3);
}

TEST_F(MeuTest, Name) { EXPECT_EQ(MeuStrategy().name(), "meu"); }

TEST_F(MeuTest, ParallelScoringMatchesSequential) {
  MeuStrategy sequential(1);
  MeuStrategy parallel(4);
  EXPECT_EQ(parallel.num_threads(), 4u);
  const auto a = sequential.SelectBatch(ctx_, 6);
  const auto b = parallel.SelectBatch(ctx_, 6);
  EXPECT_EQ(a, b);
}

TEST_F(MeuTest, ZeroThreadsNormalizedToOne) {
  MeuStrategy strategy(0);
  EXPECT_EQ(strategy.num_threads(), 1u);
  EXPECT_NE(strategy.SelectNext(ctx_), kInvalidItem);
}

TEST(MeuParallelTest, LargerDatasetParallelEquivalence) {
  DenseConfig config;
  config.num_items = 80;
  config.num_sources = 10;
  config.density = 0.5;
  config.seed = 47;
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

  MeuStrategy sequential(1);
  MeuStrategy parallel(8);
  EXPECT_EQ(sequential.SelectBatch(ctx, 10), parallel.SelectBatch(ctx, 10));
}

}  // namespace
}  // namespace veritas
