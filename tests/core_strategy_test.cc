// Tests of the Strategy base helpers: candidate enumeration, top-k
// selection, vote entropy, and the Random baseline.
#include "core/strategy.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/random_strategy.h"
#include "data/example_data.h"
#include "fusion/accu.h"

namespace veritas {
namespace {

class StrategyHelpersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fusion_ = model_.Fuse(db_, opts_);
    ctx_.db = &db_;
    ctx_.compiled = &compiled_;
    ctx_.fusion = &fusion_;
    ctx_.priors = &priors_;
    ctx_.model = &model_;
    ctx_.fusion_opts = &opts_;
    ctx_.rng = &rng_;
  }

  Database db_ = MakeMovieDatabase();
  CompiledDatabase compiled_{db_};
  AccuFusion model_;
  FusionOptions opts_ = PaperExampleFusionOptions();
  FusionResult fusion_;
  PriorSet priors_;
  Rng rng_{1};
  StrategyContext ctx_;
};

TEST_F(StrategyHelpersTest, CandidatesExcludeSingletonsByDefault) {
  const auto candidates = CandidateItems(ctx_);
  EXPECT_EQ(candidates.size(), 5u);
  EXPECT_EQ(std::count(candidates.begin(), candidates.end(),
                       *db_.FindItem("Finding Dory")),
            0);
}

TEST_F(StrategyHelpersTest, CandidatesIncludeSingletonsWhenAsked) {
  ctx_.include_singletons = true;
  EXPECT_EQ(CandidateItems(ctx_).size(), 6u);
}

TEST_F(StrategyHelpersTest, CandidatesExcludeValidated) {
  ASSERT_TRUE(priors_.SetExact(db_, *db_.FindItem("Minions"), 0).ok());
  const auto candidates = CandidateItems(ctx_);
  EXPECT_EQ(candidates.size(), 4u);
  EXPECT_EQ(std::count(candidates.begin(), candidates.end(),
                       *db_.FindItem("Minions")),
            0);
}

TEST_F(StrategyHelpersTest, CandidatesEmptyWhenAllValidated) {
  for (ItemId i : db_.ConflictingItems()) {
    ASSERT_TRUE(priors_.SetExact(db_, i, 0).ok());
  }
  EXPECT_TRUE(CandidateItems(ctx_).empty());
}

TEST(TopKByScoreTest, OrdersDescending) {
  const std::vector<ItemId> items = {10, 20, 30};
  const std::vector<double> scores = {0.5, 2.0, 1.0};
  EXPECT_EQ(TopKByScore(items, scores, 3),
            (std::vector<ItemId>{20, 30, 10}));
}

TEST(TopKByScoreTest, TruncatesToK) {
  const std::vector<ItemId> items = {1, 2, 3, 4};
  const std::vector<double> scores = {4, 3, 2, 1};
  EXPECT_EQ(TopKByScore(items, scores, 2), (std::vector<ItemId>{1, 2}));
}

TEST(TopKByScoreTest, TiesBrokenByLowerItemId) {
  const std::vector<ItemId> items = {9, 3, 7};
  const std::vector<double> scores = {1.0, 1.0, 1.0};
  EXPECT_EQ(TopKByScore(items, scores, 3), (std::vector<ItemId>{3, 7, 9}));
}

TEST(TopKByScoreTest, KLargerThanInput) {
  const std::vector<ItemId> items = {1};
  const std::vector<double> scores = {0.0};
  EXPECT_EQ(TopKByScore(items, scores, 10), (std::vector<ItemId>{1}));
}

TEST(TopKByScoreTest, EmptyInput) {
  EXPECT_TRUE(TopKByScore({}, {}, 3).empty());
}

TEST_F(StrategyHelpersTest, VoteEntropyMatchesExample41) {
  // H_1 = 0.637 (1/3 vs 2/3), H_2 = 0.693 (1/2 vs 1/2).
  EXPECT_NEAR(VoteEntropy(compiled_, *db_.FindItem("Zootopia")), 0.637, 5e-4);
  EXPECT_NEAR(VoteEntropy(compiled_, *db_.FindItem("Kung Fu Panda")), 0.693, 5e-4);
  EXPECT_DOUBLE_EQ(VoteEntropy(compiled_, *db_.FindItem("Finding Dory")), 0.0);
}

TEST_F(StrategyHelpersTest, SelectNextReturnsFirstOfBatch) {
  RandomStrategy strategy;
  const std::vector<ItemId> batch = strategy.SelectBatch(ctx_, 3);
  ASSERT_FALSE(batch.empty());
  // SelectNext uses a fresh draw, so just verify it returns a candidate.
  const ItemId next = strategy.SelectNext(ctx_);
  EXPECT_NE(next, kInvalidItem);
  EXPECT_FALSE(priors_.Has(next));
}

TEST_F(StrategyHelpersTest, RandomReturnsDistinctCandidates) {
  RandomStrategy strategy;
  const std::vector<ItemId> batch = strategy.SelectBatch(ctx_, 5);
  EXPECT_EQ(batch.size(), 5u);
  const std::set<ItemId> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), batch.size());
}

TEST_F(StrategyHelpersTest, RandomRespectsBatchSize) {
  RandomStrategy strategy;
  EXPECT_EQ(strategy.SelectBatch(ctx_, 2).size(), 2u);
}

TEST_F(StrategyHelpersTest, RandomIsSeedDeterministic) {
  RandomStrategy strategy;
  Rng rng_a(5), rng_b(5);
  ctx_.rng = &rng_a;
  const auto a = strategy.SelectBatch(ctx_, 3);
  ctx_.rng = &rng_b;
  const auto b = strategy.SelectBatch(ctx_, 3);
  EXPECT_EQ(a, b);
}

TEST_F(StrategyHelpersTest, RandomExhaustsCandidates) {
  RandomStrategy strategy;
  for (ItemId i : db_.ConflictingItems()) {
    ASSERT_TRUE(priors_.SetExact(db_, i, 0).ok());
  }
  EXPECT_TRUE(strategy.SelectBatch(ctx_, 1).empty());
  EXPECT_EQ(strategy.SelectNext(ctx_), kInvalidItem);
}

TEST(RandomStrategyTest, Name) { EXPECT_EQ(RandomStrategy().name(), "random"); }

}  // namespace
}  // namespace veritas
