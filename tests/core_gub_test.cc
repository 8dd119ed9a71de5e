// Tests of GUB, the ground-truth-utility upper bound (§4.2.1, §5).
#include "core/gub.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "data/example_data.h"
#include "fusion/accu.h"

namespace veritas {
namespace {

class GubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fusion_ = model_.Fuse(db_, opts_);
    ctx_.compiled = &compiled_;
    ctx_.fusion = &fusion_;
    ctx_.priors = &priors_;
    ctx_.model = &model_;
    ctx_.fusion_opts = &opts_;
    ctx_.ground_truth = &truth_;
  }

  Database db_ = MakeMovieDatabase();
  CompiledDatabase compiled_{db_};
  GroundTruth truth_ = MakeMovieGroundTruth(db_);
  AccuFusion model_;
  FusionOptions opts_ = PaperExampleFusionOptions();
  FusionResult fusion_;
  PriorSet priors_;
  StrategyContext ctx_;
};

TEST_F(GubTest, OracleModePicksMaxUtilityGain) {
  GubStrategy gub;
  const ItemId pick = gub.SelectNext(ctx_);
  const double current = GroundTruthUtility(fusion_, truth_);
  // Recompute the gain of every candidate by hand; none may beat the pick.
  double pick_gain = -1.0;
  std::vector<double> gains;
  for (ItemId i : db_.ConflictingItems()) {
    PriorSet pinned = priors_;
    ASSERT_TRUE(pinned.SetExact(db_, i, truth_.TrueClaim(i)).ok());
    const FusionResult r = model_.Fuse(db_, pinned, opts_, &fusion_);
    const double gain = GroundTruthUtility(r, truth_) - current;
    gains.push_back(gain);
    if (i == pick) pick_gain = gain;
  }
  for (double g : gains) EXPECT_LE(g, pick_gain + 1e-9);
}

TEST_F(GubTest, ValidationMaximizesTheItemsOwnUtilityTerm) {
  // Pinning an item's true claim drives that item's own utility term to its
  // maximum (p_true = 1). The *global* utility can still drop on adversarial
  // data like this example — validating the minority truth of Zootopia
  // punishes sources that are right elsewhere — which GUB's argmax handles
  // by simply preferring other items.
  const ItemId zootopia = *db_.FindItem("Zootopia");
  const ClaimIndex howard = truth_.TrueClaim(zootopia);
  PriorSet pinned;
  ASSERT_TRUE(pinned.SetExact(db_, zootopia, howard).ok());
  const FusionResult r = model_.Fuse(db_, pinned, opts_);
  EXPECT_DOUBLE_EQ(r.prob(zootopia, howard), 1.0);
  EXPECT_GT(r.prob(zootopia, howard), fusion_.prob(zootopia, howard));
}

TEST_F(GubTest, SkipsItemsWithoutTruth) {
  GroundTruth partial(db_);
  ASSERT_TRUE(partial.SetByValue(db_, "Minions", "Coffin").ok());
  ctx_.ground_truth = &partial;
  GubStrategy gub;
  // Only Minions can be evaluated; it must be the pick.
  EXPECT_EQ(gub.SelectNext(ctx_), *db_.FindItem("Minions"));
}

TEST_F(GubTest, ExpectationModeUsesDefinition4) {
  GubStrategy gub(GubMode::kExpectation);
  EXPECT_EQ(gub.mode(), GubMode::kExpectation);
  const ItemId pick = gub.SelectNext(ctx_);
  EXPECT_NE(pick, kInvalidItem);
  EXPECT_TRUE(db_.HasConflict(pick));
}

TEST_F(GubTest, ExpectationModeWorksWithoutFullTruthOnItem) {
  // Expectation mode hypothesizes every claim, so it can score items whose
  // truth is unknown (utility simply counts the known ones).
  GroundTruth partial(db_);
  ASSERT_TRUE(partial.SetByValue(db_, "Rio", "Saldanha").ok());
  ctx_.ground_truth = &partial;
  GubStrategy gub(GubMode::kExpectation);
  EXPECT_NE(gub.SelectNext(ctx_), kInvalidItem);
}

TEST_F(GubTest, SkipsValidatedItems) {
  GubStrategy gub;
  const ItemId first = gub.SelectNext(ctx_);
  ASSERT_TRUE(priors_.SetExact(db_, first, truth_.TrueClaim(first)).ok());
  FusionResult updated = model_.Fuse(db_, priors_, opts_);
  ctx_.fusion = &updated;
  EXPECT_NE(gub.SelectNext(ctx_), first);
}

TEST_F(GubTest, BatchOrderedByGain) {
  GubStrategy gub;
  const auto batch = gub.SelectBatch(ctx_, 3);
  EXPECT_EQ(batch.size(), 3u);
  const std::set<ItemId> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), batch.size());
}

TEST_F(GubTest, DefaultModeIsOracle) {
  EXPECT_EQ(GubStrategy().mode(), GubMode::kOracle);
}

TEST_F(GubTest, Name) { EXPECT_EQ(GubStrategy().name(), "gub"); }

TEST_F(GubTest, ParallelScoringMatchesSequential) {
  GubStrategy sequential(GubMode::kOracle, 1);
  GubStrategy parallel(GubMode::kOracle, 4);
  EXPECT_EQ(parallel.num_threads(), 4u);
  EXPECT_EQ(sequential.SelectBatch(ctx_, 5), parallel.SelectBatch(ctx_, 5));
}

TEST_F(GubTest, ZeroThreadsNormalizedToOne) {
  GubStrategy strategy(GubMode::kOracle, 0);
  EXPECT_EQ(strategy.num_threads(), 1u);
  EXPECT_NE(strategy.SelectNext(ctx_), kInvalidItem);
}

}  // namespace
}  // namespace veritas
