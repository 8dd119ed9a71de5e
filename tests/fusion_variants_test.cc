// Tests of the TruthFinder and PooledInvestment variants plus the factory —
// exercising the black-box property of the feedback framework (§6).
#include <gtest/gtest.h>

#include "data/example_data.h"
#include "data/synthetic.h"
#include "core/metrics.h"
#include "fusion/fusion_factory.h"
#include "fusion/pooled_investment.h"
#include "fusion/truthfinder.h"
#include "model/database_builder.h"
#include "util/math.h"

namespace veritas {
namespace {

// Shared conformance suite: every fusion model must emit valid
// distributions, respect priors, and stay clamped.
class FusionConformanceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(FusionConformanceTest, OutputsValidDistributions) {
  const Database db = MakeMovieDatabase();
  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok());
  const FusionResult r = (*model)->Fuse(db, PriorSet(), FusionOptions{});
  for (ItemId i = 0; i < db.num_items(); ++i) {
    double sum = 0.0;
    for (ClaimIndex k = 0; k < db.num_claims(i); ++k) {
      EXPECT_GE(r.prob(i, k), 0.0);
      EXPECT_LE(r.prob(i, k), 1.0);
      sum += r.prob(i, k);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << GetParam() << " item " << i;
  }
}

TEST_P(FusionConformanceTest, RespectsPriors) {
  const Database db = MakeMovieDatabase();
  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok());
  PriorSet priors;
  const ItemId zootopia = *db.FindItem("Zootopia");
  const ClaimIndex howard = *db.FindClaim(zootopia, "Howard");
  ASSERT_TRUE(priors.SetExact(db, zootopia, howard).ok());
  const FusionResult r = (*model)->Fuse(db, priors, FusionOptions{});
  EXPECT_DOUBLE_EQ(r.prob(zootopia, howard), 1.0);
}

TEST_P(FusionConformanceTest, SingletonItemsCertain) {
  const Database db = MakeMovieDatabase();
  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok());
  const FusionResult r = (*model)->Fuse(db, PriorSet(), FusionOptions{});
  EXPECT_DOUBLE_EQ(r.prob(*db.FindItem("Finding Dory"), 0), 1.0);
}

TEST_P(FusionConformanceTest, BeatsCoinFlipOnSyntheticData) {
  DenseConfig config;
  config.num_items = 120;
  config.num_sources = 20;
  config.density = 0.5;
  config.seed = 77;
  const SyntheticDataset dataset = GenerateDense(config);
  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok());
  const FusionResult r =
      (*model)->Fuse(dataset.db, PriorSet(), FusionOptions{});
  // With mostly-accurate sources every reasonable fusion model should pick
  // the true claim for well over half of the items.
  EXPECT_GT(FusionAccuracy(r, dataset.truth), 0.7)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllModels, FusionConformanceTest,
                         ::testing::Values("accu", "accu_copy", "voting",
                                           "truthfinder", "lca",
                                           "pooled_investment"));

TEST(TruthFinderTest, TrustSeparatesGoodFromBad) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("good", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("bad", "x", "b").ok());
  ASSERT_TRUE(builder.AddObservation("good", "y", "t").ok());
  ASSERT_TRUE(builder.AddObservation("w1", "y", "t").ok());
  ASSERT_TRUE(builder.AddObservation("w2", "y", "t").ok());
  ASSERT_TRUE(builder.AddObservation("bad", "y", "f").ok());
  const Database db = builder.Build();
  TruthFinderFusion model;
  const FusionResult r = model.Fuse(db, PriorSet(), FusionOptions{});
  EXPECT_GT(r.accuracy(*db.FindSource("good")),
            r.accuracy(*db.FindSource("bad")));
  EXPECT_EQ(r.WinningClaim(*db.FindItem("x")), *db.FindClaim(0, "a"));
}

TEST(TruthFinderTest, GammaAccessor) {
  EXPECT_DOUBLE_EQ(TruthFinderFusion().gamma(), 0.3);
  EXPECT_DOUBLE_EQ(TruthFinderFusion(0.5).gamma(), 0.5);
}

TEST(PooledInvestmentTest, GrowthAccessor) {
  EXPECT_DOUBLE_EQ(PooledInvestmentFusion().growth(), 1.4);
  EXPECT_DOUBLE_EQ(PooledInvestmentFusion(1.2).growth(), 1.2);
}

TEST(PooledInvestmentTest, MajorityWinsSymmetricSetup) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s3", "x", "b").ok());
  const Database db = builder.Build();
  PooledInvestmentFusion model;
  const FusionResult r = model.Fuse(db, PriorSet(), FusionOptions{});
  EXPECT_EQ(r.WinningClaim(0), *db.FindClaim(0, "a"));
}

TEST(FusionFactoryTest, KnownNames) {
  for (const std::string& name : FusionModelNames()) {
    auto model = MakeFusionModel(name);
    ASSERT_TRUE(model.ok()) << name;
    EXPECT_EQ((*model)->name(), name);
  }
}

TEST(FusionFactoryTest, UnknownName) {
  EXPECT_EQ(MakeFusionModel("bayes9000").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace veritas
