// Edge-case and failure-injection tests: degenerate databases, adversarial
// data, exhausted budgets, and hostile file inputs.
#include <fstream>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/session.h"
#include "core/strategy_factory.h"
#include "data/canonicalize.h"
#include "data/loader.h"
#include "fusion/accu.h"
#include "fusion/fusion_factory.h"
#include "model/database_builder.h"
#include "util/math.h"
#include "test_dir.h"

namespace veritas {
namespace {

// ---------- Degenerate databases ----------

TEST(EdgeCaseTest, EmptyDatabaseFusesToNothing) {
  DatabaseBuilder builder;
  const Database db = builder.Build();
  for (const std::string& name : FusionModelNames()) {
    auto model = MakeFusionModel(name);
    ASSERT_TRUE(model.ok());
    const FusionResult r = (*model)->Fuse(db, PriorSet(), FusionOptions{});
    EXPECT_EQ(r.num_items(), 0u) << name;
    EXPECT_DOUBLE_EQ(r.TotalEntropy(), 0.0) << name;
  }
}

TEST(EdgeCaseTest, EmptyDatabaseStrategiesReturnNothing) {
  DatabaseBuilder builder;
  const Database db = builder.Build();
  AccuFusion model;
  FusionOptions opts;
  PriorSet priors;
  const FusionResult fusion = model.Fuse(db, priors, opts);
  GroundTruth truth(db);
  Rng rng(1);
  const CompiledDatabase compiled(db);
  StrategyContext ctx;
  ctx.db = &db;
  ctx.compiled = &compiled;
  ctx.fusion = &fusion;
  ctx.priors = &priors;
  ctx.model = &model;
  ctx.fusion_opts = &opts;
  ctx.ground_truth = &truth;
  ctx.rng = &rng;
  for (const std::string& name : StrategyNames()) {
    auto strategy = MakeStrategy(name);
    ASSERT_TRUE(strategy.ok()) << name;
    EXPECT_TRUE((*strategy)->SelectBatch(ctx, 3).empty()) << name;
    EXPECT_EQ((*strategy)->SelectNext(ctx), kInvalidItem) << name;
  }
}

TEST(EdgeCaseTest, SingleSourceDatabase) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("solo", "a", "1").ok());
  ASSERT_TRUE(builder.AddObservation("solo", "b", "2").ok());
  const Database db = builder.Build();
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  // No conflicts: everything certain, entropy zero.
  EXPECT_DOUBLE_EQ(r.TotalEntropy(), 0.0);
  EXPECT_DOUBLE_EQ(r.prob(0, 0), 1.0);
}

TEST(EdgeCaseTest, AllSourcesAgreeEverywhere) {
  DatabaseBuilder builder;
  for (int s = 0; s < 5; ++s) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(builder.AddObservation("s" + std::to_string(s),
                                         "o" + std::to_string(i),
                                         "v" + std::to_string(i)).ok());
    }
  }
  const Database db = builder.Build();
  EXPECT_TRUE(db.ConflictingItems().empty());
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  EXPECT_TRUE(r.converged());
  for (SourceId j = 0; j < db.num_sources(); ++j) {
    EXPECT_NEAR(r.accuracy(j), kMaxAccuracy, 1e-9);
  }
}

TEST(EdgeCaseTest, TotallyAdversarialMajority) {
  // Four sources vote the same wrong value, one votes the truth: fusion is
  // confidently wrong; validating the item flips it regardless.
  DatabaseBuilder builder;
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(builder.AddObservation("liar" + std::to_string(s), "x",
                                       "wrong").ok());
  }
  ASSERT_TRUE(builder.AddObservation("honest", "x", "right").ok());
  const Database db = builder.Build();
  GroundTruth truth(db);
  ASSERT_TRUE(truth.SetByValue(db, "x", "right").ok());
  AccuFusion model;
  const FusionResult before = model.Fuse(db, FusionOptions{});
  EXPECT_EQ(before.WinningClaim(0), *db.FindClaim(0, "wrong"));
  PriorSet priors;
  ASSERT_TRUE(priors.SetExact(db, 0, *db.FindClaim(0, "right")).ok());
  const FusionResult after = model.Fuse(db, priors, FusionOptions{});
  EXPECT_DOUBLE_EQ(after.prob(0, *db.FindClaim(0, "right")), 1.0);
  EXPECT_DOUBLE_EQ(DistanceToGroundTruth(db, after, truth), 0.0);
}

TEST(EdgeCaseTest, ManyClaimsPerItem) {
  // 26 distinct claims on one item: |V_i| - 1 = 25 false values.
  DatabaseBuilder builder;
  for (char c = 'a'; c <= 'z'; ++c) {
    ASSERT_TRUE(builder.AddObservation(std::string("s") + c, "x",
                                       std::string(1, c)).ok());
  }
  const Database db = builder.Build();
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  double sum = 0.0;
  for (ClaimIndex k = 0; k < 26; ++k) sum += r.prob(0, k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(r.ItemEntropy(0), MaxEntropy(26), 1e-6);  // Fully symmetric.
}

// ---------- Session edge cases ----------

TEST(EdgeCaseTest, SessionWithZeroBudget) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "b").ok());
  const Database db = builder.Build();
  GroundTruth truth(db);
  ASSERT_TRUE(truth.SetByValue(db, "x", "a").ok());
  AccuFusion model;
  auto strategy = MakeStrategy("qbc");
  ASSERT_TRUE(strategy.ok());
  PerfectOracle oracle;
  SessionOptions options;
  options.max_validations = 0;
  FeedbackSession session(db, model, strategy->get(), &oracle, truth,
                          options, nullptr);
  const auto trace = session.Run();
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace->steps.empty());
  EXPECT_GT(trace->initial_uncertainty, 0.0);
}

TEST(EdgeCaseTest, SessionOnConflictFreeDatabase) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "a").ok());
  const Database db = builder.Build();
  GroundTruth truth(db);
  ASSERT_TRUE(truth.SetByValue(db, "x", "a").ok());
  AccuFusion model;
  auto strategy = MakeStrategy("us");
  ASSERT_TRUE(strategy.ok());
  PerfectOracle oracle;
  SessionOptions options;
  FeedbackSession session(db, model, strategy->get(), &oracle, truth,
                          options, nullptr);
  const auto trace = session.Run();
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace->steps.empty());  // Nothing to validate.
}

TEST(EdgeCaseTest, BudgetExceedingCandidatesStopsCleanly) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "b").ok());
  ASSERT_TRUE(builder.AddObservation("s1", "y", "c").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "y", "d").ok());
  const Database db = builder.Build();
  GroundTruth truth(db);
  ASSERT_TRUE(truth.SetByValue(db, "x", "a").ok());
  ASSERT_TRUE(truth.SetByValue(db, "y", "c").ok());
  AccuFusion model;
  auto strategy = MakeStrategy("qbc");
  ASSERT_TRUE(strategy.ok());
  PerfectOracle oracle;
  SessionOptions options;
  options.max_validations = 1000;  // Far more than the 2 candidates.
  FeedbackSession session(db, model, strategy->get(), &oracle, truth,
                          options, nullptr);
  const auto trace = session.Run();
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->priors.size(), 2u);
}

// ---------- Hostile file inputs ----------

class HostileFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("veritas_hostile.csv");
  }
  void TearDown() override { std::remove(path_.c_str()); }
  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }
  std::string path_;
};

TEST_F(HostileFileTest, EmptyFileLoadsEmptyDatabase) {
  WriteFile("");
  const auto db = LoadObservations(path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_items(), 0u);
}

TEST_F(HostileFileTest, OnlyCommentsAndBlankLines) {
  WriteFile("# nothing\n\n   \n# here\n");
  const auto db = LoadObservations(path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_observations(), 0u);
}

TEST_F(HostileFileTest, ExtraFieldsRejected) {
  WriteFile("s,i,v,extra\n");
  EXPECT_EQ(LoadObservations(path_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(HostileFileTest, UnterminatedQuoteStillTerminates) {
  WriteFile("s,i,\"unterminated\n");
  const auto db = LoadObservations(path_);
  // Parser treats the rest of the line as the field; must not hang/crash.
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_observations(), 1u);
}

TEST_F(HostileFileTest, VeryLongValues) {
  const std::string huge(100000, 'x');
  WriteFile("s,i," + huge + "\n");
  const auto db = LoadObservations(path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->item(0).claims[0].value.size(), huge.size());
}

TEST_F(HostileFileTest, CrlfLineEndings) {
  WriteFile("s1,i,a\r\ns2,i,b\r\n");
  const auto db = LoadObservations(path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_claims(0), 2u);
  EXPECT_TRUE(db->FindClaim(0, "b").ok());  // No trailing \r in the value.
}

TEST_F(HostileFileTest, CanonicalizeOnHostileNumerics) {
  WriteFile("s1,x,1e308\ns2,x,-1e308\ns3,x,nonsense\n");
  const auto db = LoadObservations(path_);
  ASSERT_TRUE(db.ok());
  const auto report = CanonicalizeValues(*db);
  ASSERT_TRUE(report.ok());
  // Extremes do not merge; the literal survives.
  EXPECT_EQ(report->db.num_claims(0), 3u);
}

}  // namespace
}  // namespace veritas
