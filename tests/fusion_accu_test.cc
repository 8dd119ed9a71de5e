#include "fusion/accu.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/example_data.h"
#include "model/compiled_database.h"
#include "model/database_builder.h"
#include "util/math.h"

namespace veritas {
namespace {

Database TwoSourceConflict() {
  DatabaseBuilder builder;
  // One contested item plus calibration items that separate the sources.
  EXPECT_TRUE(builder.AddObservation("good", "x", "a").ok());
  EXPECT_TRUE(builder.AddObservation("bad", "x", "b").ok());
  // "good" agrees with two corroborators elsewhere; "bad" opposes them.
  EXPECT_TRUE(builder.AddObservation("good", "y", "t").ok());
  EXPECT_TRUE(builder.AddObservation("w1", "y", "t").ok());
  EXPECT_TRUE(builder.AddObservation("w2", "y", "t").ok());
  EXPECT_TRUE(builder.AddObservation("bad", "y", "f").ok());
  return builder.Build();
}

TEST(AccuFusionTest, ProbabilitiesAreDistributions) {
  const Database db = MakeMovieDatabase();
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  for (ItemId i = 0; i < db.num_items(); ++i) {
    double sum = 0.0;
    for (ClaimIndex k = 0; k < db.num_claims(i); ++k) {
      const double p = r.prob(i, k);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "item " << i;
  }
}

TEST(AccuFusionTest, SingletonItemIsCertain) {
  const Database db = MakeMovieDatabase();
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  const ItemId dory = *db.FindItem("Finding Dory");
  EXPECT_DOUBLE_EQ(r.prob(dory, 0), 1.0);
}

TEST(AccuFusionTest, Table3Winners) {
  // The model's picks must match Table 3: Spencer, Nelson, Docter, Stanton,
  // Coffin, Saldanha.
  const Database db = MakeMovieDatabase();
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  struct Expect {
    const char* item;
    const char* winner;
  };
  const Expect expected[] = {
      {"Zootopia", "Spencer"},  {"Kung Fu Panda", "Nelson"},
      {"Inside Out", "Docter"}, {"Finding Dory", "Stanton"},
      {"Minions", "Coffin"},    {"Rio", "Saldanha"},
  };
  for (const Expect& e : expected) {
    const ItemId item = *db.FindItem(e.item);
    EXPECT_EQ(r.WinningClaim(item), *db.FindClaim(item, e.winner)) << e.item;
  }
}

TEST(AccuFusionTest, Table3ProbabilitiesAtPaperIterationBudget) {
  // With the paper's 5-iteration threshold our probabilities land within
  // 0.01 of Table 3 (0.985 / 0.999 / 0.921 / 0.985).
  const Database db = MakeMovieDatabase();
  AccuFusion model;
  const FusionResult r = model.Fuse(db, PaperExampleFusionOptions());
  const ItemId o2 = *db.FindItem("Kung Fu Panda");
  const ItemId o3 = *db.FindItem("Inside Out");
  const ItemId o5 = *db.FindItem("Minions");
  const ItemId o6 = *db.FindItem("Rio");
  EXPECT_NEAR(r.prob(o2, *db.FindClaim(o2, "Nelson")), 0.985, 0.01);
  EXPECT_NEAR(r.prob(o3, *db.FindClaim(o3, "Docter")), 0.999, 0.01);
  EXPECT_NEAR(r.prob(o5, *db.FindClaim(o5, "Coffin")), 0.921, 0.01);
  EXPECT_NEAR(r.prob(o6, *db.FindClaim(o6, "Saldanha")), 0.985, 0.01);
}

TEST(AccuFusionTest, AccuracySeparation) {
  const Database db = TwoSourceConflict();
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  const SourceId good = *db.FindSource("good");
  const SourceId bad = *db.FindSource("bad");
  EXPECT_GT(r.accuracy(good), r.accuracy(bad));
  // And the contested item goes to the better source.
  const ItemId x = *db.FindItem("x");
  EXPECT_EQ(r.WinningClaim(x), *db.FindClaim(x, "a"));
}

TEST(AccuFusionTest, AccuraciesStayClamped) {
  const Database db = MakeMovieDatabase();
  AccuFusion model;
  FusionOptions opts;
  opts.max_iterations = 500;
  const FusionResult r = model.Fuse(db, opts);
  for (SourceId j = 0; j < db.num_sources(); ++j) {
    EXPECT_GE(r.accuracy(j), kMinAccuracy);
    EXPECT_LE(r.accuracy(j), kMaxAccuracy);
  }
}

TEST(AccuFusionTest, ConvergenceFlagAndIterationCap) {
  const Database db = MakeMovieDatabase();
  AccuFusion model;
  FusionOptions tight;
  tight.max_iterations = 2;
  const FusionResult capped = model.Fuse(db, tight);
  EXPECT_EQ(capped.iterations(), 2u);
  EXPECT_FALSE(capped.converged());

  FusionOptions loose;
  loose.max_iterations = 1000;
  const FusionResult converged = model.Fuse(db, loose);
  EXPECT_TRUE(converged.converged());
  EXPECT_LT(converged.iterations(), 1000u);
}

TEST(AccuFusionTest, PriorsArePinned) {
  const Database db = MakeMovieDatabase();
  AccuFusion model;
  PriorSet priors;
  const ItemId zootopia = *db.FindItem("Zootopia");
  const ClaimIndex howard = *db.FindClaim(zootopia, "Howard");
  ASSERT_TRUE(priors.SetExact(db, zootopia, howard).ok());
  const FusionResult r = model.Fuse(db, priors, FusionOptions{});
  EXPECT_DOUBLE_EQ(r.prob(zootopia, howard), 1.0);
  EXPECT_DOUBLE_EQ(r.prob(zootopia, *db.FindClaim(zootopia, "Spencer")), 0.0);
}

TEST(AccuFusionTest, ValidationPropagatesThroughSources) {
  // Pinning Howard (the *true* claim) punishes S3/S4 and rewards S2;
  // the motivation example of §1.1: fusion reconsiders other items.
  const Database db = MakeMovieDatabase();
  AccuFusion model;
  const FusionOptions opts = PaperExampleFusionOptions();
  const FusionResult before = model.Fuse(db, opts);

  PriorSet priors;
  const ItemId zootopia = *db.FindItem("Zootopia");
  ASSERT_TRUE(
      priors.SetExact(db, zootopia, *db.FindClaim(zootopia, "Howard")).ok());
  const FusionResult after = model.Fuse(db, priors, opts);

  const SourceId s2 = *db.FindSource("S2");
  const SourceId s3 = *db.FindSource("S3");
  EXPECT_GT(after.accuracy(s2), before.accuracy(s2));
  EXPECT_LT(after.accuracy(s3), before.accuracy(s3));
  // S2's other claims gain probability.
  const ItemId o3 = *db.FindItem("Inside Out");
  const ClaimIndex lefauve = *db.FindClaim(o3, "leFauve");
  EXPECT_GT(after.prob(o3, lefauve), before.prob(o3, lefauve));
}

TEST(AccuFusionTest, WarmStartReachesSameFixedPoint) {
  const Database db = TwoSourceConflict();
  AccuFusion model;
  FusionOptions opts;
  const FusionResult cold = model.Fuse(db, opts);
  const FusionResult warm = model.Fuse(db, PriorSet(), opts, &cold);
  EXPECT_TRUE(warm.converged());
  EXPECT_LE(warm.iterations(), cold.iterations());
  for (ItemId i = 0; i < db.num_items(); ++i) {
    for (ClaimIndex k = 0; k < db.num_claims(i); ++k) {
      EXPECT_NEAR(warm.prob(i, k), cold.prob(i, k), 1e-6);
    }
  }
}

TEST(AccuFusionTest, ClaimLogScoresMatchSoftmax) {
  const Database db = MakeMovieDatabase();
  const CompiledDatabase compiled(db);
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  for (ItemId i = 0; i < db.num_items(); ++i) {
    if (db.num_claims(i) < 2) continue;
    const auto scores = AccuFusion::ClaimLogScores(compiled, i, r.accuracies());
    const auto probs = SoftmaxFromLogScores(scores);
    for (ClaimIndex k = 0; k < db.num_claims(i); ++k) {
      EXPECT_NEAR(probs[k], r.prob(i, k), 1e-9);
    }
  }
}

TEST(AccuFusionTest, EqualEvidenceSplitsEvenly) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "b").ok());
  const Database db = builder.Build();
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  // Perfect symmetry: no run of the model can break the tie.
  EXPECT_NEAR(r.prob(0, 0), 0.5, 1e-9);
  EXPECT_NEAR(r.prob(0, 1), 0.5, 1e-9);
}

TEST(AccuFusionTest, MoreVotesWinWithDefaultAccuracies) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s3", "x", "b").ok());
  const Database db = builder.Build();
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  EXPECT_EQ(r.WinningClaim(0), *db.FindClaim(0, "a"));
}

TEST(AccuFusionTest, ThreeClaimItemUsesFalseCount) {
  // |V_i| - 1 = 2 scales each vote's odds; the fused output must still be a
  // distribution with the double-voted claim winning.
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "b").ok());
  ASSERT_TRUE(builder.AddObservation("s3", "x", "c").ok());
  ASSERT_TRUE(builder.AddObservation("s4", "x", "a").ok());
  const Database db = builder.Build();
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  EXPECT_EQ(r.WinningClaim(0), *db.FindClaim(0, "a"));
  double sum = 0.0;
  for (ClaimIndex k = 0; k < 3; ++k) sum += r.prob(0, k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(AccuFusionTest, DistributionPriorContributesToAccuracy) {
  const Database db = MakeMovieDatabase();
  AccuFusion model;
  PriorSet priors;
  const ItemId minions = *db.FindItem("Minions");
  // 70/30 crowd prior on Minions.
  std::vector<double> dist = {0.7, 0.3};
  ASSERT_TRUE(priors.SetDistribution(db, minions, dist).ok());
  const FusionResult r = model.Fuse(db, priors, FusionOptions{});
  EXPECT_DOUBLE_EQ(r.prob(minions, 0), 0.7);
  EXPECT_DOUBLE_EQ(r.prob(minions, 1), 0.3);
}

TEST(AccuFusionTest, NameIsAccu) {
  EXPECT_EQ(AccuFusion().name(), "accu");
}

}  // namespace
}  // namespace veritas
