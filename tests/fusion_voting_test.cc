#include "fusion/voting.h"

#include <gtest/gtest.h>

#include "data/example_data.h"
#include "model/compiled_database.h"
#include "model/database_builder.h"

namespace veritas {
namespace {

TEST(VotingFusionTest, VoteSharesMatchEq5) {
  const Database db = MakeMovieDatabase();
  const CompiledDatabase compiled(db);
  // Zootopia: Howard 1/3, Spencer 2/3 (Example 4.1).
  const ItemId zootopia = *db.FindItem("Zootopia");
  const auto shares = VotingFusion::VoteShares(compiled, zootopia);
  EXPECT_NEAR(shares[*db.FindClaim(zootopia, "Howard")], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(shares[*db.FindClaim(zootopia, "Spencer")], 2.0 / 3.0, 1e-12);
}

TEST(VotingFusionTest, EvenSplit) {
  const Database db = MakeMovieDatabase();
  const CompiledDatabase compiled(db);
  const ItemId minions = *db.FindItem("Minions");
  const auto shares = VotingFusion::VoteShares(compiled, minions);
  EXPECT_NEAR(shares[0], 0.5, 1e-12);
  EXPECT_NEAR(shares[1], 0.5, 1e-12);
}

TEST(VotingFusionTest, FuseOutputsVoteShares) {
  const Database db = MakeMovieDatabase();
  const CompiledDatabase compiled(db);
  VotingFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  for (ItemId i = 0; i < db.num_items(); ++i) {
    const auto shares = VotingFusion::VoteShares(compiled, i);
    for (ClaimIndex k = 0; k < db.num_claims(i); ++k) {
      EXPECT_NEAR(r.prob(i, k), shares[k], 1e-12);
    }
  }
  EXPECT_TRUE(r.converged());
  EXPECT_EQ(r.iterations(), 1u);
}

TEST(VotingFusionTest, PriorsArePinned) {
  const Database db = MakeMovieDatabase();
  VotingFusion model;
  PriorSet priors;
  const ItemId minions = *db.FindItem("Minions");
  ASSERT_TRUE(priors.SetExact(db, minions, 1).ok());
  const FusionResult r = model.Fuse(db, priors, FusionOptions{});
  EXPECT_DOUBLE_EQ(r.prob(minions, 1), 1.0);
}

TEST(VotingFusionTest, SourceAccuracyIsMeanVoteShare) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s3", "x", "b").ok());
  const Database db = builder.Build();
  VotingFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  EXPECT_NEAR(r.accuracy(*db.FindSource("s1")), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.accuracy(*db.FindSource("s3")), 1.0 / 3.0, 1e-12);
}

TEST(VotingFusionTest, NameIsVoting) {
  EXPECT_EQ(VotingFusion().name(), "voting");
}

}  // namespace
}  // namespace veritas
