// Tests of AccuCopy: copy detection and independence-discounted voting
// (Dong et al. 2009 — the full model behind the paper's AccuNoDep).
#include "fusion/accu_copy.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "data/synthetic.h"
#include "fusion/accu.h"
#include "model/database_builder.h"
#include "util/stats.h"
#include "util/strings.h"

namespace veritas {
namespace {

// The classic copy scenario (Dong et al. 2009): a clique of three sources
// (an error-prone "parent" and two exact copiers) faces three honest
// independent sources. On the contested items the vote is 3-vs-3; plain
// Accu breaks the tie toward the clique (whose members look flawlessly
// consistent and earn inflated accuracies), while copy detection discounts
// the copiers and lets the honest majority win.
Database CopierClique() {
  DatabaseBuilder builder;
  for (int i = 0; i < 60; ++i) {
    const std::string item = NumberedName("o", i);
    const std::string truth = NumberedName("t", i);
    const std::string parent_value = i < 8 ? NumberedName("lie", i) : truth;
    EXPECT_TRUE(builder.AddObservation("parent", item, parent_value).ok());
    EXPECT_TRUE(builder.AddObservation("copy1", item, parent_value).ok());
    EXPECT_TRUE(builder.AddObservation("copy2", item, parent_value).ok());
    // Honest sources err independently, on disjoint items with distinct
    // values — the signature that separates them from copiers.
    const std::string h1 =
        (i >= 10 && i < 16) ? "e1_" + std::to_string(i) : truth;
    const std::string h2 =
        (i >= 20 && i < 26) ? "e2_" + std::to_string(i) : truth;
    const std::string h3 =
        (i >= 30 && i < 36) ? "e3_" + std::to_string(i) : truth;
    EXPECT_TRUE(builder.AddObservation("honest1", item, h1).ok());
    EXPECT_TRUE(builder.AddObservation("honest2", item, h2).ok());
    EXPECT_TRUE(builder.AddObservation("honest3", item, h3).ok());
  }
  return builder.Build();
}

GroundTruth CliqueTruth(const Database& db) {
  GroundTruth truth(db);
  for (ItemId i = 0; i < db.num_items(); ++i) {
    std::string value = db.item(i).name;  // "o<i>" -> "t<i>".
    value[0] = 't';
    EXPECT_TRUE(truth.SetByValue(db, db.item(i).name, value).ok());
  }
  return truth;
}

TEST(AccuCopyTest, DetectsTheCopierClique) {
  const Database db = CopierClique();
  AccuCopyFusion model;
  model.Fuse(db, PriorSet(), FusionOptions{});
  const SourceId parent = *db.FindSource("parent");
  const SourceId copy1 = *db.FindSource("copy1");
  const SourceId copy2 = *db.FindSource("copy2");
  const SourceId honest1 = *db.FindSource("honest1");
  const SourceId honest2 = *db.FindSource("honest2");
  // Sharing eight idiosyncratic *false* values plus perfect agreement is
  // overwhelming evidence of dependence.
  EXPECT_GT(model.DependenceProbability(parent, copy1), 0.95);
  EXPECT_GT(model.DependenceProbability(copy1, copy2), 0.95);
  // Honest pairs agree on truths and disagree on their independent errors.
  EXPECT_LT(model.DependenceProbability(honest1, honest2), 0.05);
  EXPECT_LT(model.DependenceProbability(parent, honest1), 0.05);
}

TEST(AccuCopyTest, DiscountedVotesFlipCliqueDominatedItems) {
  const Database db = CopierClique();
  const GroundTruth truth = CliqueTruth(db);
  AccuFusion plain;
  AccuCopyFusion with_copy;
  const FusionResult plain_result = plain.Fuse(db, FusionOptions{});
  const FusionResult copy_result =
      with_copy.Fuse(db, PriorSet(), FusionOptions{});
  // Plain Accu loses every contested item to the clique...
  std::size_t plain_right = 0, copy_right = 0;
  for (ItemId i = 0; i < 8; ++i) {
    if (plain_result.WinningClaim(i) == truth.TrueClaim(i)) ++plain_right;
    if (copy_result.WinningClaim(i) == truth.TrueClaim(i)) ++copy_right;
  }
  EXPECT_EQ(plain_right, 0u);
  // ...while copy-aware fusion wins them all.
  EXPECT_EQ(copy_right, 8u);
  EXPECT_DOUBLE_EQ(FusionAccuracy(copy_result, truth), 1.0);
  EXPECT_GT(FusionAccuracy(copy_result, truth),
            FusionAccuracy(plain_result, truth));
}

TEST(AccuCopyTest, MatchesAccuNoDepWithoutCopying) {
  DenseConfig config;
  config.num_items = 150;
  config.num_sources = 12;
  config.density = 0.5;
  config.copier_fraction = 0.0;
  config.seed = 61;
  const SyntheticDataset data = GenerateDense(config);
  AccuFusion plain;
  AccuCopyFusion with_copy;
  const FusionResult a = plain.Fuse(data.db, FusionOptions{});
  const FusionResult b = with_copy.Fuse(data.db, PriorSet(), FusionOptions{});
  // With no real copying all dependence posteriors are tiny and the
  // discounted scores coincide with the plain ones.
  for (ItemId i = 0; i < data.db.num_items(); ++i) {
    for (ClaimIndex k = 0; k < data.db.num_claims(i); ++k) {
      EXPECT_NEAR(a.prob(i, k), b.prob(i, k), 0.05) << "item " << i;
    }
  }
}

TEST(AccuCopyTest, SeparatesCopierPairsFromIndependentPairs) {
  DenseConfig config;
  config.num_items = 300;
  config.num_sources = 20;
  config.density = 0.4;
  config.accuracy_mean = 0.75;
  config.copier_fraction = 0.5;
  config.seed = 11;
  const SyntheticDataset data = GenerateDense(config);
  AccuCopyFusion model;
  model.Fuse(data.db, PriorSet(), FusionOptions{});
  // Copiers are the trailing half of the source ids (generator layout).
  const SourceId independents = 10;
  RunningStats with_copier, independent_only;
  double max_with_copier = 0.0;
  for (SourceId a = 0; a < data.db.num_sources(); ++a) {
    for (SourceId b = a + 1; b < data.db.num_sources(); ++b) {
      const double dep = model.DependenceProbability(a, b);
      if (a >= independents || b >= independents) {
        with_copier.Add(dep);
        max_with_copier = std::max(max_with_copier, dep);
      } else {
        independent_only.Add(dep);
      }
    }
  }
  EXPECT_GT(max_with_copier, 0.9);             // Parent-copier pairs found.
  EXPECT_LT(independent_only.mean(), 0.05);    // No false alarms on average.
  EXPECT_GT(with_copier.mean(), independent_only.mean());
}

TEST(AccuCopyTest, DependenceMatrixShape) {
  const Database db = CopierClique();
  AccuCopyFusion model;
  model.Fuse(db, PriorSet(), FusionOptions{});
  EXPECT_EQ(model.last_dependence().size(),
            db.num_sources() * db.num_sources());
  for (SourceId a = 0; a < db.num_sources(); ++a) {
    EXPECT_DOUBLE_EQ(model.DependenceProbability(a, a), 0.0);
    for (SourceId b = 0; b < db.num_sources(); ++b) {
      EXPECT_DOUBLE_EQ(model.DependenceProbability(a, b),
                       model.DependenceProbability(b, a));
    }
  }
  // Out-of-range queries are safe.
  EXPECT_DOUBLE_EQ(model.DependenceProbability(0, 999), 0.0);
}

TEST(AccuCopyTest, MinOverlapGuard) {
  // Two sources overlapping on a single item are assumed independent even
  // if they agree on a false value.
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("a", "x", "wrong").ok());
  ASSERT_TRUE(builder.AddObservation("b", "x", "wrong").ok());
  ASSERT_TRUE(builder.AddObservation("c", "x", "right").ok());
  const Database db = builder.Build();
  AccuCopyFusion model;
  model.Fuse(db, PriorSet(), FusionOptions{});
  EXPECT_DOUBLE_EQ(
      model.DependenceProbability(*db.FindSource("a"), *db.FindSource("b")),
      0.0);
}

TEST(AccuCopyTest, RespectsPriors) {
  const Database db = CopierClique();
  AccuCopyFusion model;
  PriorSet priors;
  ASSERT_TRUE(priors.SetExact(db, 0, 0).ok());
  const FusionResult r = model.Fuse(db, priors, FusionOptions{});
  EXPECT_DOUBLE_EQ(r.prob(0, 0), 1.0);
}

TEST(AccuCopyTest, OptionsAccessors) {
  AccuCopyOptions options;
  options.prior_copy_probability = 0.2;
  options.copy_rate = 0.9;
  AccuCopyFusion model(options);
  EXPECT_DOUBLE_EQ(model.copy_options().prior_copy_probability, 0.2);
  EXPECT_DOUBLE_EQ(model.copy_options().copy_rate, 0.9);
  EXPECT_EQ(model.name(), "accu_copy");
}

}  // namespace
}  // namespace veritas
