// Tests of the synthetic dataset generators (§B.2 dense + long-tail).
#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "data/dataset_stats.h"
#include "fusion/accu.h"
#include "core/metrics.h"

namespace veritas {
namespace {

TEST(SyntheticValueTest, Naming) {
  EXPECT_EQ(SyntheticTrueValue(7), "T7");
  EXPECT_EQ(SyntheticFalseValue(7, 0), "F7_0");
  EXPECT_EQ(SyntheticFalseValue(12, 3), "F12_3");
}

TEST(GenerateDenseTest, ShapeMatchesConfig) {
  DenseConfig config;
  config.num_items = 200;
  config.num_sources = 20;
  config.density = 0.4;
  config.seed = 1;
  const SyntheticDataset data = GenerateDense(config);
  EXPECT_EQ(data.db.num_items(), 200u);
  // PatchCoverage may add a handful of fallback votes but never sources.
  EXPECT_EQ(data.db.num_sources(), 20u);
  EXPECT_EQ(data.true_accuracies.size(), 20u);
}

TEST(GenerateDenseTest, DensityApproximatelyHonored) {
  DenseConfig config;
  config.num_items = 500;
  config.num_sources = 30;
  config.density = 0.4;
  config.seed = 2;
  const SyntheticDataset data = GenerateDense(config);
  const DatasetStats stats = ComputeStats(data.db);
  EXPECT_NEAR(stats.density, 0.4, 0.05);
}

TEST(GenerateDenseTest, EveryItemHasVotes) {
  DenseConfig config;
  config.num_items = 300;
  config.num_sources = 10;
  config.density = 0.05;  // Sparse enough that patching must kick in.
  config.seed = 3;
  const SyntheticDataset data = GenerateDense(config);
  EXPECT_EQ(data.db.num_items(), 300u);
  for (ItemId i = 0; i < data.db.num_items(); ++i) {
    EXPECT_GE(data.db.item_votes(i).size(), 1u) << "item " << i;
  }
}

TEST(GenerateDenseTest, ClaimsPerItemCapped) {
  DenseConfig config;
  config.num_items = 200;
  config.num_sources = 25;
  config.density = 0.6;
  config.max_false_claims = 1;
  config.seed = 4;
  const SyntheticDataset data = GenerateDense(config);
  for (ItemId i = 0; i < data.db.num_items(); ++i) {
    EXPECT_LE(data.db.num_claims(i), 2u);
  }
}

TEST(GenerateDenseTest, MultiClaimGeneration) {
  DenseConfig config;
  config.num_items = 100;
  config.num_sources = 25;
  config.density = 0.6;
  config.max_false_claims = 3;
  config.seed = 5;
  const SyntheticDataset data = GenerateDense(config);
  std::size_t max_claims = 0;
  for (ItemId i = 0; i < data.db.num_items(); ++i) {
    max_claims = std::max(max_claims, data.db.num_claims(i));
    EXPECT_LE(data.db.num_claims(i), 4u);
  }
  EXPECT_GT(max_claims, 2u);  // Some item should actually use the room.
}

TEST(GenerateDenseTest, TruthMatchesGeneratedTrueValues) {
  DenseConfig config;
  config.num_items = 150;
  config.num_sources = 15;
  config.density = 0.5;
  config.seed = 6;
  const SyntheticDataset data = GenerateDense(config);
  for (ItemId i = 0; i < data.db.num_items(); ++i) {
    if (!data.truth.Knows(i)) continue;
    const ClaimIndex t = data.truth.TrueClaim(i);
    // True claims carry the "T<index>" value.
    EXPECT_EQ(data.db.item(i).claims[t].value[0], 'T');
  }
}

TEST(GenerateDenseTest, ConflictingItemsAlwaysHaveKnownTruth) {
  // With max_false_claims = 1 an item conflicts only when both the true and
  // the false value were voted, so truth is always expressible.
  DenseConfig config;
  config.num_items = 400;
  config.num_sources = 20;
  config.density = 0.3;
  config.seed = 7;
  const SyntheticDataset data = GenerateDense(config);
  for (ItemId i : data.db.ConflictingItems()) {
    EXPECT_TRUE(data.truth.Knows(i)) << "item " << i;
  }
}

TEST(GenerateDenseTest, EnsureTrueClaimMakesTruthTotal) {
  DenseConfig config;
  config.num_items = 200;
  config.num_sources = 8;
  config.density = 0.2;
  config.max_false_claims = 2;
  config.ensure_true_claim = true;
  config.seed = 8;
  const SyntheticDataset data = GenerateDense(config);
  EXPECT_EQ(data.truth.num_known(), data.db.num_items());
}

TEST(GenerateDenseTest, DeterministicForSeed) {
  DenseConfig config;
  config.num_items = 100;
  config.num_sources = 10;
  config.seed = 9;
  const SyntheticDataset a = GenerateDense(config);
  const SyntheticDataset b = GenerateDense(config);
  EXPECT_EQ(a.db.num_observations(), b.db.num_observations());
  EXPECT_EQ(a.db.num_claims(), b.db.num_claims());
  EXPECT_EQ(a.true_accuracies, b.true_accuracies);
}

TEST(GenerateDenseTest, DifferentSeedsDiffer) {
  DenseConfig config;
  config.num_items = 100;
  config.num_sources = 10;
  config.seed = 10;
  const SyntheticDataset a = GenerateDense(config);
  config.seed = 11;
  const SyntheticDataset b = GenerateDense(config);
  EXPECT_NE(a.db.num_observations(), b.db.num_observations());
}

TEST(GenerateDenseTest, SourceAccuracyReflectedInData) {
  // Empirical per-source truth rate should correlate with the assigned
  // accuracy: check the best and worst sources are ordered correctly.
  DenseConfig config;
  config.num_items = 2000;
  config.num_sources = 10;
  config.density = 0.5;
  config.seed = 12;
  const SyntheticDataset data = GenerateDense(config);
  std::size_t best = 0, worst = 0;
  for (std::size_t j = 1; j < data.true_accuracies.size(); ++j) {
    if (data.true_accuracies[j] > data.true_accuracies[best]) best = j;
    if (data.true_accuracies[j] < data.true_accuracies[worst]) worst = j;
  }
  auto truth_rate = [&](SourceId j) {
    const Source& s = data.db.source(j);
    std::size_t right = 0;
    for (const Vote& v : s.votes) {
      if (data.truth.IsTrue(v.item, v.claim)) ++right;
    }
    return static_cast<double>(right) / static_cast<double>(s.votes.size());
  };
  EXPECT_GT(truth_rate(static_cast<SourceId>(best)),
            truth_rate(static_cast<SourceId>(worst)));
}

TEST(GenerateDenseTest, CopiersReplicateTheirParentsVotes) {
  DenseConfig config;
  config.num_items = 300;
  config.num_sources = 20;
  config.density = 0.5;
  config.copier_fraction = 0.5;
  config.seed = 90;
  const SyntheticDataset data = GenerateDense(config);
  // With half the sources copying, votes on shared items must agree far
  // more often than independent 0.8-accurate observers would: count pairs
  // of sources that agree on > 95% of their shared items.
  std::size_t near_clones = 0;
  for (SourceId a = 0; a < data.db.num_sources(); ++a) {
    for (SourceId b = a + 1; b < data.db.num_sources(); ++b) {
      std::size_t shared = 0, agree = 0;
      for (const Vote& v : data.db.source(a).votes) {
        const ClaimIndex other = data.db.ClaimOf(b, v.item);
        if (other == kInvalidClaim) continue;
        ++shared;
        if (other == v.claim) ++agree;
      }
      if (shared >= 20 &&
          static_cast<double>(agree) / static_cast<double>(shared) > 0.95) {
        ++near_clones;
      }
    }
  }
  EXPECT_GT(near_clones, 0u);
}

TEST(GenerateDenseTest, CopyingCreatesConfidentMistakes) {
  // The purpose of the copier knob: correlated wrong claims that fusion
  // trusts. Compare confidently-wrong counts with and without copying.
  auto confident_wrong = [](double copier_fraction) {
    DenseConfig config;
    config.num_items = 400;
    config.num_sources = 38;
    config.density = 0.36;
    config.accuracy_mean = 0.75;
    config.copier_fraction = copier_fraction;
    config.seed = 91;
    const SyntheticDataset data = GenerateDense(config);
    AccuFusion model;
    const FusionResult r = model.Fuse(data.db, FusionOptions{});
    std::size_t count = 0;
    for (ItemId i = 0; i < data.db.num_items(); ++i) {
      if (!data.truth.Knows(i)) continue;
      if (r.prob(i, data.truth.TrueClaim(i)) < 0.1) ++count;
    }
    return count;
  };
  EXPECT_GT(confident_wrong(0.5), confident_wrong(0.0));
}

TEST(GenerateDenseTest, CopierAccuracyInheritedFromParent) {
  DenseConfig config;
  config.num_items = 100;
  config.num_sources = 10;
  config.copier_fraction = 0.4;
  config.seed = 92;
  const SyntheticDataset data = GenerateDense(config);
  // true_accuracies of copiers equal some independent source's accuracy.
  // (Weaker check: all values drawn from the independent prefix's set.)
  const std::size_t independents = 10 - 4;
  for (std::size_t j = independents; j < 10; ++j) {
    bool found = false;
    for (std::size_t p = 0; p < independents; ++p) {
      if (data.true_accuracies[j] == data.true_accuracies[p]) found = true;
    }
    EXPECT_TRUE(found) << "copier " << j;
  }
}

TEST(GenerateLongTailTest, CopiersCoverSubsetOfParentCatalog) {
  LongTailConfig config;
  config.num_items = 400;
  config.num_sources = 60;
  config.avg_votes_per_item = 12.0;
  config.copier_fraction = 0.5;
  config.seed = 93;
  const SyntheticDataset data = GenerateLongTail(config);
  // At least one pair of sources must share a large, highly-agreeing
  // overlap (a copier on its parent's catalog).
  bool found_catalog_copy = false;
  for (SourceId a = 0; a < data.db.num_sources() && !found_catalog_copy;
       ++a) {
    for (SourceId b = a + 1; b < data.db.num_sources(); ++b) {
      std::size_t shared = 0, agree = 0;
      for (const Vote& v : data.db.source(a).votes) {
        const ClaimIndex other = data.db.ClaimOf(b, v.item);
        if (other == kInvalidClaim) continue;
        ++shared;
        if (other == v.claim) ++agree;
      }
      if (shared >= 5 && agree == shared) {
        found_catalog_copy = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_catalog_copy);
}

TEST(GenerateLongTailTest, ShapeMatchesConfig) {
  LongTailConfig config;
  config.num_items = 400;
  config.num_sources = 300;
  config.avg_votes_per_item = 10.0;
  config.seed = 21;
  const SyntheticDataset data = GenerateLongTail(config);
  EXPECT_EQ(data.db.num_items(), 400u);
  EXPECT_EQ(data.db.num_sources(), 300u);
  const DatasetStats stats = ComputeStats(data.db);
  EXPECT_NEAR(stats.avg_votes_per_item, 10.0, 2.5);
}

TEST(GenerateLongTailTest, CoverageIsLongTailed) {
  // Figure 8 / §B.1: most sources cover a small fraction of items.
  LongTailConfig config;
  config.num_items = 1000;
  config.num_sources = 700;
  config.avg_votes_per_item = 19.0;
  config.pareto_alpha = 0.7;
  config.seed = 22;
  const SyntheticDataset data = GenerateLongTail(config);
  // A clear majority of sources covers < 4% of the items...
  EXPECT_GT(CoverageBelow(data.db, 0.04), 0.75);
  // ...while a few heavy sources cover a lot.
  const auto coverages = SourceCoverages(data.db);
  EXPECT_GT(*std::max_element(coverages.begin(), coverages.end()), 0.2);
}

TEST(GenerateLongTailTest, PopulationLikeSparsity) {
  LongTailConfig config;
  config.num_items = 2000;
  config.num_sources = 150;
  config.avg_votes_per_item = 1.15;
  config.seed = 23;
  const SyntheticDataset data = GenerateLongTail(config);
  const DatasetStats stats = ComputeStats(data.db);
  // Only a small share of items should be conflicting (paper: ~2.5%).
  const double conflict_share =
      static_cast<double>(stats.conflicting_items) /
      static_cast<double>(stats.items);
  EXPECT_LT(conflict_share, 0.25);
  EXPECT_GT(conflict_share, 0.0);
}

TEST(GenerateLongTailTest, EveryItemCovered) {
  LongTailConfig config;
  config.num_items = 500;
  config.num_sources = 100;
  config.avg_votes_per_item = 1.0;
  config.seed = 24;
  const SyntheticDataset data = GenerateLongTail(config);
  EXPECT_EQ(data.db.num_items(), 500u);
  for (ItemId i = 0; i < data.db.num_items(); ++i) {
    EXPECT_GE(data.db.item_votes(i).size(), 1u);
  }
}

TEST(GenerateLongTailTest, Deterministic) {
  LongTailConfig config;
  config.num_items = 200;
  config.num_sources = 100;
  config.seed = 25;
  const SyntheticDataset a = GenerateLongTail(config);
  const SyntheticDataset b = GenerateLongTail(config);
  EXPECT_EQ(a.db.num_observations(), b.db.num_observations());
}

// Fusion on generated data recovers most truths — a sanity property across
// generator shapes and seeds.
// gtest prints a param struct without a PrintTo as its raw bytes, and ctest
// names the test after them. Both fields are 8 bytes wide so the struct has
// no padding, whose garbage bytes would make the names differ between builds.
enum class Shape : std::uint64_t { kLongTail = 0, kDense = 1 };

struct GenCase {
  Shape shape;
  std::uint64_t seed;
};

class GeneratorFusionPropertyTest
    : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorFusionPropertyTest, FusionBeatsChance) {
  const GenCase param = GetParam();
  SyntheticDataset data;
  if (param.shape == Shape::kDense) {
    DenseConfig config;
    config.num_items = 250;
    config.num_sources = 25;
    config.density = 0.4;
    config.seed = param.seed;
    data = GenerateDense(config);
  } else {
    LongTailConfig config;
    config.num_items = 250;
    config.num_sources = 150;
    config.avg_votes_per_item = 12.0;
    config.seed = param.seed;
    data = GenerateLongTail(config);
  }
  AccuFusion model;
  const FusionResult r = model.Fuse(data.db, FusionOptions{});
  EXPECT_GT(FusionAccuracy(r, data.truth), 0.75);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeneratorFusionPropertyTest,
    ::testing::Values(GenCase{Shape::kDense, 1}, GenCase{Shape::kDense, 2},
                      GenCase{Shape::kDense, 3}, GenCase{Shape::kLongTail, 1},
                      GenCase{Shape::kLongTail, 2},
                      GenCase{Shape::kLongTail, 3}));

// ---------- Declarative spec front-end ----------

TEST(GenerateFromSpecTest, DispatchesToDense) {
  DatasetSpec spec;
  spec.shape = "dense";
  spec.num_items = 120;
  spec.num_sources = 20;
  spec.seed = 5;
  spec.params["density"] = "0.4";
  GenerationReport report;
  const Result<SyntheticDataset> data = GenerateFromSpec(spec, &report);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->db.num_items(), 120u);
  EXPECT_EQ(report.generator, "dense");
  EXPECT_EQ(report.num_items, data->db.num_items());
  EXPECT_EQ(report.num_observations, data->db.num_observations());

  // The spec path must produce exactly what the native config produces.
  DenseConfig config;
  config.num_items = 120;
  config.num_sources = 20;
  config.density = 0.4;
  config.seed = 5;
  const SyntheticDataset direct = GenerateDense(config);
  EXPECT_EQ(data->db.num_observations(), direct.db.num_observations());
}

TEST(GenerateFromSpecTest, RejectsUnknownShapeAndParams) {
  DatasetSpec spec;
  spec.shape = "mystery";
  EXPECT_FALSE(GenerateFromSpec(spec).ok());

  spec.shape = "dense";
  spec.params["densty"] = "0.4";  // Typo must not silently default.
  EXPECT_FALSE(GenerateFromSpec(spec).ok());

  spec.params.clear();
  spec.params["density"] = "not-a-number";
  EXPECT_FALSE(GenerateFromSpec(spec).ok());

  spec.params.clear();
  spec.shape = "scaled_longtail";
  spec.params["max_hot_logit"] = "-1";  // Out of domain.
  EXPECT_FALSE(GenerateFromSpec(spec).ok());
}

TEST(GenerateFromSpecTest, ScaledLongTailShape) {
  DatasetSpec spec;
  spec.shape = "scaled_longtail";
  spec.name = "scale-test";
  spec.num_items = 20000;
  spec.num_sources = 4096;
  spec.seed = 9;
  spec.params["hot_items"] = "64";
  spec.params["head_sources"] = "8";
  GenerationReport report;
  const Result<SyntheticDataset> data = GenerateFromSpec(spec, &report);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(report.generator, "scaled_longtail");
  EXPECT_EQ(report.dataset_name, "scale-test");
  EXPECT_EQ(report.num_items, 20000u);
  EXPECT_EQ(report.head_sources, 8u);
  // Exactly the hot items are contested; the whole tail is single-claim.
  EXPECT_EQ(report.contested_items, 64u);
  std::size_t contested = 0;
  for (ItemId i = 0; i < data->db.num_items(); ++i) {
    if (data->db.num_claims(i) > 1) ++contested;
  }
  EXPECT_EQ(contested, 64u);
  // Heads jointly cover every item.
  std::vector<bool> covered(data->db.num_items(), false);
  for (SourceId j = 0; j < 8; ++j) {
    for (const Vote& vote : data->db.source(j).votes) {
      covered[vote.item] = true;
    }
  }
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](bool c) { return c; }));
}

TEST(GenerateFromSpecTest, SameSeedSameData) {
  DatasetSpec spec;
  spec.shape = "scaled_longtail";
  spec.num_items = 5000;
  spec.num_sources = 4096;
  spec.seed = 17;
  const Result<SyntheticDataset> a = GenerateFromSpec(spec);
  const Result<SyntheticDataset> b = GenerateFromSpec(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->db.num_observations(), b->db.num_observations());
  ASSERT_EQ(a->db.num_items(), b->db.num_items());
  for (ItemId i = 0; i < a->db.num_items(); ++i) {
    ASSERT_EQ(a->db.num_claims(i), b->db.num_claims(i)) << "item " << i;
  }
}

}  // namespace
}  // namespace veritas
