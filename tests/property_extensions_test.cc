// Property sweeps over the extension modules: canonicalization invariants,
// crowd-EM validity, AccuCopy false-positive behaviour, LCA conformance
// corners, and export/load round-trips across generator shapes and seeds.
#include <gtest/gtest.h>

#include "crowd/consolidation.h"
#include "data/canonicalize.h"
#include "data/synthetic.h"
#include "exp/export.h"
#include "fusion/accu.h"
#include "fusion/accu_copy.h"
#include "fusion/lca.h"
#include "model/database_builder.h"
#include "util/math.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/strings.h"
#include "test_dir.h"

namespace veritas {
namespace {

// ---------- Canonicalization properties ----------

class CanonicalizePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// Numeric datasets: generated items get numeric values "0","10","20",...
// with per-source jitter, so clustering has real work to do.
Database NumericJitterDatabase(std::uint64_t seed) {
  Rng rng(seed);
  DatabaseBuilder builder;
  for (int i = 0; i < 50; ++i) {
    const int base = i * 1000;
    for (int s = 0; s < 6; ++s) {
      // Jitter within +-4 (mergeable) or a far-off value (distinct claim).
      const bool outlier = rng.Bernoulli(0.2);
      const int value =
          outlier ? base + 500 : base + static_cast<int>(rng.UniformIndex(9)) - 4;
      const Status st =
          builder.AddObservation(NumberedName("s", s),
                                 NumberedName("item", i),
                                 std::to_string(value));
      EXPECT_TRUE(st.ok());
    }
  }
  return builder.Build();
}

TEST_P(CanonicalizePropertyTest, Idempotent) {
  const Database db = NumericJitterDatabase(GetParam());
  const auto once = CanonicalizeValues(db);
  ASSERT_TRUE(once.ok());
  const auto twice = CanonicalizeValues(once->db);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice->merged_claims, 0u);
  EXPECT_EQ(twice->db.num_claims(), once->db.num_claims());
}

TEST_P(CanonicalizePropertyTest, PreservesObservationsAndNeverAddsClaims) {
  const Database db = NumericJitterDatabase(GetParam());
  const auto report = CanonicalizeValues(db);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->db.num_observations(), db.num_observations());
  EXPECT_LE(report->db.num_claims(), db.num_claims());
  EXPECT_EQ(report->db.num_items(), db.num_items());
  EXPECT_EQ(db.num_claims() - report->db.num_claims(),
            report->merged_claims);
}

TEST_P(CanonicalizePropertyTest, ClusterGapsRespectTolerance) {
  const Database db = NumericJitterDatabase(GetParam());
  CanonicalizeOptions options;
  options.numeric_tolerance = 8.0;
  const auto report = CanonicalizeValues(db, options);
  ASSERT_TRUE(report.ok());
  // After canonicalization, any two surviving numeric claims of an item
  // must be more than the tolerance apart.
  for (ItemId i = 0; i < report->db.num_items(); ++i) {
    std::vector<double> parsed;
    for (const Claim& claim : report->db.item(i).claims) {
      const auto value = ParseNumericValue(claim.value, true);
      if (value.has_value()) parsed.push_back(*value);
    }
    std::sort(parsed.begin(), parsed.end());
    for (std::size_t k = 1; k < parsed.size(); ++k) {
      EXPECT_GT(parsed[k] - parsed[k - 1], options.numeric_tolerance)
          << "item " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalizePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- Crowd EM properties ----------

class CrowdEmPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CrowdEmPropertyTest, EmAtLeastMatchesMajorityOnAccuracy) {
  DenseConfig config;
  config.num_items = 80;
  config.num_sources = 10;
  config.density = 0.5;
  config.seed = GetParam();
  const SyntheticDataset data = GenerateDense(config);

  WorkerPoolConfig pool_config;
  pool_config.num_workers = 12;
  pool_config.accuracy_mean = 0.7;
  pool_config.accuracy_sd = 0.15;
  pool_config.answers_per_item = 5;
  pool_config.seed = GetParam() + 100;

  auto label_accuracy = [&](CrowdOracle::Mode mode) {
    WorkerPool pool(pool_config);
    CrowdOracle oracle(&pool, mode);
    std::size_t right = 0, total = 0;
    for (ItemId i : data.db.ConflictingItems()) {
      const auto answer = oracle.Answer(data.db, i, data.truth, nullptr);
      EXPECT_TRUE(answer.ok());
      ++total;
      if (ArgMax(*answer) == data.truth.TrueClaim(i)) ++right;
    }
    return total ? static_cast<double>(right) / static_cast<double>(total)
                 : 0.0;
  };
  const double majority = label_accuracy(CrowdOracle::Mode::kMajority);
  const double em = label_accuracy(CrowdOracle::Mode::kEm);
  // EM learns worker quality; across seeds it should not be meaningfully
  // worse than counting and is usually better.
  EXPECT_GE(em, majority - 0.05) << "majority=" << majority << " em=" << em;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrowdEmPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------- AccuCopy properties ----------

class AccuCopyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AccuCopyPropertyTest, NoFalseAlarmsWithoutCopying) {
  DenseConfig config;
  config.num_items = 150;
  config.num_sources = 12;
  config.density = 0.5;
  config.copier_fraction = 0.0;
  config.seed = GetParam();
  const SyntheticDataset data = GenerateDense(config);
  AccuCopyFusion model;
  model.Fuse(data.db, PriorSet(), FusionOptions{});
  RunningStats deps;
  for (SourceId a = 0; a < data.db.num_sources(); ++a) {
    for (SourceId b = a + 1; b < data.db.num_sources(); ++b) {
      deps.Add(model.DependenceProbability(a, b));
    }
  }
  EXPECT_LT(deps.mean(), 0.05);
  EXPECT_LT(deps.max(), 0.5);
}

TEST_P(AccuCopyPropertyTest, DetectsSomeCliqueWithHeavyCopying) {
  DenseConfig config;
  config.num_items = 200;
  config.num_sources = 14;
  config.density = 0.5;
  config.accuracy_mean = 0.75;
  config.copier_fraction = 0.5;
  config.seed = GetParam();
  const SyntheticDataset data = GenerateDense(config);
  AccuCopyFusion model;
  model.Fuse(data.db, PriorSet(), FusionOptions{});
  double max_dep = 0.0;
  for (SourceId a = 0; a < data.db.num_sources(); ++a) {
    for (SourceId b = a + 1; b < data.db.num_sources(); ++b) {
      max_dep = std::max(max_dep, model.DependenceProbability(a, b));
    }
  }
  EXPECT_GT(max_dep, 0.9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccuCopyPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- LCA-specific corner ----------

TEST(SimpleLcaTest, SmoothingAccessorAndName) {
  EXPECT_DOUBLE_EQ(SimpleLcaFusion().smoothing(), 1.0);
  EXPECT_DOUBLE_EQ(SimpleLcaFusion(2.5).smoothing(), 2.5);
  EXPECT_EQ(SimpleLcaFusion().name(), "lca");
}

TEST(SimpleLcaTest, SmoothingKeepsSingleVoteSourcesModerate) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("onevote", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s3", "x", "b").ok());
  const Database db = builder.Build();
  SimpleLcaFusion model;
  const FusionResult r = model.Fuse(db, PriorSet(), FusionOptions{});
  // A one-vote source's honesty stays pulled toward the prior, not 0/1.
  const double h = r.accuracy(*db.FindSource("onevote"));
  EXPECT_GT(h, 0.5);
  EXPECT_LT(h, 0.95);
}

// ---------- Export round-trip across generator shapes ----------

struct ExportCase {
  bool dense;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const ExportCase& c) {
    return os << (c.dense ? "dense_" : "longtail_") << c.seed;
  }
};

class ExportPropertyTest : public ::testing::TestWithParam<ExportCase> {};

TEST_P(ExportPropertyTest, FusionCsvHasOneWinnerPerItem) {
  SyntheticDataset data;
  if (GetParam().dense) {
    DenseConfig config;
    config.num_items = 60;
    config.num_sources = 10;
    config.seed = GetParam().seed;
    data = GenerateDense(config);
  } else {
    LongTailConfig config;
    config.num_items = 60;
    config.num_sources = 40;
    config.avg_votes_per_item = 6.0;
    config.seed = GetParam().seed;
    data = GenerateLongTail(config);
  }
  AccuFusion model;
  const FusionResult fused = model.Fuse(data.db, FusionOptions{});
  const std::string path = TestPath("veritas_export_prop.csv");
  ASSERT_TRUE(WriteFusionCsv(data.db, fused, path).ok());
  const auto rows = ReadCsvFile(path);
  ASSERT_TRUE(rows.ok());
  std::size_t winners = 0;
  for (std::size_t r = 1; r < rows->size(); ++r) {
    if ((*rows)[r][3] == "1") ++winners;
  }
  EXPECT_EQ(winners, data.db.num_items());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Shapes, ExportPropertyTest,
                         ::testing::Values(ExportCase{true, 1},
                                           ExportCase{true, 2},
                                           ExportCase{false, 3},
                                           ExportCase{false, 4}));

}  // namespace
}  // namespace veritas
