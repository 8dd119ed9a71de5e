// Convergence-behaviour tests of the iterative fusion models: iteration
// accounting, tolerance semantics, warm-start savings (including warm starts
// from a result with fewer sources), and the §3 caveat that convergence is
// not guaranteed but is always reported honestly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/example_data.h"
#include "data/synthetic.h"
#include "fusion/accu.h"
#include "fusion/fusion_factory.h"
#include "model/compiled_database.h"
#include "model/database_builder.h"
#include "model/streaming_database.h"
#include "obs/metrics.h"

namespace veritas {
namespace {

TEST(ConvergenceTest, TighterToleranceNeedsMoreIterations) {
  const Database db = MakeMovieDatabase();
  AccuFusion model;
  FusionOptions loose;
  loose.tolerance = 1e-2;
  FusionOptions tight;
  tight.tolerance = 1e-10;
  const FusionResult a = model.Fuse(db, loose);
  const FusionResult b = model.Fuse(db, tight);
  ASSERT_TRUE(a.converged());
  ASSERT_TRUE(b.converged());
  EXPECT_LE(a.iterations(), b.iterations());
}

TEST(ConvergenceTest, PinnedEverythingConvergesInstantly) {
  const Database db = MakeMovieDatabase();
  const GroundTruth truth = MakeMovieGroundTruth(db);
  AccuFusion model;
  PriorSet priors;
  for (ItemId i = 0; i < db.num_items(); ++i) {
    ASSERT_TRUE(priors.SetExact(db, i, truth.TrueClaim(i)).ok());
  }
  const FusionResult r = model.Fuse(db, priors, FusionOptions{});
  EXPECT_TRUE(r.converged());
  // With every item pinned, accuracies settle after two iterations.
  EXPECT_LE(r.iterations(), 3u);
}

TEST(ConvergenceTest, WarmStartSavesIterationsAfterSmallPerturbation) {
  DenseConfig config;
  config.num_items = 200;
  config.num_sources = 20;
  config.density = 0.4;
  config.seed = 5;
  const SyntheticDataset data = GenerateDense(config);
  AccuFusion model;
  FusionOptions opts;
  const FusionResult base = model.Fuse(data.db, opts);
  ASSERT_TRUE(base.converged());

  PriorSet one_pin;
  ASSERT_TRUE(
      one_pin.SetExact(data.db, data.db.ConflictingItems().front(), 0).ok());
  const FusionResult cold = model.Fuse(data.db, one_pin, opts);
  const FusionResult warm = model.Fuse(data.db, one_pin, opts, &base);
  ASSERT_TRUE(cold.converged());
  ASSERT_TRUE(warm.converged());
  EXPECT_LE(warm.iterations(), cold.iterations());
  // And both land on the same fixed point.
  for (ItemId i = 0; i < data.db.num_items(); ++i) {
    for (ClaimIndex k = 0; k < data.db.num_claims(i); ++k) {
      EXPECT_NEAR(warm.prob(i, k), cold.prob(i, k), 1e-4);
    }
  }
}

TEST(ConvergenceTest, FinalProbabilitiesConsistentWithFinalAccuracies) {
  // The contract: the returned P is one application of Eq. (1) under the
  // returned A, even when the run hit the iteration cap mid-flight.
  const Database db = MakeMovieDatabase();
  const CompiledDatabase compiled(db);
  AccuFusion model;
  FusionOptions opts;
  opts.max_iterations = 3;  // Deliberately unconverged.
  const FusionResult r = model.Fuse(db, opts);
  for (ItemId i = 0; i < db.num_items(); ++i) {
    const auto probs = AccuFusion::ClaimProbabilities(compiled, i, r.accuracies());
    for (ClaimIndex k = 0; k < db.num_claims(i); ++k) {
      // Same term, gather and softmax as Fuse: equal bit for bit.
      EXPECT_EQ(r.prob(i, k), probs[k]);
    }
  }
}

// All iterative models report meaningful iteration counts and converge on
// easy data within the default budget.
class IterativeModelConvergenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(IterativeModelConvergenceTest, ConvergesOnEasyData) {
  DenseConfig config;
  config.num_items = 100;
  config.num_sources = 12;
  config.density = 0.5;
  config.accuracy_mean = 0.85;
  config.seed = 9;
  const SyntheticDataset data = GenerateDense(config);
  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok());
  const FusionResult r = (*model)->Fuse(data.db, PriorSet(), FusionOptions{});
  EXPECT_TRUE(r.converged()) << GetParam();
  EXPECT_GE(r.iterations(), 1u);
  EXPECT_LE(r.iterations(), FusionOptions{}.max_iterations);
}

TEST_P(IterativeModelConvergenceTest, IterationCapIsExact) {
  const Database db = MakeMovieDatabase();
  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok());
  for (std::size_t cap : {0u, 1u, 2u, 3u, 7u}) {
    FusionOptions opts;
    opts.max_iterations = cap;
    opts.tolerance = 0.0;  // Never satisfied.
    const FusionResult r = (*model)->Fuse(db, PriorSet(), opts);
    EXPECT_EQ(r.iterations(), cap) << GetParam();
    EXPECT_FALSE(r.converged()) << GetParam();
    // Even a cap of 0 leaves a distribution per item.
    for (ItemId i = 0; i < r.num_items(); ++i) {
      double sum = 0.0;
      for (double p : r.item_probs(i)) sum += p;
      EXPECT_NEAR(sum, 1.0, 1e-12) << GetParam() << " cap " << cap;
    }
  }
}

TEST_P(IterativeModelConvergenceTest, FuseAdvancesItsInstruments) {
  const Database db = MakeMovieDatabase();
  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok());
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::string prefix = "fusion.";
  prefix += GetParam();
  const Counter* calls = registry.GetCounter(prefix + ".fuse_calls");
  const Counter* nonconverged = registry.GetCounter(prefix + ".nonconverged");
  const Histogram* iterations = registry.GetHistogram(
      prefix + ".iterations", MetricsRegistry::CountEdges());
  const std::uint64_t calls_before = calls->value();
  const std::uint64_t nonconverged_before = nonconverged->value();
  const std::uint64_t iterations_before = iterations->count();
  FusionOptions opts;
  opts.max_iterations = 2;
  opts.tolerance = 0.0;  // Never satisfied.
  (*model)->Fuse(db, PriorSet(), opts);
  EXPECT_EQ(calls->value(), calls_before + 1);
  EXPECT_EQ(nonconverged->value(), nonconverged_before + 1);
  EXPECT_EQ(iterations->count(), iterations_before + 1);
}

INSTANTIATE_TEST_SUITE_P(Models, IterativeModelConvergenceTest,
                         ::testing::Values("accu", "accu_copy",
                                           "truthfinder", "lca",
                                           "pooled_investment"));

// A warm result from before a streaming append has fewer sources than the
// database. Every model that reads a warm start must treat it exactly like
// the explicitly extended result: the old accuracies, with the appended
// sources at the initial accuracy (FixedPointDriver).
class WarmStartAfterAppendTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(WarmStartAfterAppendTest, ShorterWarmResultMatchesExtendedOne) {
  DenseConfig config;
  config.num_items = 60;
  config.num_sources = 12;
  config.density = 0.5;
  config.seed = 23;
  config.emit_stream = true;
  const SyntheticDataset data = GenerateDense(config);

  // The last three sources to appear arrive in a second batch.
  std::vector<std::string> order;
  std::unordered_set<std::string> seen;
  for (const StreamObservation& o : data.stream) {
    if (seen.insert(o.source).second) order.push_back(o.source);
  }
  ASSERT_GT(order.size(), 3u);
  const std::unordered_set<std::string> late(order.end() - 3, order.end());
  IngestBatch first;
  IngestBatch second;
  for (const StreamObservation& o : data.stream) {
    (late.count(o.source) > 0 ? second : first).observations.push_back(o);
  }

  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok());
  FusionOptions opts;
  StreamingDatabase stream{Database()};
  ASSERT_TRUE(stream.AppendBatch(first).ok());
  PriorSet priors;
  const ItemId pinned = stream.db().ConflictingItems().front();
  ASSERT_TRUE(priors.SetExact(stream.db(), pinned, 0).ok());
  const FusionResult warm = (*model)->Fuse(stream.db(), priors, opts);
  const std::size_t old_sources = stream.db().num_sources();

  ASSERT_TRUE(stream.AppendBatch(second).ok());
  const Database& db = stream.db();
  ASSERT_EQ(db.num_sources(), old_sources + 3);
  priors.ExtendForNewClaims(db);
  FusionResult extended(db, opts.initial_accuracy);
  for (SourceId j = 0; j < old_sources; ++j) {
    (*extended.mutable_accuracies())[j] = warm.accuracy(j);
  }

  const FusionResult from_short = (*model)->Fuse(db, priors, opts, &warm);
  const FusionResult from_extended =
      (*model)->Fuse(db, priors, opts, &extended);
  ASSERT_TRUE(from_short.AllFinite());
  EXPECT_EQ(from_short.iterations(), from_extended.iterations());
  EXPECT_EQ(from_short.accuracies(), from_extended.accuracies());
  for (ItemId i = 0; i < db.num_items(); ++i) {
    EXPECT_TRUE(std::ranges::equal(from_short.item_probs(i),
                                   from_extended.item_probs(i)))
        << "item " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, WarmStartAfterAppendTest,
                         ::testing::Values("accu", "truthfinder", "lca",
                                           "pooled_investment"));

TEST(ConvergenceTest, OscillationIsReportedNotHidden) {
  // Craft a perfectly symmetric dataset: two 1v1 items cross-voted so the
  // fixed point keeps accuracies at 0.5; the run converges immediately to
  // the symmetric point and says so.
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "b").ok());
  ASSERT_TRUE(builder.AddObservation("s1", "y", "c").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "y", "d").ok());
  const Database db = builder.Build();
  AccuFusion model;
  const FusionResult r = model.Fuse(db, FusionOptions{});
  EXPECT_TRUE(r.converged());
  EXPECT_NEAR(r.prob(0, 0), 0.5, 1e-9);
  EXPECT_NEAR(r.accuracy(0), 0.5, 1e-9);
}

}  // namespace
}  // namespace veritas
