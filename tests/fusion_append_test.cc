// Append-equivalence of the streaming re-fusion: folding a stream of
// observations into a converged result with the warm-started Fuse a
// streaming session runs after every ingest tick (the warm result lags the
// database by the batch's new items, claims and sources) must land on the
// same fixed point as a cold full Fuse over the final database — per claim
// probability, per source accuracy, and total entropy — for every model the
// lookahead engine supports, including across compactions and with pins held
// through epochs. The lookahead engine's stale-view guard is checked here
// too. Lives in the concurrency binary so the read-only-lookahead-between-
// appends test runs under ThreadSanitizer in CI.
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fusion/delta_fusion.h"
#include "fusion/fusion_factory.h"
#include "fusion/fusion_result.h"
#include "fusion/priors.h"
#include "model/streaming_database.h"
#include "obs/metrics.h"

namespace veritas {
namespace {

// Warm and cold runs stop at the same convergence tolerance from different
// starting accuracies, so agreement is within the tolerance band the full
// model itself stops at — not bit-exact.
constexpr double kProbTol = 5e-5;
constexpr double kAccTol = 5e-5;
constexpr double kEntropyTol = 1e-3;

struct StreamCase {
  std::string model;
  std::string shape;
};

class AppendEquivalenceTest : public ::testing::TestWithParam<StreamCase> {};

SyntheticDataset MakeData(const std::string& shape, double revisions) {
  if (shape == "dense") {
    DenseConfig config;
    config.num_items = 80;
    config.num_sources = 20;
    config.seed = 17;
    config.emit_stream = true;
    config.revision_fraction = revisions;
    return GenerateDense(config);
  }
  LongTailConfig config;
  config.num_items = 80;
  config.num_sources = 20;
  config.seed = 17;
  config.emit_stream = true;
  config.revision_fraction = revisions;
  return GenerateLongTail(config);
}

void ExpectSameFixedPoint(const FusionResult& incremental,
                          const FusionResult& full, const Database& db) {
  ASSERT_EQ(incremental.num_items(), full.num_items());
  ASSERT_EQ(incremental.accuracies().size(), full.accuracies().size());
  for (ItemId i = 0; i < db.num_items(); ++i) {
    for (ClaimIndex k = 0; k < db.num_claims(i); ++k) {
      EXPECT_NEAR(incremental.prob(i, k), full.prob(i, k), kProbTol)
          << "item " << i << " claim " << k;
    }
  }
  for (SourceId j = 0; j < db.num_sources(); ++j) {
    EXPECT_NEAR(incremental.accuracy(j), full.accuracy(j), kAccTol)
        << "source " << j;
  }
  EXPECT_NEAR(incremental.TotalEntropy(), full.TotalEntropy(), kEntropyTol);
}

TEST_P(AppendEquivalenceTest, StreamedAppendsMatchColdRebuild) {
  const StreamCase& param = GetParam();
  const SyntheticDataset data = MakeData(param.shape, 0.03);
  auto model_or = MakeFusionModel(param.model);
  ASSERT_TRUE(model_or.ok());
  const FusionModel& model = *model_or.value();

  StreamingDatabase stream{Database()};
  FusionOptions opts;

  const PriorSet priors;
  FusionResult rolling = model.Fuse(stream.db(), priors, opts);
  VectorFeed feed(data.stream, {}, /*batch_size=*/61);
  IngestBatch batch;
  std::vector<ItemId> dirty_items;
  std::vector<SourceId> dirty_sources;
  while (feed.Next(&batch)) {
    ASSERT_TRUE(stream.AppendBatch(batch).ok());
    stream.TakeDirty(&dirty_items, &dirty_sources);
    if (dirty_items.empty() && dirty_sources.empty()) continue;
    rolling = model.Fuse(stream.db(), priors, opts, &rolling);
    ASSERT_TRUE(rolling.AllFinite());
  }

  const FusionResult full = model.Fuse(stream.db(), priors, opts);
  ExpectSameFixedPoint(rolling, full, stream.db());
}

TEST_P(AppendEquivalenceTest, PinsSurviveAppendsAndCompaction) {
  const StreamCase& param = GetParam();
  const SyntheticDataset data = MakeData(param.shape, 0.0);
  auto model_or = MakeFusionModel(param.model);
  ASSERT_TRUE(model_or.ok());
  const FusionModel& model = *model_or.value();

  StreamingDatabase stream{Database()};
  FusionOptions opts;

  PriorSet priors;
  FusionResult rolling = model.Fuse(stream.db(), priors, opts);
  VectorFeed feed(data.stream, {}, /*batch_size=*/83);
  IngestBatch batch;
  std::vector<ItemId> dirty_items;
  std::vector<SourceId> dirty_sources;
  std::size_t ticks = 0;
  ItemId pinned = kInvalidItem;
  while (feed.Next(&batch)) {
    ASSERT_TRUE(stream.AppendBatch(batch).ok());
    stream.TakeDirty(&dirty_items, &dirty_sources);
    // Pins acquired earlier must be zero-extended when their item grows.
    priors.ExtendForNewClaims(stream.db());
    if (!(dirty_items.empty() && dirty_sources.empty())) {
      rolling = model.Fuse(stream.db(), priors, opts, &rolling);
    }
    ++ticks;
    if (ticks == 2) {
      // Validate the first conflicting item one-hot on its first claim,
      // mid-stream, then keep streaming across a compaction.
      for (ItemId i = 0; i < stream.db().num_items(); ++i) {
        if (stream.db().HasConflict(i)) {
          pinned = i;
          break;
        }
      }
      ASSERT_NE(pinned, kInvalidItem);
      std::vector<double> pin(stream.db().num_claims(pinned), 0.0);
      pin[0] = 1.0;
      ASSERT_TRUE(priors.SetDistribution(stream.db(), pinned, pin).ok());
      rolling = model.Fuse(stream.db(), priors, opts, &rolling);
      ASSERT_TRUE(rolling.AllFinite());
    }
    if (ticks == 3) {
      stream.Compact();  // Epoch bump; the rolling result stays shape-valid.
    }
  }

  const FusionResult full = model.Fuse(stream.db(), priors, opts);
  ExpectSameFixedPoint(rolling, full, stream.db());
  // The pin itself is intact (zero-extended if the item grew).
  ASSERT_TRUE(priors.Has(pinned));
  EXPECT_NEAR(rolling.prob(pinned, 0), 1.0, kProbTol);
  for (ClaimIndex k = 1; k < stream.db().num_claims(pinned); ++k) {
    EXPECT_NEAR(rolling.prob(pinned, k), 0.0, kProbTol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndShapes, AppendEquivalenceTest,
    ::testing::Values(StreamCase{"accu", "dense"},
                      StreamCase{"accu", "longtail"},
                      StreamCase{"voting", "dense"},
                      StreamCase{"voting", "longtail"},
                      StreamCase{"truthfinder", "dense"},
                      StreamCase{"truthfinder", "longtail"}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return info.param.model + "_" + info.param.shape;
    });

TEST(StaleViewTest, LookaheadOnStaleBaseDegradesAndCounts) {
  const SyntheticDataset data = MakeData("dense", 0.0);
  StreamingDatabase stream{data.db};
  auto model_or = MakeFusionModel("accu");
  ASSERT_TRUE(model_or.ok());
  FusionOptions opts;
  const auto engine = DeltaFusionEngine::Create(stream, *model_or.value(), opts);
  ASSERT_NE(engine, nullptr);

  const PriorSet priors;
  const FusionResult fused = model_or.value()->Fuse(stream.db(), priors, opts);
  const DeltaFusionEngine::BaseState base = engine->PrepareBase(fused);
  EXPECT_EQ(base.epoch, stream.epoch());

  ItemId conflicted = kInvalidItem;
  for (ItemId i = 0; i < stream.db().num_items(); ++i) {
    if (stream.db().HasConflict(i)) {
      conflicted = i;
      break;
    }
  }
  ASSERT_NE(conflicted, kInvalidItem);

  DeltaFusionEngine::Workspace ws;
  const double live =
      engine->EntropyAfterExactPin(base, ws, priors, conflicted, 0);
  EXPECT_NE(live, base.total_entropy);  // A real lookahead moved the entropy.

  // Appending invalidates every BaseState derived from the old epoch.
  IngestBatch batch;
  batch.observations.push_back({"fresh_source", "item0000", "streamed", 0.0});
  ASSERT_TRUE(stream.AppendBatch(batch).ok());

  Counter* violations = MetricsRegistry::Global().GetCounter(
      "delta.stale_view_violations");
  const std::uint64_t before = violations->value();
  // Release builds (all presets define NDEBUG) degrade instead of asserting:
  // the lookahead returns the base entropy unchanged and counts the hazard.
  const double stale =
      engine->EntropyAfterExactPin(base, ws, priors, conflicted, 0);
  EXPECT_EQ(stale, base.total_entropy);
  EXPECT_EQ(violations->value(), before + 1);
}

TEST(StaleViewTest, ParallelLookaheadsBetweenAppendsAreRaceFree) {
  // The documented contract: parallel read-only lookahead workers only run
  // between ingest ticks. This drives exactly that interleaving so TSan can
  // vet the const paths (shared CompiledDatabase view, shared BaseState,
  // per-thread workspaces).
  const SyntheticDataset data = MakeData("dense", 0.0);
  StreamingDatabase stream{data.db};
  auto model_or = MakeFusionModel("accu");
  ASSERT_TRUE(model_or.ok());
  FusionOptions opts;
  const auto engine = DeltaFusionEngine::Create(stream, *model_or.value(), opts);
  ASSERT_NE(engine, nullptr);

  const PriorSet priors;
  FusionResult rolling = model_or.value()->Fuse(stream.db(), priors, opts);

  std::vector<ItemId> conflicted;
  for (ItemId i = 0; i < stream.db().num_items(); ++i) {
    if (stream.db().HasConflict(i)) conflicted.push_back(i);
  }
  ASSERT_GE(conflicted.size(), 4u);

  for (int round = 0; round < 3; ++round) {
    const DeltaFusionEngine::BaseState base = engine->PrepareBase(rolling);
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&, w] {
        DeltaFusionEngine::Workspace ws;
        for (std::size_t c = w; c < conflicted.size(); c += 4) {
          const double entropy = engine->EntropyAfterExactPin(
              base, ws, priors, conflicted[c], 0);
          ASSERT_TRUE(entropy == entropy);  // Not NaN.
        }
      });
    }
    for (std::thread& t : workers) t.join();

    // Single-writer ingest tick between scans.
    IngestBatch batch;
    batch.observations.push_back({"streamer_" + std::to_string(round),
                                  stream.db().item(conflicted[0]).name,
                                  "late_claim_" + std::to_string(round), 0.0});
    ASSERT_TRUE(stream.AppendBatch(batch).ok());
    rolling = model_or.value()->Fuse(stream.db(), priors, opts, &rolling);
  }
  ASSERT_TRUE(rolling.AllFinite());
}

}  // namespace
}  // namespace veritas
