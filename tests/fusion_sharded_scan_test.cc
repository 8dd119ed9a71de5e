// Tests of the sharded two-stage candidate scan (fusion/sharded_scan.h,
// DESIGN.md §5h): the coordinator merge, the shards=1 bypass, sharded vs.
// unsharded selection equality across fusion models, Approx-MEU scores over
// a growing streaming view, the empty-shard edge case, and thread-count
// invariance of the sharded scan (this file is part of the concurrency
// suite, so the multi-lane cases also run under TSan).
#include "fusion/sharded_scan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/approx_meu.h"
#include "core/meu.h"
#include "core/strategy.h"
#include "data/synthetic.h"
#include "fusion/accu.h"
#include "fusion/fusion_factory.h"
#include "fusion/priors.h"
#include "model/compiled_database.h"
#include "model/database_builder.h"
#include "model/streaming_database.h"

namespace veritas {
namespace {

// ---------- Coordinator merge ----------

// A hand-built database whose partition is easy to reason about: the merge
// tests only need the shard map, not realistic fusion state.
struct MergeFixture {
  MergeFixture() {
    DatabaseBuilder builder;
    // 8 contested items, 2 claims each; per-item vote counts descend with
    // the item id so LPT assignment is exercised.
    for (int i = 0; i < 8; ++i) {
      const std::string item = "i" + std::to_string(i);
      for (int v = 0; v < 9 - i; ++v) {
        EXPECT_TRUE(
            builder.AddObservation("s" + std::to_string(v), item, "a").ok());
      }
      EXPECT_TRUE(builder.AddObservation("sx", item, "b").ok());
    }
    db = builder.Build();
    compiled = std::make_unique<CompiledDatabase>(db);
  }
  Database db;
  std::unique_ptr<CompiledDatabase> compiled;
};

TEST(MergeTopCandidatesTest, KeepsPerShardTopQuotaInAscendingIdOrder) {
  const MergeFixture fx;
  const ShardPartition partition(*fx.compiled, 2);
  std::vector<ItemId> candidates;
  std::vector<double> estimates;
  for (ItemId i = 0; i < fx.db.num_items(); ++i) {
    candidates.push_back(i);
    estimates.push_back(static_cast<double>(i));  // Higher id = better.
  }
  const std::vector<ItemId> pool =
      MergeTopCandidatesPerShard(candidates, estimates, partition, 2);
  // Two shards, quota 2 each: the two highest-estimate items of each shard.
  ASSERT_EQ(pool.size(), 4u);
  EXPECT_TRUE(std::is_sorted(pool.begin(), pool.end()));
  std::vector<std::vector<ItemId>> kept(partition.num_shards());
  for (const ItemId i : pool) kept[partition.shard_of(i)].push_back(i);
  for (std::size_t s = 0; s < partition.num_shards(); ++s) {
    ASSERT_EQ(kept[s].size(), 2u) << "shard " << s;
    // Estimates ascend with the id here, so each shard keeps its two
    // highest-id items.
    const std::vector<ItemId>& owned = partition.items(s);
    EXPECT_EQ(kept[s][0], owned[owned.size() - 2]);
    EXPECT_EQ(kept[s][1], owned[owned.size() - 1]);
  }
}

TEST(MergeTopCandidatesTest, TiesBreakTowardLowerItemId) {
  const MergeFixture fx;
  const ShardPartition partition(*fx.compiled, 1);
  const std::vector<ItemId> candidates = {0, 1, 2, 3};
  const std::vector<double> estimates = {1.0, 1.0, 1.0, 1.0};
  const std::vector<ItemId> pool =
      MergeTopCandidatesPerShard(candidates, estimates, partition, 2);
  EXPECT_EQ(pool, (std::vector<ItemId>{0, 1}));
}

TEST(MergeTopCandidatesTest, QuotaLargerThanShardKeepsEverything) {
  const MergeFixture fx;
  const ShardPartition partition(*fx.compiled, 4);
  std::vector<ItemId> candidates;
  std::vector<double> estimates;
  for (ItemId i = 0; i < fx.db.num_items(); ++i) {
    candidates.push_back(i);
    estimates.push_back(0.5);
  }
  const std::vector<ItemId> pool =
      MergeTopCandidatesPerShard(candidates, estimates, partition, 100);
  EXPECT_EQ(pool, candidates);
}

TEST(MergeTopCandidatesTest, CandidateSubsetOnly) {
  // Items missing from `candidates` (validated, singleton, …) never surface
  // in the pool, whatever their shard.
  const MergeFixture fx;
  const ShardPartition partition(*fx.compiled, 2);
  const std::vector<ItemId> candidates = {1, 4, 6};
  const std::vector<double> estimates = {3.0, 2.0, 1.0};
  const std::vector<ItemId> pool =
      MergeTopCandidatesPerShard(candidates, estimates, partition, 8);
  EXPECT_EQ(pool, candidates);
}

// ---------- End-to-end selection equality ----------

// The param is the model name as a plain string: gtest prints it by value,
// so the discovered test names are the same in every build. (A struct
// without a PrintTo is printed as raw bytes, and std::string's data pointer
// would put a heap address into the name.)
class ShardedSelectionTest : public ::testing::TestWithParam<std::string> {};

// The sharded scan must select exactly what the classic scan selects —
// the bench enforces this at the million-item scale; here it runs at test
// size for MEU on every delta-capable model. AccuCopy has no delta engine,
// so MEU stays on the classic scan there; Approx-MEU shards from the
// compiled view alone, and is checked on that model instead.
TEST_P(ShardedSelectionTest, ShardedMatchesUnsharded) {
  LongTailConfig config;
  config.num_items = 400;
  config.num_sources = 150;
  config.avg_votes_per_item = 8.0;
  config.seed = 11;
  const SyntheticDataset data = GenerateLongTail(config);
  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok());
  FusionOptions opts;
  const FusionResult base = (*model)->Fuse(data.db, PriorSet(), opts);
  const CompiledDatabase compiled(data.db);
  const auto engine = DeltaFusionEngine::Create(compiled, **model, opts);
  ASSERT_EQ(engine == nullptr, GetParam() == "accu_copy");

  const PriorSet priors;
  FusionOptions scan_opts = opts;
  StrategyContext ctx;
  ctx.db = &data.db;
  ctx.compiled = &compiled;
  ctx.fusion = &base;
  ctx.priors = &priors;
  ctx.model = model->get();
  ctx.fusion_opts = &scan_opts;
  ctx.ground_truth = &data.truth;
  ctx.delta = engine.get();

  const auto select = [&](std::size_t shards) {
    scan_opts.shards = shards;
    if (engine == nullptr) return ApproxMeuStrategy(1).SelectBatch(ctx, 3);
    return MeuStrategy(1).SelectBatch(ctx, 3);
  };
  const std::vector<ItemId> flat = select(1);
  ASSERT_FALSE(flat.empty());
  for (const std::size_t shards : {2u, 4u, 7u}) {
    EXPECT_EQ(select(shards), flat) << "shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ShardedSelectionTest,
                         ::testing::Values("accu", "voting", "truthfinder",
                                           "accu_copy"),
                         [](const auto& info) { return info.param; });

// A streaming session hands Approx-MEU the stream's live view, rebuilt in
// place after every changing batch. Scores against it — unconfined and
// shard-confined, on a multi-lane scan — must equal bit for bit the scores
// against a fresh compile of the same database at every epoch, while the
// batches keep adding items and sources.
TEST(ShardedSelectionTest, GrowingViewScoresMatchFreshView) {
  DenseConfig config;
  config.num_items = 120;
  config.num_sources = 16;
  config.density = 0.5;
  config.seed = 5;
  config.emit_stream = true;
  SyntheticDataset data = GenerateDense(config);
  StreamingDatabase stream{Database()};
  VectorFeed feed(std::move(data.stream), std::move(data.truth_stream),
                  /*batch_size=*/96);
  AccuFusion model;
  const FusionOptions opts;
  const PriorSet priors;
  CandidateScan scan(/*num_threads=*/2);

  std::size_t scored = 0;
  std::size_t items_seen = 0;
  std::size_t sources_seen = 0;
  bool items_grew = false;
  bool sources_grew = false;
  IngestBatch batch;
  while (feed.Next(&batch)) {
    ASSERT_TRUE(stream.AppendBatch(batch).ok());
    const FusionResult fusion = model.Fuse(stream.db(), priors, opts);
    const CompiledDatabase fresh(stream.db());
    StrategyContext live;
    live.db = &stream.db();
    live.compiled = &stream.compiled();
    live.fusion = &fusion;
    live.priors = &priors;
    live.model = &model;
    live.fusion_opts = &opts;
    StrategyContext rebuilt = live;
    rebuilt.compiled = &fresh;

    const std::vector<ItemId> candidates = CandidateItems(live);
    if (candidates.empty()) continue;
    const std::uint64_t epoch = stream.epoch();
    EXPECT_EQ(
        ApproxMeuStrategy::ScoreCandidates(live, candidates, nullptr, &scan),
        ApproxMeuStrategy::ScoreCandidates(rebuilt, candidates, nullptr,
                                           &scan))
        << "epoch " << epoch;
    const ShardPartition live_partition(stream.compiled(), 3);
    const ShardPartition fresh_partition(fresh, 3);
    EXPECT_EQ(ApproxMeuStrategy::ScoreCandidates(live, candidates, nullptr,
                                                 &scan, &live_partition),
              ApproxMeuStrategy::ScoreCandidates(rebuilt, candidates, nullptr,
                                                 &scan, &fresh_partition))
        << "epoch " << epoch;
    if (scored > 0) {
      items_grew |= stream.db().num_items() > items_seen;
      sources_grew |= stream.db().num_sources() > sources_seen;
    }
    items_seen = stream.db().num_items();
    sources_seen = stream.db().num_sources();
    ++scored;
  }
  EXPECT_GT(scored, 2u);
  EXPECT_TRUE(items_grew);
  EXPECT_TRUE(sources_grew);
}

TEST(ShardedSelectionTest, MoreShardsThanItems) {
  // Every populated shard holds one item; the rest are empty and must be
  // skipped cleanly by both the confined scan and the merge.
  DatabaseBuilder builder;
  for (int i = 0; i < 3; ++i) {
    const std::string item = "i" + std::to_string(i);
    ASSERT_TRUE(builder.AddObservation("s0", item, "a").ok());
    ASSERT_TRUE(builder.AddObservation("s1", item, "a").ok());
    ASSERT_TRUE(builder.AddObservation("s2", item, "b").ok());
  }
  const Database db = builder.Build();
  AccuFusion model;
  FusionOptions opts;
  const FusionResult base = model.Fuse(db, PriorSet(), opts);
  const CompiledDatabase compiled(db);
  const auto engine = DeltaFusionEngine::Create(compiled, model, opts);
  ASSERT_NE(engine, nullptr);

  const PriorSet priors;
  StrategyContext ctx;
  ctx.db = &db;
  ctx.compiled = &compiled;
  ctx.fusion = &base;
  ctx.priors = &priors;
  ctx.model = &model;
  ctx.delta = engine.get();

  FusionOptions unsharded = opts;
  unsharded.shards = 1;
  ctx.fusion_opts = &unsharded;
  MeuStrategy flat_meu;
  const std::vector<ItemId> flat = flat_meu.SelectBatch(ctx, 2);

  FusionOptions sharded = opts;
  sharded.shards = 16;
  ctx.fusion_opts = &sharded;
  MeuStrategy meu;
  EXPECT_EQ(meu.SelectBatch(ctx, 2), flat);
}

// ---------- Thread-count invariance (TSan target) ----------

TEST(ShardedSelectionTest, ThreadCountDoesNotChangeShardedSelections) {
  LongTailConfig config;
  config.num_items = 300;
  config.num_sources = 120;
  config.avg_votes_per_item = 8.0;
  config.seed = 23;
  const SyntheticDataset data = GenerateLongTail(config);
  AccuFusion model;
  FusionOptions opts;
  opts.shards = 4;
  const FusionResult base = model.Fuse(data.db, PriorSet(), opts);
  const CompiledDatabase compiled(data.db);
  const auto engine = DeltaFusionEngine::Create(compiled, model, opts);
  ASSERT_NE(engine, nullptr);

  const PriorSet priors;
  StrategyContext ctx;
  ctx.db = &data.db;
  ctx.compiled = &compiled;
  ctx.fusion = &base;
  ctx.priors = &priors;
  ctx.model = &model;
  ctx.ground_truth = &data.truth;
  ctx.delta = engine.get();
  ctx.fusion_opts = &opts;

  MeuStrategy serial(/*num_threads=*/1);
  const std::vector<ItemId> expected = serial.SelectBatch(ctx, 3);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    MeuStrategy meu(threads);
    EXPECT_EQ(meu.SelectBatch(ctx, 3), expected) << "threads=" << threads;
    // A second round reuses the seed ranking and the cached shard plan.
    EXPECT_EQ(meu.SelectBatch(ctx, 3), expected) << "threads=" << threads;
  }
}

// ---------- Approx-MEU pooled confined stage 1 ----------

TEST(ShardedSelectionTest, ConfinedScoreMatchesPerShardImpactFilter) {
  // The confinement predicate (one pooled pass over all candidates) must
  // reproduce bit-for-bit the per-shard impact_filter scores it replaced.
  LongTailConfig config;
  config.num_items = 200;
  config.num_sources = 80;
  config.avg_votes_per_item = 6.0;
  config.seed = 7;
  const SyntheticDataset data = GenerateLongTail(config);
  AccuFusion model;
  FusionOptions opts;
  const FusionResult base = model.Fuse(data.db, PriorSet(), opts);
  const CompiledDatabase compiled(data.db);
  const auto engine = DeltaFusionEngine::Create(compiled, model, opts);
  ASSERT_NE(engine, nullptr);

  const PriorSet priors;
  StrategyContext ctx;
  ctx.db = &data.db;
  ctx.compiled = &compiled;
  ctx.fusion = &base;
  ctx.priors = &priors;
  ctx.model = &model;
  ctx.delta = engine.get();

  const std::vector<ItemId> candidates = CandidateItems(ctx);
  ASSERT_FALSE(candidates.empty());
  const ShardPartition partition(compiled, 3);
  const std::vector<double> confined = ApproxMeuStrategy::ScoreCandidates(
      ctx, candidates, /*impact_filter=*/nullptr, /*pool=*/nullptr,
      &partition);
  ASSERT_EQ(confined.size(), candidates.size());

  for (std::size_t s = 0; s < partition.num_shards(); ++s) {
    std::vector<bool> in_shard(data.db.num_items(), false);
    for (ItemId i = 0; i < data.db.num_items(); ++i) {
      in_shard[i] = partition.shard_of(i) == s;
    }
    std::vector<ItemId> bucket;
    std::vector<double> expected;
    for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
      if (partition.shard_of(candidates[idx]) != s) continue;
      bucket.push_back(candidates[idx]);
      expected.push_back(confined[idx]);
    }
    const std::vector<double> filtered = ApproxMeuStrategy::ScoreCandidates(
        ctx, bucket, &in_shard, /*pool=*/nullptr);
    EXPECT_EQ(filtered, expected) << "shard " << s;
  }
}

TEST(ShardedSelectionTest, ApproxMeuShardThreadInvariance) {
  // Selections are bit-identical across thread counts at every shard count:
  // stage-1 gains land in disjoint slots and confinement is a pure function
  // of the partition, so pooling candidates of different shards together
  // cannot perturb the merge or the stage-2 re-score.
  LongTailConfig config;
  config.num_items = 300;
  config.num_sources = 120;
  config.avg_votes_per_item = 8.0;
  config.seed = 31;
  const SyntheticDataset data = GenerateLongTail(config);
  AccuFusion model;
  FusionOptions opts;
  const FusionResult base = model.Fuse(data.db, PriorSet(), opts);
  const CompiledDatabase compiled(data.db);
  const auto engine = DeltaFusionEngine::Create(compiled, model, opts);
  ASSERT_NE(engine, nullptr);

  const PriorSet priors;
  StrategyContext ctx;
  ctx.db = &data.db;
  ctx.compiled = &compiled;
  ctx.fusion = &base;
  ctx.priors = &priors;
  ctx.model = &model;
  ctx.ground_truth = &data.truth;
  ctx.delta = engine.get();

  for (const std::size_t shards : {2u, 4u, 7u}) {
    FusionOptions sharded = opts;
    sharded.shards = shards;
    ctx.fusion_opts = &sharded;
    ApproxMeuStrategy serial(/*num_threads=*/1);
    const std::vector<ItemId> expected = serial.SelectBatch(ctx, 3);
    ASSERT_FALSE(expected.empty()) << "shards=" << shards;
    for (const std::size_t threads : {2u, 4u, 8u}) {
      ApproxMeuStrategy strategy(threads);
      EXPECT_EQ(strategy.SelectBatch(ctx, 3), expected)
          << "shards=" << shards << " threads=" << threads;
      // A second round reuses the cached shard plan.
      EXPECT_EQ(strategy.SelectBatch(ctx, 3), expected)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace veritas
