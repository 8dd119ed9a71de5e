// Tests of the sharded two-stage candidate scan (fusion/sharded_scan.h,
// DESIGN.md §5h): the coordinator merge, the shards=1 bypass, sharded vs.
// unsharded selection equality across fusion models (and Approx-MEU's
// indifference to the shard count), Approx-MEU scores over a growing
// streaming view, the empty-shard edge case, thread-count invariance of the
// sharded scan (this file is part of the concurrency suite, so the
// multi-lane cases also run under TSan), and cache identity when a new view
// is built at a recycled address.
#include "fusion/sharded_scan.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/approx_meu.h"
#include "core/meu.h"
#include "core/strategy.h"
#include "core/strategy_factory.h"
#include "data/synthetic.h"
#include "fusion/accu.h"
#include "fusion/fusion_factory.h"
#include "fusion/priors.h"
#include "model/compiled_database.h"
#include "model/database_builder.h"
#include "model/streaming_database.h"
#include "util/strings.h"

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
      const std::string item = NumberedName("i", i);
      for (int v = 0; v < 9 - i; ++v) {
        EXPECT_TRUE(
            builder.AddObservation(NumberedName("s", v), item, "a").ok());
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
// so MEU stays on the classic scan there. Approx-MEU always runs the flat
// scan, so on every model its picks must not move with the shard count.
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
  ctx.compiled = &compiled;
  ctx.fusion = &base;
  ctx.priors = &priors;
  ctx.model = model->get();
  ctx.fusion_opts = &scan_opts;
  ctx.ground_truth = &data.truth;
  ctx.delta = engine.get();

  for (const bool approx : {false, true}) {
    if (!approx && engine == nullptr) continue;
    const auto select = [&](std::size_t shards) {
      scan_opts.shards = shards;
      if (approx) return ApproxMeuStrategy(1).SelectBatch(ctx, 3);
      return MeuStrategy(1).SelectBatch(ctx, 3);
    };
    const std::vector<ItemId> flat = select(1);
    ASSERT_FALSE(flat.empty());
    for (const std::size_t shards : {2u, 4u, 7u}) {
      EXPECT_EQ(select(shards), flat)
          << (approx ? "approx_meu" : "meu") << " shards=" << shards;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ShardedSelectionTest,
                         ::testing::Values("accu", "voting", "truthfinder",
                                           "accu_copy"),
                         [](const auto& info) { return info.param; });

// A streaming session hands Approx-MEU the stream's live view, rebuilt in
// place after every changing batch. Scores against it, on a multi-lane
// scan, must equal bit for bit the scores against a fresh compile of the
// same database at every epoch, while the batches keep adding items and
// sources.
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
    const std::string item = NumberedName("i", i);
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

// ---------- Cache identity across views ----------

// QBC's ranking and the shard plans cache positional state across calls,
// keyed on the view. A view destroyed and rebuilt in the same storage (same
// address, epoch 0 again) over a different database must miss those
// caches: the same strategy instance, called without Reset(), selects
// exactly what a fresh instance selects. Sessions call Reset() before they
// run, so only direct API callers reach this path.
class ViewReuseTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ViewReuseTest, NewViewAtSameAddressMissesTheCache) {
  struct Shape {
    std::size_t items;
    std::uint64_t seed;
  };
  AccuFusion model;
  FusionOptions opts;
  opts.shards = 2;
  const PriorSet priors;
  std::optional<SyntheticDataset> data;
  std::optional<CompiledDatabase> view;
  auto reused = MakeStrategy(GetParam());
  ASSERT_TRUE(reused.ok());
  // Small, large, small again: the view shrinks and grows under the cache.
  for (const Shape shape : {Shape{60, 3}, Shape{400, 11}, Shape{60, 3}}) {
    LongTailConfig config;
    config.num_items = shape.items;
    config.num_sources = 80;
    config.seed = shape.seed;
    data.emplace(GenerateLongTail(config));
    view.emplace(data->db);
    const FusionResult fusion = model.Fuse(*view, priors, opts);
    const auto engine = DeltaFusionEngine::Create(*view, model, opts);
    ASSERT_NE(engine, nullptr);
    StrategyContext ctx;
    ctx.compiled = &*view;
    ctx.fusion = &fusion;
    ctx.priors = &priors;
    ctx.model = &model;
    ctx.fusion_opts = &opts;
    ctx.ground_truth = &data->truth;
    ctx.delta = engine.get();

    auto fresh = MakeStrategy(GetParam());
    ASSERT_TRUE(fresh.ok());
    const std::vector<ItemId> expected = (*fresh)->SelectBatch(ctx, 5);
    ASSERT_EQ(expected.size(), 5u) << shape.items << " items";
    EXPECT_EQ((*reused)->SelectBatch(ctx, 5), expected)
        << shape.items << " items, seed " << shape.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(CachingStrategies, ViewReuseTest,
                         ::testing::Values("qbc", "meu", "approx_meu"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace veritas
