// Tests of the metrics registry: instrument identity, concurrent updates,
// histogram bucket edges, snapshots and the JSON/text renderings.
#include "obs/metrics.h"
#include "test_dir.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace veritas {
namespace {

TEST(CounterTest, SameNameSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Add(2);
  b->Add(3);
  EXPECT_EQ(a->value(), 5u);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("concurrent");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&registry] {
      // Re-resolve by name per thread: the hot-path pattern caches the
      // pointer, and both must hit the same instrument.
      Counter* c = registry.GetCounter("concurrent");
      for (int i = 0; i < kAddsPerThread; ++i) c->Add(1);
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(counter->value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(GaugeTest, SetAddAndConcurrency) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("g");
  gauge->Set(1.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.5);
  gauge->Add(0.25);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.75);

  gauge->Set(0.0);
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([gauge] {
      for (int i = 0; i < 1000; ++i) gauge->Add(0.5);
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_DOUBLE_EQ(gauge->value(), 2000.0);  // CAS loop loses no update.
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("h", {1.0, 2.0, 4.0});
  // A value lands in the first bucket whose edge is >= value; above the last
  // edge it lands in the overflow bucket.
  hist->Observe(0.5);   // <= 1.0
  hist->Observe(1.0);   // == 1.0, still the first bucket
  hist->Observe(1.001); // <= 2.0
  hist->Observe(4.0);   // == 4.0, last finite bucket
  hist->Observe(100.0); // overflow
  const HistogramSnapshot snap = hist->Snapshot();
  ASSERT_EQ(snap.edges.size(), 3u);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
}

TEST(HistogramTest, WelfordMeanAndStddev) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("welford", {10.0});
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) hist->Observe(v);
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 8u);
  EXPECT_DOUBLE_EQ(snap.sum, 40.0);
  EXPECT_DOUBLE_EQ(snap.mean, 5.0);
  EXPECT_NEAR(snap.stddev, 2.0, 1e-12);  // Classic population-stddev example.
}

TEST(HistogramTest, ConcurrentObservesKeepExactCount) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("hc", {0.5});
  constexpr int kThreads = 4;
  constexpr int kObs = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([hist] {
      for (int i = 0; i < kObs; ++i) hist->Observe(1.0);
    });
  }
  for (std::thread& t : pool) t.join();
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kObs);
  EXPECT_DOUBLE_EQ(snap.mean, 1.0);
  EXPECT_DOUBLE_EQ(snap.stddev, 0.0);
}

TEST(HistogramTest, FirstGetFixesEdges) {
  MetricsRegistry registry;
  Histogram* a = registry.GetHistogram("edges", {1.0, 2.0});
  Histogram* b = registry.GetHistogram("edges", {99.0});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->Snapshot().edges, (std::vector<double>{1.0, 2.0}));
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("q.empty", {1.0});
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 0.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinTheBucket) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("q.interp", {10.0, 20.0});
  hist->Observe(5.0);
  hist->Observe(15.0);
  hist->Observe(15.0);
  hist->Observe(15.0);
  const HistogramSnapshot snap = hist->Snapshot();
  // Rank 1 of 4 falls in the first bucket [min=5, 10]; the linear
  // interpolation walks the whole single-observation bucket.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.25), 10.0);
  // Rank 2 of 4 is the first of three observations in (10, 20].
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 10.0 + 10.0 / 3.0);
  // Rank 4 interpolates to the bucket's upper edge, then clamps to max.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 15.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 15.0);
}

TEST(HistogramTest, QuantileClampsToObservedRange) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("q.clamp", {10.0});
  hist->Observe(4.0);
  hist->Observe(6.0);
  const HistogramSnapshot snap = hist->Snapshot();
  // Bucket interpolation would give 7.0 and 10.0; the true observations
  // never exceeded 6, so the estimate is clamped there.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 6.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 6.0);
  EXPECT_GE(snap.Quantile(0.0), 4.0);
}

TEST(HistogramTest, QuantileUsesMaxAsTheOverflowEdge) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("q.overflow", {1.0});
  hist->Observe(0.5);
  hist->Observe(100.0);
  const HistogramSnapshot snap = hist->Snapshot();
  // The overflow bucket has no finite edge; max stands in for it.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 100.0);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsInstruments) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Histogram* hist = registry.GetHistogram("h", {1.0});
  counter->Add(7);
  hist->Observe(0.5);
  registry.Reset();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(hist->count(), 0u);
  // The cached pointers stay valid and usable after Reset.
  counter->Add(1);
  EXPECT_EQ(registry.GetCounter("c"), counter);
  EXPECT_EQ(counter->value(), 1u);
}

TEST(MetricsSnapshotTest, ValueAndFindHistogram) {
  MetricsRegistry registry;
  registry.GetCounter("a.count")->Add(3);
  registry.GetGauge("b.gauge")->Set(2.5);
  registry.GetHistogram("c.hist", {1.0})->Observe(0.1);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Value("a.count"), 3.0);
  EXPECT_DOUBLE_EQ(snap.Value("b.gauge"), 2.5);
  EXPECT_DOUBLE_EQ(snap.Value("c.hist"), 1.0);  // Histogram count.
  EXPECT_DOUBLE_EQ(snap.Value("missing", -1.0), -1.0);
  const HistogramSnapshot* h = snap.FindHistogram("c.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(snap.FindHistogram("a.count"), nullptr);
}

TEST(MetricsSnapshotTest, JsonAndTextContainInstruments) {
  MetricsRegistry registry;
  registry.GetCounter("session.rounds")->Add(4);
  registry.GetHistogram("select_seconds", {0.1, 1.0})->Observe(0.05);
  const MetricsSnapshot snap = registry.Snapshot();
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"session.rounds\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"select_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  const std::string text = snap.ToText();
  EXPECT_NE(text.find("session.rounds"), std::string::npos);
  EXPECT_NE(text.find("select_seconds"), std::string::npos);
}

TEST(MetricsRegistryTest, WriteJsonFileRoundTripsThroughDisk) {
  MetricsRegistry registry;
  registry.GetCounter("written")->Add(1);
  const std::string path = TestPath("veritas_metrics_test.json");
  ASSERT_TRUE(registry.WriteJsonFile(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), registry.Snapshot().ToJson());
  in.close();
  std::remove(path.c_str());
}

TEST(MetricsRegistryTest, WriteJsonFileBadPathIsIoError) {
  MetricsRegistry registry;
  const Status st = registry.WriteJsonFile("/nonexistent/dir/metrics.json");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(MetricsRegistryTest, GlobalIsStable) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace veritas
