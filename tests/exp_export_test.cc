// Tests of the CSV export of traces, curves and fusion outputs.
#include "exp/export.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "core/qbc.h"
#include "data/example_data.h"
#include "fusion/accu.h"
#include "util/csv.h"
#include "test_dir.h"

namespace veritas {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("veritas_export.csv");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  SessionTrace MakeTrace() {
    QbcStrategy strategy;
    PerfectOracle oracle;
    SessionOptions options;
    Rng rng(1);
    FeedbackSession session(db_, model_, &strategy, &oracle, truth_,
                            options, &rng);
    auto trace = session.Run();
    EXPECT_TRUE(trace.ok());
    return std::move(trace).value();
  }

  Database db_ = MakeMovieDatabase();
  GroundTruth truth_ = MakeMovieGroundTruth(db_);
  AccuFusion model_;
  std::string path_;
};

TEST_F(ExportTest, TraceCsvRoundTrips) {
  const SessionTrace trace = MakeTrace();
  ASSERT_TRUE(WriteTraceCsv(trace, db_, path_).ok());
  const auto rows = ReadCsvFile(path_);
  ASSERT_TRUE(rows.ok());
  // Header + baseline row + one row per step.
  ASSERT_EQ(rows->size(), 2 + trace.steps.size());
  EXPECT_EQ((*rows)[0][0], "step");
  // Baseline row carries the initial metrics.
  EXPECT_EQ((*rows)[1][1], "0");
  EXPECT_NEAR(std::stod((*rows)[1][3]), trace.initial_distance, 1e-6);
  // Final row reaches -100% distance reduction (perfect oracle, full run).
  EXPECT_NEAR(std::stod(rows->back()[7]), -100.0, 1e-3);
  // Item names are resolvable.
  EXPECT_FALSE(rows->back()[2].empty());
}

TEST_F(ExportTest, TraceCsvBatchItemsJoined) {
  QbcStrategy strategy;
  PerfectOracle oracle;
  SessionOptions options;
  options.batch_size = 2;
  Rng rng(1);
  FeedbackSession session(db_, model_, &strategy, &oracle, truth_, options,
                          &rng);
  auto trace = session.Run();
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(WriteTraceCsv(*trace, db_, path_).ok());
  const auto rows = ReadCsvFile(path_);
  ASSERT_TRUE(rows.ok());
  // The first step validated two items joined with '|'.
  EXPECT_NE((*rows)[2][2].find('|'), std::string::npos);
}

TEST_F(ExportTest, CurvesCsvLongFormat) {
  CurveResult a;
  a.strategy = "qbc";
  a.mean_select_seconds = 0.001;
  a.points = {{0.05, 3, -10.0, -12.0}, {0.10, 6, -20.0, -25.0}};
  CurveResult b;
  b.strategy = "us";
  b.points = {{0.05, 3, -8.0, -9.0}};
  ASSERT_TRUE(WriteCurvesCsv({a, b}, path_).ok());
  const auto rows = ReadCsvFile(path_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);  // Header + 2 + 1.
  EXPECT_EQ((*rows)[1][0], "qbc");
  EXPECT_EQ((*rows)[3][0], "us");
  EXPECT_NEAR(std::stod((*rows)[2][3]), -20.0, 1e-9);
}

TEST_F(ExportTest, FusionCsvMarksWinners) {
  const FusionResult fused = model_.Fuse(db_, FusionOptions{});
  ASSERT_TRUE(WriteFusionCsv(db_, fused, path_).ok());
  const auto rows = ReadCsvFile(path_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1 + db_.num_claims());
  // Exactly one winner per item.
  std::map<std::string, int> winners;
  for (std::size_t r = 1; r < rows->size(); ++r) {
    if ((*rows)[r][3] == "1") ++winners[(*rows)[r][0]];
  }
  EXPECT_EQ(winners.size(), db_.num_items());
  for (const auto& [item, count] : winners) EXPECT_EQ(count, 1) << item;
}

TEST_F(ExportTest, BadPathFails) {
  const SessionTrace trace = MakeTrace();
  EXPECT_EQ(WriteTraceCsv(trace, db_, "/no/such/dir/x.csv").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace veritas
