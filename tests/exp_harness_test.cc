// Tests of the experiment harness (curve runner, scale presets, reporting).
#include "exp/harness.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/strategy_factory.h"
#include "data/example_data.h"
#include "exp/report.h"
#include "exp/scale.h"
#include "fusion/accu.h"
#include "test_dir.h"

namespace veritas {
namespace {

TEST(StrategyFactoryTest, AllAdvertisedNamesConstruct) {
  for (const std::string& name : StrategyNames()) {
    auto strategy = MakeStrategy(name);
    ASSERT_TRUE(strategy.ok()) << name;
    EXPECT_FALSE((*strategy)->name().empty());
  }
}

TEST(StrategyFactoryTest, HybridParsesPercent) {
  auto strategy = MakeStrategy("approx_meu_k:15");
  ASSERT_TRUE(strategy.ok());
  EXPECT_EQ((*strategy)->name(), "approx_meu_k:15");
}

TEST(StrategyFactoryTest, HybridRejectsBadPercent) {
  EXPECT_EQ(MakeStrategy("approx_meu_k:0").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeStrategy("approx_meu_k:150").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeStrategy("approx_meu_k:abc").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StrategyFactoryTest, UnknownName) {
  EXPECT_EQ(MakeStrategy("skynet").status().code(), StatusCode::kNotFound);
}

TEST(SampleCurveTest, PicksStepsAtFractions) {
  SessionTrace trace;
  trace.initial_distance = 1.0;
  trace.initial_uncertainty = 2.0;
  for (std::size_t n = 1; n <= 10; ++n) {
    SessionStep step;
    step.num_validated = n;
    step.distance = 1.0 - 0.1 * static_cast<double>(n);
    step.uncertainty = 2.0 - 0.2 * static_cast<double>(n);
    trace.steps.push_back(step);
  }
  const auto points = SampleCurve(trace, /*conflicting=*/10, {0.2, 0.5, 1.0});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].validated, 2u);
  EXPECT_EQ(points[1].validated, 5u);
  EXPECT_EQ(points[2].validated, 10u);
  EXPECT_NEAR(points[0].distance_reduction_pct, -20.0, 1e-9);
  EXPECT_NEAR(points[2].distance_reduction_pct, -100.0, 1e-9);
  EXPECT_NEAR(points[1].uncertainty_reduction_pct, -50.0, 1e-9);
}

TEST(SampleCurveTest, ShortTraceSamplesLastStep) {
  SessionTrace trace;
  trace.initial_distance = 1.0;
  SessionStep step;
  step.num_validated = 3;
  step.distance = 0.7;
  trace.steps.push_back(step);
  const auto points = SampleCurve(trace, 100, {0.5});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].validated, 3u);
}

TEST(SampleCurveTest, ZeroFractionReportsBaseline) {
  SessionTrace trace;
  trace.initial_distance = 1.0;
  trace.initial_uncertainty = 2.0;
  SessionStep step;
  step.num_validated = 4;
  step.distance = 0.5;
  step.uncertainty = 1.0;
  trace.steps.push_back(step);
  const auto points = SampleCurve(trace, /*conflicting=*/10, {0.0, 0.4});
  ASSERT_EQ(points.size(), 2u);
  // x = 0 is the pre-feedback baseline, not the state after the first batch.
  EXPECT_EQ(points[0].validated, 0u);
  EXPECT_EQ(points[0].distance_reduction_pct, 0.0);
  EXPECT_EQ(points[0].uncertainty_reduction_pct, 0.0);
  EXPECT_EQ(points[1].validated, 4u);
  EXPECT_NEAR(points[1].distance_reduction_pct, -50.0, 1e-9);
}

TEST(SampleCurveTest, EmptyTrace) {
  SessionTrace trace;
  const auto points = SampleCurve(trace, 10, {0.5});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].validated, 0u);
}

TEST(RunCurveTest, BudgetBoundByMaxFraction) {
  const Database db = MakeMovieDatabase();
  const GroundTruth truth = MakeMovieGroundTruth(db);
  AccuFusion model;
  CurveOptions options;
  options.report_fractions = {0.2, 0.4};  // 40% of 5 conflicting -> 2 items.
  const auto curve = RunCurvePerfect(db, truth, model, "qbc", options);
  ASSERT_TRUE(curve.ok());
  EXPECT_EQ(curve->trace.steps.back().num_validated, 2u);
  EXPECT_EQ(curve->points.size(), 2u);
}

TEST(RunCurveTest, LeadingZeroFractionYieldsBaselinePoint) {
  const Database db = MakeMovieDatabase();
  const GroundTruth truth = MakeMovieGroundTruth(db);
  AccuFusion model;
  CurveOptions options;
  options.report_fractions = {0.0, 0.4};
  const auto curve = RunCurvePerfect(db, truth, model, "qbc", options);
  ASSERT_TRUE(curve.ok());
  ASSERT_EQ(curve->points.size(), 2u);
  EXPECT_EQ(curve->points[0].validated, 0u);
  EXPECT_EQ(curve->points[0].distance_reduction_pct, 0.0);
  EXPECT_GT(curve->points[1].validated, 0u);
}

TEST(RunCurveTest, UnknownStrategyPropagates) {
  const Database db = MakeMovieDatabase();
  const GroundTruth truth = MakeMovieGroundTruth(db);
  AccuFusion model;
  const auto curve =
      RunCurvePerfect(db, truth, model, "bogus", CurveOptions{});
  EXPECT_EQ(curve.status().code(), StatusCode::kNotFound);
}

TEST(RunCurveTest, DeterministicForSeed) {
  const Database db = MakeMovieDatabase();
  const GroundTruth truth = MakeMovieGroundTruth(db);
  AccuFusion model;
  CurveOptions options;
  options.report_fractions = {1.0};
  options.seed = 9;
  const auto a = RunCurvePerfect(db, truth, model, "random", options);
  const auto b = RunCurvePerfect(db, truth, model, "random", options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->trace.steps.size(), b->trace.steps.size());
  for (std::size_t i = 0; i < a->trace.steps.size(); ++i) {
    EXPECT_EQ(a->trace.steps[i].items, b->trace.steps[i].items);
  }
}

TEST(ScaleTest, DefaultIsSmall) {
  unsetenv("VERITAS_SCALE");
  EXPECT_EQ(GetScaleMode(), ScaleMode::kSmall);
}

TEST(ScaleTest, EnvOverrides) {
  setenv("VERITAS_SCALE", "paper", 1);
  EXPECT_EQ(GetScaleMode(), ScaleMode::kPaper);
  setenv("VERITAS_SCALE", "MEDIUM", 1);
  EXPECT_EQ(GetScaleMode(), ScaleMode::kMedium);
  setenv("VERITAS_SCALE", "garbage", 1);
  EXPECT_EQ(GetScaleMode(), ScaleMode::kSmall);
  unsetenv("VERITAS_SCALE");
}

TEST(ScaleTest, ModeNames) {
  EXPECT_EQ(ScaleModeName(ScaleMode::kSmall), "small");
  EXPECT_EQ(ScaleModeName(ScaleMode::kMedium), "medium");
  EXPECT_EQ(ScaleModeName(ScaleMode::kPaper), "paper");
}

TEST(ScaleTest, PresetsGenerateNamedDatasets) {
  const NamedDataset books = MakeBooksLike(ScaleMode::kSmall);
  EXPECT_EQ(books.name, "Books-like");
  EXPECT_EQ(books.data.db.num_items(), 300u);
  const NamedDataset flights = MakeFlightsDayLike(ScaleMode::kSmall);
  EXPECT_EQ(flights.data.db.num_sources(), 38u);
  const NamedDataset population = MakePopulationLike(ScaleMode::kSmall);
  EXPECT_GT(population.data.db.num_items(), 1000u);
}

TEST(ReportTest, TextTableAlignsAndCounts) {
  TextTable table({"a", "long-header", "c"});
  table.AddRow({"1", "2", "3"});
  table.AddRow({"wide-cell", "x"});  // Short row padded.
  EXPECT_EQ(table.num_rows(), 2u);
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(ReportTest, CsvOutput) {
  TextTable table({"x", "y"});
  table.AddRow({"1", "two words"});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "x,y\n1,two words\n");
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(Pct(12.345), "12.3%");
  EXPECT_EQ(Pct(12.345, 2), "12.35%");
  EXPECT_EQ(Num(1.23456, 2), "1.23");
  EXPECT_EQ(Secs(0.00123), "0.00123 s");
  EXPECT_EQ(Secs(0.123), "0.1230 s");
  EXPECT_EQ(Secs(12.3), "12.30 s");
}

TEST(ReportTest, MaybeExportCsvRespectsEnv) {
  TextTable table({"a", "b"});
  table.AddRow({"1", "2"});
  unsetenv("VERITAS_CSV_DIR");
  EXPECT_FALSE(MaybeExportCsv("report_test", table));
  const std::string dir = TestDir();
  setenv("VERITAS_CSV_DIR", dir.c_str(), 1);
  EXPECT_TRUE(MaybeExportCsv("report_test", table));
  unsetenv("VERITAS_CSV_DIR");
  const std::string path = dir + "/report_test.csv";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  in.close();
  std::remove(path.c_str());
}

TEST(ReportTest, MaybeExportCsvBadDirectoryFailsGracefully) {
  TextTable table({"a"});
  setenv("VERITAS_CSV_DIR", "/no/such/dir", 1);
  EXPECT_FALSE(MaybeExportCsv("report_test", table));
  unsetenv("VERITAS_CSV_DIR");
}

TEST(ReportTest, Banner) {
  std::ostringstream os;
  PrintBanner(os, "Figure 3");
  EXPECT_NE(os.str().find("Figure 3"), std::string::npos);
  EXPECT_NE(os.str().find("====="), std::string::npos);
}

}  // namespace
}  // namespace veritas
