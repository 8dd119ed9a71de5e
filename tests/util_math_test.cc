#include "util/math.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace veritas {
namespace {

TEST(ClampTest, WithinBounds) {
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(Clamp(-0.1, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(1.7, 0.0, 1.0), 1.0);
}

TEST(ClampTest, ProbClamping) {
  EXPECT_DOUBLE_EQ(ClampProb(-3.0), 0.0);
  EXPECT_DOUBLE_EQ(ClampProb(0.25), 0.25);
  EXPECT_DOUBLE_EQ(ClampProb(42.0), 1.0);
}

TEST(ClampTest, AccuracyClamping) {
  EXPECT_DOUBLE_EQ(ClampAccuracy(0.5), 0.5);
  EXPECT_DOUBLE_EQ(ClampAccuracy(0.0), kMinAccuracy);
  EXPECT_DOUBLE_EQ(ClampAccuracy(1.0), kMaxAccuracy);
  EXPECT_DOUBLE_EQ(ClampAccuracy(-7.0), kMinAccuracy);
}

TEST(EntropyTest, TermConventions) {
  EXPECT_DOUBLE_EQ(EntropyTerm(0.0), 0.0);  // 0 * ln 0 == 0.
  EXPECT_DOUBLE_EQ(EntropyTerm(1.0), 0.0);
  EXPECT_GT(EntropyTerm(0.5), 0.0);
  // Out-of-range inputs are clamped, not NaN.
  EXPECT_DOUBLE_EQ(EntropyTerm(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(EntropyTerm(2.0), 0.0);
}

TEST(EntropyTest, UniformBinaryIsLn2) {
  EXPECT_NEAR(Entropy(std::vector<double>{0.5, 0.5}), std::log(2.0), 1e-12);
}

TEST(EntropyTest, PaperExample42) {
  // H_5 = -(0.079) ln(0.079) - (0.921) ln(0.921) = 0.276 (natural log).
  EXPECT_NEAR(Entropy(std::vector<double>{0.921, 0.079}), 0.276, 5e-4);
}

TEST(EntropyTest, PaperExample41VoteEntropies) {
  // H_2 = -(1/2) ln(1/2) * 2 = 0.693 and H_1 = 0.637.
  EXPECT_NEAR(Entropy(std::vector<double>{0.5, 0.5}), 0.693, 5e-4);
  EXPECT_NEAR(Entropy(std::vector<double>{1.0 / 3.0, 2.0 / 3.0}), 0.637,
              5e-4);
}

TEST(EntropyTest, DegenerateDistributionIsZero) {
  EXPECT_DOUBLE_EQ(Entropy(std::vector<double>{1.0, 0.0, 0.0}), 0.0);
}

TEST(EntropyTest, MaxEntropy) {
  EXPECT_DOUBLE_EQ(MaxEntropy(0), 0.0);
  EXPECT_DOUBLE_EQ(MaxEntropy(1), 0.0);
  EXPECT_NEAR(MaxEntropy(2), std::log(2.0), 1e-12);
  EXPECT_NEAR(MaxEntropy(10), std::log(10.0), 1e-12);
}

TEST(EntropyTest, BoundedByMaxEntropy) {
  const std::vector<double> p = {0.2, 0.3, 0.1, 0.4};
  EXPECT_LE(Entropy(p), MaxEntropy(p.size()) + 1e-12);
  EXPECT_GE(Entropy(p), 0.0);
}

TEST(LogSumExpTest, EmptyIsNegInf) {
  EXPECT_TRUE(std::isinf(LogSumExp({})));
  EXPECT_LT(LogSumExp({}), 0.0);
}

TEST(LogSumExpTest, SingleValue) {
  EXPECT_NEAR(LogSumExp({3.0}), 3.0, 1e-12);
}

TEST(LogSumExpTest, MatchesDirectComputation) {
  const std::vector<double> xs = {0.1, 1.5, -2.0};
  double direct = 0.0;
  for (double x : xs) direct += std::exp(x);
  EXPECT_NEAR(LogSumExp(xs), std::log(direct), 1e-12);
}

TEST(LogSumExpTest, StableForLargeScores) {
  // Naive exp would overflow; LSE must not.
  const double lse = LogSumExp({1000.0, 1000.0});
  EXPECT_NEAR(lse, 1000.0 + std::log(2.0), 1e-9);
}

TEST(LogSumExpTest, StableForVerySmallScores) {
  const double lse = LogSumExp({-1000.0, -1000.0});
  EXPECT_NEAR(lse, -1000.0 + std::log(2.0), 1e-9);
}

TEST(SoftmaxTest, UniformScores) {
  const auto p = SoftmaxFromLogScores({1.0, 1.0, 1.0, 1.0});
  ASSERT_EQ(p.size(), 4u);
  for (double x : p) EXPECT_NEAR(x, 0.25, 1e-12);
}

TEST(SoftmaxTest, SumsToOne) {
  const auto p = SoftmaxFromLogScores({0.2, -3.0, 5.5, 1.0});
  double sum = 0.0;
  for (double x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SoftmaxTest, MonotoneInScores) {
  const auto p = SoftmaxFromLogScores({1.0, 2.0, 3.0});
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(SoftmaxTest, ExtremeSpreadSaturates) {
  const auto p = SoftmaxFromLogScores({0.0, 800.0});
  EXPECT_NEAR(p[0], 0.0, 1e-12);
  EXPECT_NEAR(p[1], 1.0, 1e-12);
}

TEST(SoftmaxTest, EmptyInput) {
  EXPECT_TRUE(SoftmaxFromLogScores({}).empty());
}

TEST(NormalizeTest, Basic) {
  const auto p = Normalize({1.0, 3.0});
  EXPECT_NEAR(p[0], 0.25, 1e-12);
  EXPECT_NEAR(p[1], 0.75, 1e-12);
}

TEST(NormalizeTest, AllZeroBecomesUniform) {
  const auto p = Normalize({0.0, 0.0, 0.0});
  for (double x : p) EXPECT_NEAR(x, 1.0 / 3.0, 1e-12);
}

TEST(NormalizeTest, NegativeWeightsTreatedAsZero) {
  const auto p = Normalize({-5.0, 1.0});
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
}

TEST(NormalizeTest, EmptyInput) { EXPECT_TRUE(Normalize({}).empty()); }

TEST(ArgMaxTest, FirstOccurrenceWins) {
  EXPECT_EQ(ArgMax(std::vector<double>{1.0, 3.0, 3.0, 2.0}), 1u);
}

TEST(ArgMaxTest, SingleElement) {
  EXPECT_EQ(ArgMax(std::vector<double>{7.0}), 0u);
}

TEST(ArgMaxTest, EmptyIsZero) { EXPECT_EQ(ArgMax({}), 0u); }

TEST(NearlyEqualTest, Tolerance) {
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 1e-10, 1e-9));
  EXPECT_FALSE(NearlyEqual(1.0, 1.01, 1e-9));
}

// Property sweep: softmax of Accu-style log scores is always a valid
// distribution for a wide range of score magnitudes.
class SoftmaxPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(SoftmaxPropertyTest, ValidDistribution) {
  const double magnitude = GetParam();
  const std::vector<double> scores = {-magnitude, 0.0, magnitude,
                                      magnitude / 2.0};
  const auto p = SoftmaxFromLogScores(scores);
  double sum = 0.0;
  for (double x : p) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, SoftmaxPropertyTest,
                         ::testing::Values(0.0, 0.1, 1.0, 10.0, 100.0, 1000.0,
                                           10000.0));

}  // namespace
}  // namespace veritas
