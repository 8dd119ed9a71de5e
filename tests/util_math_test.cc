#include "util/math.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

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

// Doubles mapped onto one integer line, so the difference of two mapped
// values counts the representable doubles between them (+0 and -0 meet).
std::int64_t OrderedBits(double x) {
  const auto bits = std::bit_cast<std::int64_t>(x);
  return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
}

std::int64_t UlpDistance(double a, double b) {
  const std::int64_t d = OrderedBits(a) - OrderedBits(b);
  return d < 0 ? -d : d;
}

// The stated bound of LogOfNormal: within 1 ulp of std::log.
constexpr std::int64_t kLogUlpBound = 1;

void ExpectLogWithinBound(double x) {
  EXPECT_LE(UlpDistance(LogOfNormal(x), std::log(x)), kLogUlpBound)
      << std::hexfloat << "x = " << x << ": " << LogOfNormal(x) << " vs "
      << std::log(x);
}

TEST(LogOfNormalTest, ExactAtOneAndPowersOfTwo) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(LogOfNormal(1.0)), 0u);  // +0.
  EXPECT_EQ(LogOfNormal(0.5), std::log(0.5));
  EXPECT_EQ(LogOfNormal(2.0), std::log(2.0));
}

TEST(LogOfNormalTest, AroundOne) {
  const double one = 1.0;
  ExpectLogWithinBound(one);
  ExpectLogWithinBound(std::nextafter(one, 0.0));
  ExpectLogWithinBound(std::nextafter(one, 2.0));
  double below = one;
  double above = one;
  for (int step = 0; step < 64; ++step) {
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, 2.0);
    ExpectLogWithinBound(below);
    ExpectLogWithinBound(above);
  }
}

// The reduction switches between k and k + 1 where the mantissa crosses
// sqrt(2), i.e. at sqrt(1/2) times a power of two; the switch itself sits
// at the high word 0x3fe6a09e, just below sqrt(1/2).
TEST(LogOfNormalTest, AroundTheReductionBoundary) {
  const double root_half = std::sqrt(0.5);
  const double switch_point = std::bit_cast<double>(0x3fe6a09e00000000ull);
  for (const double x : {root_half, switch_point}) {
    ExpectLogWithinBound(x);
    ExpectLogWithinBound(std::nextafter(x, 0.0));
    ExpectLogWithinBound(std::nextafter(x, 1.0));
  }
  // The same boundary in every binade of (DBL_MIN, 1], and once above 1.
  for (int e = -1022; e <= 1; ++e) {
    const double x = std::ldexp(root_half, e);
    if (x < std::numeric_limits<double>::min()) continue;
    ExpectLogWithinBound(x);
    ExpectLogWithinBound(std::nextafter(x, 0.0));
    ExpectLogWithinBound(std::nextafter(x, 2.0 * x));
  }
}

TEST(LogOfNormalTest, NegativePowersOfTwoDownToDblMin) {
  const double dbl_min = std::numeric_limits<double>::min();
  for (int e = 0; e >= -1022; --e) {
    const double x = std::ldexp(1.0, e);
    EXPECT_EQ(LogOfNormal(x), std::log(x)) << "2^" << e;
    if (x > dbl_min) ExpectLogWithinBound(std::nextafter(x, 0.0));
    ExpectLogWithinBound(std::nextafter(x, 1.0));
  }
  EXPECT_EQ(LogOfNormal(dbl_min), std::log(dbl_min));
}

TEST(LogOfNormalTest, RandomSweepOverUnitInterval) {
  Rng rng(17);
  const double dbl_min = std::numeric_limits<double>::min();
  std::int64_t worst = 0;
  for (int n = 0; n < 200000; ++n) {
    // Uniform over the binades (every exponent equally likely), and
    // uniform over the interval (mostly the top binades).
    const double binade = std::ldexp(
        rng.Uniform(1.0, 2.0), -static_cast<int>(rng.UniformIndex(1022)) - 1);
    const double linear = std::max(rng.Uniform(), dbl_min);
    for (const double x : {binade, linear}) {
      worst = std::max(worst, UlpDistance(LogOfNormal(x), std::log(x)));
    }
  }
  EXPECT_LE(worst, kLogUlpBound);
}

TEST(EntropyTermsInPlaceTest, MatchesEntropyTermWithinTheLogBound) {
  Rng rng(5);
  // Odd lengths exercise the vector loop's scalar tail.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1001}}) {
    std::vector<double> terms(n);
    for (double& p : terms) p = std::max(rng.Uniform(), 1e-300);
    if (n > 1) {
      terms[0] = 1.0;
      terms[1] = std::numeric_limits<double>::min();
    }
    const std::vector<double> probs = terms;
    EntropyTermsInPlace(terms);
    for (std::size_t k = 0; k < n; ++k) {
      const double want = EntropyTerm(probs[k]);
      // 1 ulp of the log plus the rounding of the product.
      EXPECT_NEAR(terms[k], want,
                  4.0 * std::numeric_limits<double>::epsilon() * want)
          << "p = " << probs[k];
    }
  }
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

// The in-place helpers, applied to a copy.
std::vector<double> Softmax(std::vector<double> x) {
  SoftmaxInPlace(x);
  return x;
}

std::vector<double> Normalized(std::vector<double> w) {
  NormalizeInPlace(w);
  return w;
}

TEST(SoftmaxTest, UniformScores) {
  const auto p = Softmax({1.0, 1.0, 1.0, 1.0});
  ASSERT_EQ(p.size(), 4u);
  for (double x : p) EXPECT_NEAR(x, 0.25, 1e-12);
}

TEST(SoftmaxTest, SumsToOne) {
  const auto p = Softmax({0.2, -3.0, 5.5, 1.0});
  double sum = 0.0;
  for (double x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SoftmaxTest, MonotoneInScores) {
  const auto p = Softmax({1.0, 2.0, 3.0});
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(SoftmaxTest, ExtremeSpreadSaturates) {
  const auto p = Softmax({0.0, 800.0});
  EXPECT_NEAR(p[0], 0.0, 1e-12);
  EXPECT_NEAR(p[1], 1.0, 1e-12);
}

TEST(SoftmaxTest, EmptyInput) {
  EXPECT_TRUE(Softmax({}).empty());
}

TEST(NormalizeTest, Basic) {
  const auto p = Normalized({1.0, 3.0});
  EXPECT_NEAR(p[0], 0.25, 1e-12);
  EXPECT_NEAR(p[1], 0.75, 1e-12);
}

TEST(NormalizeTest, AllZeroBecomesUniform) {
  const auto p = Normalized({0.0, 0.0, 0.0});
  for (double x : p) EXPECT_NEAR(x, 1.0 / 3.0, 1e-12);
}

TEST(NormalizeTest, NegativeWeightsTreatedAsZero) {
  const auto p = Normalized({-5.0, 1.0});
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
}

TEST(NormalizeTest, EmptyInput) { EXPECT_TRUE(Normalized({}).empty()); }

// Bit patterns, so NaN outputs compare equal to themselves.
std::vector<std::uint64_t> Bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> bits;
  for (double x : xs) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

// The per-item fusion loops call the in-place helpers; they keep the bits
// of the vector forms they replaced: exp(s - LogSumExp(s)), and weights over
// their usable sum with a uniform fallback.
TEST(SoftmaxInPlaceTest, BitIdenticalToExpMinusLogSumExp) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> cases = {
      {1.0, 1.0, 1.0, 1.0}, {0.2, -3.0, 5.5, 1.0}, {0.0, 800.0},
      {-1000.0, -1000.0},   {3.0},                 {-inf, 0.0, 2.0},
      {inf, 0.0},           {}};
  for (const std::vector<double>& scores : cases) {
    const double lse = LogSumExp(scores);
    std::vector<double> reference;
    for (double s : scores) reference.push_back(std::exp(s - lse));
    EXPECT_EQ(Bits(Softmax(scores)), Bits(reference));
  }
}

TEST(NormalizeInPlaceTest, BitIdenticalToUsableSumDivision) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> cases = {
      {1.0, 3.0}, {0.1, 0.2, 0.7}, {nan, 1.0}, {inf, 1.0, -2.0, 0.5}, {}};
  for (const std::vector<double>& weights : cases) {
    const auto usable = [](double w) { return std::isfinite(w) && w > 0.0; };
    double sum = 0.0;
    for (double w : weights) {
      if (usable(w)) sum += w;
    }
    std::vector<double> reference;
    for (double w : weights) reference.push_back(usable(w) ? w / sum : 0.0);
    EXPECT_EQ(Bits(Normalized(weights)), Bits(reference));
  }
}

TEST(NormalizeInPlaceTest, UniformFallback) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // All-zero, all-negative and overflowing sums become uniform.
  for (std::vector<double> w : {std::vector<double>{0.0, 0.0, 0.0, 0.0},
                                std::vector<double>{-1.0, -2.0, 0.0, -4.0},
                                std::vector<double>{1e308, 1e308, 1e308,
                                                    1e308}}) {
    NormalizeInPlace(w);
    for (double x : w) EXPECT_EQ(x, 0.25);
  }
  // Unusable weights alone are uniform too; next to a usable one they get 0.
  std::vector<double> only_bad = {nan, -inf};
  NormalizeInPlace(only_bad);
  EXPECT_EQ(only_bad, (std::vector<double>{0.5, 0.5}));
  std::vector<double> mixed = {nan, 2.0, inf, -1.0};
  NormalizeInPlace(mixed);
  EXPECT_EQ(mixed, (std::vector<double>{0.0, 1.0, 0.0, 0.0}));
}

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
  const auto p = Softmax(scores);
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
