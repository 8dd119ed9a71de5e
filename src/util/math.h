// Numerical helpers shared across fusion and feedback code: entropies,
// log-sum-exp softmax, probability clamping, and a branch-free log for
// vectorised entropy loops.
//
// All entropies in Veritas use the natural logarithm; this matches the worked
// numbers in the paper (e.g. H = 0.276 nats for p = {0.921, 0.079}).
#ifndef VERITAS_UTIL_MATH_H_
#define VERITAS_UTIL_MATH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace veritas {

/// Probabilities are clamped to [kProbEpsilon, 1 - kProbEpsilon] wherever a
/// log or odds ratio would otherwise diverge.
inline constexpr double kProbEpsilon = 1e-12;

/// Source accuracies are clamped to [kMinAccuracy, kMaxAccuracy] so the odds
/// A/(1-A) in the Accu formula (Eq. 1) stay finite.
inline constexpr double kMinAccuracy = 1e-4;
inline constexpr double kMaxAccuracy = 1.0 - 1e-4;

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

/// Clamps a probability into [0, 1].
double ClampProb(double p);

/// Clamps a source accuracy into [kMinAccuracy, kMaxAccuracy].
double ClampAccuracy(double a);

/// -p*ln(p), with the 0*ln(0) = 0 convention. p outside [0,1] is clamped;
/// NaN/Inf inputs contribute 0 instead of poisoning the sum.
double EntropyTerm(double p);

/// Shannon entropy (nats) of a distribution. Does not require the input to be
/// normalized exactly; each term is computed independently.
double Entropy(std::span<const double> probs);

/// Natural log of a positive normal finite x (DBL_MIN <= x < inf), without
/// a branch, so loops over it auto-vectorise on baseline x86-64 (SSE2).
/// fdlibm's e_log.c (musl's log before 2018): reduce x = 2^k (1 + f) with
/// sqrt(1/2) <= 1 + f < sqrt(2), then log(1 + f) = f - f^2/2 + s (f^2/2 +
/// R(s^2)) with s = f / (2 + f) and R fdlibm's degree-7 polynomial; k ln 2
/// is added in two parts. fdlibm states an error below 1 ulp; the tests bound
/// the distance from std::log by 1 ulp over (DBL_MIN, 1]. Zero, subnormal,
/// negative, infinite and NaN inputs give meaningless results.
inline double LogOfNormal(double x) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 0x3fe62e42fee00000
  constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 0x3dea39ef35793c76
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  // Adding 0x3ff00000 - 0x3fe6a09e to the high word carries into the
  // exponent exactly when the mantissa is at least sqrt(2) (high word
  // 0x3ff6a09e), so the exponent field then holds k + 1023 for the reduced
  // 1 + f. The field is non-negative (x > 0), so a logical shift extracts
  // it, and OR-ing it into the mantissa of 2^52 gives 2^52 + k + 1023 as a
  // double: an exact int -> double conversion that SSE2, which has no
  // 64-bit integer conversion, can do in vector registers.
  const std::uint64_t ix =
      std::bit_cast<std::uint64_t>(x) + 0x00095f6200000000ull;
  const double k =
      std::bit_cast<double>((ix >> 52) | 0x4330000000000000ull) -
      4503599627371519.0;  // 2^52 + 1023.
  // The mantissa with the exponent of [sqrt(1/2), sqrt(2)): 1 + f.
  const double f = std::bit_cast<double>((ix & 0x000fffffffffffffull) +
                                         0x3fe6a09e00000000ull) -
                   1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  return s * (hfsq + r) + k * kLn2Lo - hfsq + f + k * kLn2Hi;
}

/// Replaces each p of `probs` with its entropy term -p ln p, computed with
/// LogOfNormal in one branch-free loop that auto-vectorises at -O3. Every
/// entry must already lie in [DBL_MIN, 1]: the loop neither clamps nor
/// applies the 0 ln 0 = 0 convention (clamping zero to DBL_MIN costs a
/// term below 2e-305).
void EntropyTermsInPlace(std::span<double> probs);

/// Maximum possible entropy of a distribution over n outcomes: ln(n).
double MaxEntropy(std::size_t n);

/// log(sum_i exp(x_i)) computed stably. Empty input yields -inf.
double LogSumExp(const std::vector<double>& xs);

/// Normalized softmax of log-scores, in place: x_i <- exp(x_i - LSE(x)),
/// with LogSumExp's max shift. Stable for widely spread scores; allocation
/// free, for the per-item loops of the fusion models.
void SoftmaxInPlace(std::span<double> x);

/// Normalizes non-negative weights to sum to 1, in place. All-zero input
/// becomes the uniform distribution. Negative and non-finite weights are
/// treated as 0 so a single NaN/Inf cannot poison the whole distribution.
void NormalizeInPlace(std::span<double> weights);

/// Internal error when any value is NaN or +/-Inf; `what` names the vector
/// in the message (e.g. "prior distribution"). Use this at trust boundaries
/// so non-finite numbers surface as a Status instead of propagating into
/// strategy scores.
Status CheckFinite(const std::vector<double>& values, const char* what);

/// Index of the maximum element; first occurrence wins. Empty input yields 0.
std::size_t ArgMax(std::span<const double> xs);

/// True when |a - b| <= tol.
bool NearlyEqual(double a, double b, double tol);

}  // namespace veritas

#endif  // VERITAS_UTIL_MATH_H_
