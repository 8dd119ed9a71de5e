// Numerical helpers shared across fusion and feedback code: entropies,
// log-sum-exp softmax, probability clamping.
//
// All entropies in Veritas use the natural logarithm; this matches the worked
// numbers in the paper (e.g. H = 0.276 nats for p = {0.921, 0.079}).
#ifndef VERITAS_UTIL_MATH_H_
#define VERITAS_UTIL_MATH_H_

#include <cstddef>
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

/// Maximum possible entropy of a distribution over n outcomes: ln(n).
double MaxEntropy(std::size_t n);

/// log(sum_i exp(x_i)) computed stably. Empty input yields -inf.
double LogSumExp(const std::vector<double>& xs);

/// Normalized softmax of log-scores: out_i = exp(x_i) / sum_j exp(x_j).
/// Stable for widely spread scores. Empty input yields empty output.
std::vector<double> SoftmaxFromLogScores(const std::vector<double>& scores);

/// Normalizes a non-negative vector to sum to 1. All-zero input becomes the
/// uniform distribution. Negative and non-finite weights are treated as 0 so
/// a single NaN/Inf cannot poison the whole distribution.
std::vector<double> Normalize(const std::vector<double>& weights);

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
