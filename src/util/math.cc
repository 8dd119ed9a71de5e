#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace veritas {

double Clamp(double x, double lo, double hi) {
  return std::min(std::max(x, lo), hi);
}

double ClampProb(double p) { return Clamp(p, 0.0, 1.0); }

double ClampAccuracy(double a) { return Clamp(a, kMinAccuracy, kMaxAccuracy); }

double EntropyTerm(double p) {
  if (!std::isfinite(p)) return 0.0;
  p = ClampProb(p);
  if (p <= 0.0) return 0.0;
  return -p * std::log(p);
}

double Entropy(std::span<const double> probs) {
  double h = 0.0;
  for (double p : probs) h += EntropyTerm(p);
  return h;
}

double MaxEntropy(std::size_t n) {
  if (n <= 1) return 0.0;
  return std::log(static_cast<double>(n));
}

double LogSumExp(const std::vector<double>& xs) {
  if (xs.empty()) return -std::numeric_limits<double>::infinity();
  const double m = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(m)) return m;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - m);
  return m + std::log(sum);
}

std::vector<double> SoftmaxFromLogScores(const std::vector<double>& scores) {
  std::vector<double> out;
  if (scores.empty()) return out;
  const double lse = LogSumExp(scores);
  out.reserve(scores.size());
  for (double s : scores) out.push_back(std::exp(s - lse));
  return out;
}

std::vector<double> Normalize(const std::vector<double>& weights) {
  std::vector<double> out(weights.size(), 0.0);
  const auto usable = [](double w) { return std::isfinite(w) && w > 0.0; };
  double sum = 0.0;
  for (double w : weights) {
    if (usable(w)) sum += w;
  }
  if (sum <= 0.0 || !std::isfinite(sum)) {
    if (!out.empty()) {
      const double u = 1.0 / static_cast<double>(out.size());
      std::fill(out.begin(), out.end(), u);
    }
    return out;
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out[i] = usable(weights[i]) ? weights[i] / sum : 0.0;
  }
  return out;
}

Status CheckFinite(const std::vector<double>& values, const char* what) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::Internal(std::string(what) + ": non-finite value at index " +
                              std::to_string(i));
    }
  }
  return Status::OK();
}

std::size_t ArgMax(std::span<const double> xs) {
  if (xs.empty()) return 0;
  return static_cast<std::size_t>(
      std::max_element(xs.begin(), xs.end()) - xs.begin());
}

bool NearlyEqual(double a, double b, double tol) {
  return std::fabs(a - b) <= tol;
}

}  // namespace veritas
