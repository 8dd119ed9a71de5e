// The benchmark workloads (see BENCH.md for why each exists and which
// layer each is predicted to stress).
#ifndef VERITAS_PERFBENCH_WORKLOADS_H_
#define VERITAS_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the fixed amount of work (session count); the count is a pure
  /// function of this value and never of the clock.
  double seconds = 10.0;
  /// Traced run: TraceRecorder on for every other block of sessions;
  /// reports the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Self-test sizes: small snapshots, few sessions.
  bool small = false;
  /// Where session files, the Chrome trace and the metrics snapshot go.
  std::string out_dir;
  /// Self-test hook: corrupt the reference selection digest so the
  /// correctness gate must trip.
  bool force_mismatch = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Samples behind a percentile or median (0 = not a sample statistic).
  std::size_t samples = 0;
};

struct RunResult {
  std::map<std::string, Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Correctness-gate failures; empty means the outputs checked out.
  std::vector<std::string> errors;
  /// Digest of every session's selection sequence, in session order.
  std::string digest;
  std::map<std::string, std::string> notes;
};

std::vector<std::string> WorkloadNames();
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // VERITAS_PERFBENCH_WORKLOADS_H_
