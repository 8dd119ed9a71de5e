// Outside-in probes for the repository benchmark. Every number the
// benchmark reports is taken at a public boundary of the program: the
// decorators below wrap Strategy, FeedbackOracle and NetClient, forward
// every call unchanged, and only record when calls start and end. The rest
// of this header is the shared arithmetic: sample quantiles with their
// counts, selection digests, process CPU/RSS, and the span analysis of the
// traced run (self time per span, span coverage of an interval).
#ifndef VERITAS_PERFBENCH_PROBES_H_
#define VERITAS_PERFBENCH_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/session.h"
#include "core/strategy.h"
#include "net/client.h"
#include "obs/trace.h"

namespace perfbench {

/// Seconds on the trace recorder's clock, so bench timestamps and program
/// spans share one time base.
double NowSeconds();
/// Process user + system CPU seconds (getrusage).
double ProcessCpuSeconds();
/// Peak resident set size of the process, MiB.
double PeakRssMb();

/// A bag of timing samples. Quantiles are nearest-rank on the sorted values.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  std::size_t count() const { return values_.size(); }
  double Quantile(double q) const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// FNV-1a 64 over a sequence of integers.
class Digest {
 public:
  void Mix(std::uint64_t v);
  std::uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Digest of the items a session validated, round by round.
std::uint64_t SelectionDigest(const veritas::SessionTrace& trace);

/// Per-session clock shared by the strategy and oracle decorators. A
/// question wait runs from the oracle's answer returning to the next select
/// returning; the first question runs from `open` to the first select.
struct QuestionClock {
  double open = 0.0;
  double last_answer_end = -1.0;
  Samples* first_question = nullptr;  // Not owned.
  Samples* question = nullptr;        // Not owned.
  Samples* select = nullptr;          // Not owned.
  /// Process CPU and wall seconds spent inside select calls.
  double select_cpu = 0.0;
  double select_wall = 0.0;
  bool measure_cpu = false;
  /// Sums over the question waits, and over the selects that end them.
  double question_wait_sum = 0.0;
  double question_select_sum = 0.0;
  /// Question intervals [answer end, select end] on the NowSeconds clock,
  /// kept for the traced run's coverage analysis.
  std::vector<std::pair<double, double>> intervals;
};

/// Strategy decorator: forwards every virtual, records select timings.
class TimedStrategy : public veritas::Strategy {
 public:
  TimedStrategy(veritas::Strategy* inner, QuestionClock* clock)
      : inner_(inner), clock_(clock) {}

  std::string name() const override { return inner_->name(); }
  void Reset() override { inner_->Reset(); }
  std::vector<veritas::ItemId> SelectBatch(const veritas::StrategyContext& ctx,
                                           std::size_t batch) override;

 private:
  veritas::Strategy* inner_;
  QuestionClock* clock_;
};

/// FeedbackOracle decorator: forwards every virtual, stamps answer ends.
class TimedOracle : public veritas::FeedbackOracle {
 public:
  TimedOracle(veritas::FeedbackOracle* inner, QuestionClock* clock)
      : inner_(inner), clock_(clock) {}

  std::string name() const override { return inner_->name(); }
  veritas::Result<std::vector<double>> Answer(const veritas::Database& db,
                                              veritas::ItemId item,
                                              const veritas::GroundTruth& truth,
                                              veritas::Rng* rng) override;
  std::size_t last_attempts() const override {
    return inner_->last_attempts();
  }
  std::string SerializeState() const override {
    return inner_->SerializeState();
  }
  veritas::Status RestoreState(const std::string& state) override {
    return inner_->RestoreState(state);
  }

 private:
  veritas::FeedbackOracle* inner_;
  QuestionClock* clock_;
};

/// NetClient call wrapper: the same calls, each timed and counted.
class TimedNetClient {
 public:
  explicit TimedNetClient(veritas::net::NetClientOptions options)
      : client_(std::move(options)) {}

  veritas::Result<veritas::net::NetResponse> Submit(
      const veritas::SessionSpec& spec);
  veritas::Result<veritas::net::NetResponse> Report(const std::string& id);
  veritas::Result<std::string> MetricsJson();

  const Samples& calls() const { return calls_; }

 private:
  veritas::net::NetClient client_;
  Samples calls_;
};

/// Self time (duration minus direct children) and total time per span
/// name, over every thread's spans.
struct SpanTimes {
  std::map<std::string, double> self_s;
  std::map<std::string, double> total_s;
};
SpanTimes AnalyzeSpans(const std::vector<veritas::TraceEvent>& events);

/// Merged, sorted intervals (seconds) of the spans on thread `tid` whose
/// name passes `keep`.
using Intervals = std::vector<std::pair<double, double>>;
Intervals SpanIntervals(const std::vector<veritas::TraceEvent>& events,
                        std::uint32_t tid,
                        const std::function<bool(const std::string&)>& keep);
/// Seconds of [a, b] covered by the merged `intervals`.
double Covered(const Intervals& intervals, double a, double b);

}  // namespace perfbench

#endif  // VERITAS_PERFBENCH_PROBES_H_
