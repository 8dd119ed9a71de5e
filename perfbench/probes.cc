#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "obs/trace.h"

namespace perfbench {

using veritas::TraceEvent;
using veritas::TraceRecorder;

double NowSeconds() { return TraceRecorder::Global().NowMicros() * 1e-6; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  if (rank < 1.0) return sorted.front();
  return sorted[std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1];
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

void Digest::Mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::uint64_t SelectionDigest(const veritas::SessionTrace& trace) {
  Digest d;
  for (const veritas::SessionStep& step : trace.steps) {
    d.Mix(step.items.size());
    for (veritas::ItemId item : step.items) d.Mix(item);
  }
  return d.value();
}

std::vector<veritas::ItemId> TimedStrategy::SelectBatch(
    const veritas::StrategyContext& ctx, std::size_t batch) {
  VERITAS_SPAN("bench.select");
  const double cpu0 = clock_->measure_cpu ? ProcessCpuSeconds() : 0.0;
  const double start = NowSeconds();
  std::vector<veritas::ItemId> out = inner_->SelectBatch(ctx, batch);
  const double end = NowSeconds();
  if (clock_->measure_cpu) clock_->select_cpu += ProcessCpuSeconds() - cpu0;
  clock_->select_wall += end - start;
  if (clock_->select != nullptr) clock_->select->Add(end - start);
  if (clock_->last_answer_end < 0.0) {
    if (clock_->first_question != nullptr) {
      clock_->first_question->Add(end - clock_->open);
    }
  } else {
    if (clock_->question != nullptr) {
      clock_->question->Add(end - clock_->last_answer_end);
    }
    clock_->question_wait_sum += end - clock_->last_answer_end;
    clock_->question_select_sum += end - start;
    clock_->intervals.emplace_back(clock_->last_answer_end, end);
  }
  return out;
}

veritas::Result<std::vector<double>> TimedOracle::Answer(
    const veritas::Database& db, veritas::ItemId item,
    const veritas::GroundTruth& truth, veritas::Rng* rng) {
  VERITAS_SPAN("bench.oracle");
  auto out = inner_->Answer(db, item, truth, rng);
  clock_->last_answer_end = NowSeconds();
  return out;
}

namespace {

template <typename Fn>
auto TimeCall(Samples* samples, Fn&& fn) {
  VERITAS_SPAN("bench.net.call");
  const double start = NowSeconds();
  auto out = fn();
  samples->Add(NowSeconds() - start);
  return out;
}

}  // namespace

veritas::Result<veritas::net::NetResponse> TimedNetClient::Submit(
    const veritas::SessionSpec& spec) {
  return TimeCall(&calls_, [&] { return client_.Submit(spec); });
}

veritas::Result<veritas::net::NetResponse> TimedNetClient::Report(
    const std::string& id) {
  return TimeCall(&calls_, [&] { return client_.Report(id); });
}

veritas::Result<std::string> TimedNetClient::MetricsJson() {
  return TimeCall(&calls_, [&] { return client_.MetricsJson(); });
}

SpanTimes AnalyzeSpans(const std::vector<TraceEvent>& events) {
  SpanTimes out;
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : events) by_tid[e.tid].push_back(&e);
  for (auto& [tid, list] : by_tid) {
    (void)tid;
    // Parents start no later and last longer than their children.
    std::sort(list.begin(), list.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    std::vector<double> child_us(list.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const TraceEvent& e = *list[i];
      while (!stack.empty()) {
        const TraceEvent& top = *list[stack.back()];
        if (e.ts_us < top.ts_us + top.dur_us) break;
        stack.pop_back();
      }
      if (!stack.empty()) child_us[stack.back()] += e.dur_us;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      const TraceEvent& e = *list[i];
      out.self_s[e.name] += std::max(0.0, e.dur_us - child_us[i]) * 1e-6;
      out.total_s[e.name] += e.dur_us * 1e-6;
    }
  }
  return out;
}

Intervals SpanIntervals(const std::vector<TraceEvent>& events,
                        std::uint32_t tid,
                        const std::function<bool(const std::string&)>& keep) {
  Intervals raw;
  for (const TraceEvent& e : events) {
    if (e.tid == tid && keep(e.name)) {
      raw.emplace_back(e.ts_us * 1e-6, (e.ts_us + e.dur_us) * 1e-6);
    }
  }
  std::sort(raw.begin(), raw.end());
  Intervals merged;
  for (const auto& iv : raw) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

double Covered(const Intervals& intervals, double a, double b) {
  auto it = std::upper_bound(
      intervals.begin(), intervals.end(), std::make_pair(a, a),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  if (it != intervals.begin()) --it;
  double covered = 0.0;
  for (; it != intervals.end() && it->first < b; ++it) {
    const double lo = std::max(a, it->first);
    const double hi = std::min(b, it->second);
    if (hi > lo) covered += hi - lo;
  }
  return covered;
}

}  // namespace perfbench
