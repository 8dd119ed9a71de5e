// Tests of the trace recorder: the Chrome trace_event JSON it emits must be
// syntactically valid (checked with a minimal recursive-descent JSON
// parser), spans must nest and merge across threads, and a disabled
// recorder must emit nothing.
#include "obs/trace.h"
#include "test_dir.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace veritas {
namespace {

// Minimal recursive-descent JSON syntax checker. Accepts exactly the RFC
// 8259 grammar (minus \uXXXX digit validation); no values are materialized.
class JsonChecker {
 public:
  static bool Valid(const std::string& text) {
    JsonChecker checker(text);
    checker.SkipWs();
    if (!checker.Value()) return false;
    checker.SkipWs();
    return checker.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Eat(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c) {
      if (!Eat(*c)) return false;
    }
    return true;
  }

  bool Value() {
    switch (Peek()) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Eat(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Eat('}')) return true;
      if (!Eat(',')) return false;
    }
  }

  bool Array() {
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Eat(']')) return true;
      if (!Eat(',')) return false;
    }
  }

  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        if (esc == 'u') pos_ += 4;
        else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos)
          return false;
      }
    }
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    Eat('-');
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Eat('.')) {
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonCheckerTest, SanityOnKnownInputs) {
  EXPECT_TRUE(JsonChecker::Valid("{}"));
  EXPECT_TRUE(JsonChecker::Valid(R"({"a": [1, 2.5, -3e4], "b": "x\n"})"));
  EXPECT_TRUE(JsonChecker::Valid("[true, false, null]"));
  EXPECT_FALSE(JsonChecker::Valid("{"));
  EXPECT_FALSE(JsonChecker::Valid(R"({"a": })"));
  EXPECT_FALSE(JsonChecker::Valid("[1, 2,]"));
  EXPECT_FALSE(JsonChecker::Valid("{} trailing"));
}

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder recorder;
  recorder.RecordSpan("ignored", "test", 0.0, 1.0);
  EXPECT_TRUE(recorder.Flush().empty());
  const std::string json = recorder.ToChromeJson();
  EXPECT_TRUE(JsonChecker::Valid(json));
  EXPECT_EQ(json.find("ignored"), std::string::npos);
}

TEST(TraceRecorderTest, DisabledGlobalSpanEmitsNothing) {
  TraceRecorder& global = TraceRecorder::Global();
  global.Disable();
  global.Clear();
  {
    VERITAS_SPAN("should.not.appear");
  }
  EXPECT_TRUE(global.Flush().empty());
  EXPECT_EQ(global.ToChromeJson().find("should.not.appear"),
            std::string::npos);
}

TEST(TraceRecorderTest, GlobalSpansNestAndContain) {
  TraceRecorder& global = TraceRecorder::Global();
  global.Clear();
  global.Enable();
  {
    VERITAS_SPAN("outer");
    VERITAS_SPAN("inner");
  }
  global.Disable();
  const std::vector<TraceEvent> events = global.Flush();
  global.Clear();
  ASSERT_EQ(events.size(), 2u);
  const auto find = [&events](const std::string& name) -> const TraceEvent& {
    return *std::find_if(
        events.begin(), events.end(),
        [&name](const TraceEvent& e) { return e.name == name; });
  };
  const TraceEvent& outer = find("outer");
  const TraceEvent& inner = find("inner");
  // The inner interval lies within the outer one.
  EXPECT_LE(outer.ts_us, inner.ts_us);
  EXPECT_GE(outer.ts_us + outer.dur_us, inner.ts_us + inner.dur_us);
}

TEST(TraceRecorderTest, ChromeJsonIsValidAndCarriesEvents) {
  TraceRecorder recorder;
  recorder.Enable();
  recorder.RecordSpan("fuse", "veritas", 10.0, 5.0);
  recorder.RecordSpan("select \"q\"", "veritas", 20.0, 2.5);
  const std::string json = recorder.ToChromeJson();
  ASSERT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"fuse\""), std::string::npos);
  EXPECT_NE(json.find("select \\\"q\\\""), std::string::npos);
}

TEST(TraceRecorderTest, MergesPerThreadBuffersSortedByStart) {
  TraceRecorder recorder;
  recorder.Enable();
  recorder.RecordSpan("main", "t", 50.0, 1.0);
  std::vector<std::thread> pool;
  for (int t = 0; t < 3; ++t) {
    pool.emplace_back([&recorder, t] {
      recorder.RecordSpan("worker", "t", 10.0 * (t + 1), 1.0);
    });
  }
  for (std::thread& t : pool) t.join();
  const std::vector<TraceEvent> events = recorder.Flush();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
  // Each thread gets a distinct tid; the main-thread span keeps its own.
  EXPECT_EQ(events.back().name, "main");
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
}

TEST(TraceRecorderTest, WriteChromeJsonRoundTripsThroughDisk) {
  TraceRecorder recorder;
  recorder.Enable();
  recorder.RecordSpan("disk", "t", 1.0, 2.0);
  const std::string path = TestPath("veritas_trace_test.json");
  ASSERT_TRUE(recorder.WriteChromeJson(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), recorder.ToChromeJson());
  EXPECT_TRUE(JsonChecker::Valid(buffer.str()));
  in.close();
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, WriteChromeJsonBadPathIsIoError) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.WriteChromeJson("/nonexistent/dir/trace.json").code(),
            StatusCode::kIoError);
}

TEST(TraceRecorderTest, ClearDropsEvents) {
  TraceRecorder recorder;
  recorder.Enable();
  recorder.RecordSpan("gone", "t", 0.0, 1.0);
  recorder.Clear();
  EXPECT_TRUE(recorder.Flush().empty());
}

}  // namespace
}  // namespace veritas
