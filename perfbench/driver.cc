// perfbench_driver: runs one benchmark workload and prints one JSON object
// (metrics with units and sample counts, the correctness verdict, the
// selection digest). run.py builds this binary, runs it, and turns the
// object into the benchmark's result line.
//
//   perfbench_driver --workload meu_books --seed 3 --seconds 10
//       --trace 0 --out-dir .bench_build/out [--small] [--force-mismatch]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

int Usage() {
  std::cerr << "usage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> [--small] "
               "[--force-mismatch]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--small") {
      config.small = true;
    } else if (arg == "--force-mismatch") {
      config.force_mismatch = true;
    } else if ((v = next()) == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      config.workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::string(v) == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = v;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known || config.out_dir.empty() || config.seconds <= 0.0) {
    return Usage();
  }

  const perfbench::RunResult r = perfbench::RunWorkload(config);
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(config.workload)
      << ", \"correct\": " << (r.errors.empty() ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"digest\": " << JsonString(r.digest) << ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out << (i ? ", " : "") << JsonString(r.errors[i]);
  }
  out << "], \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : r.notes) {
    out << (first ? "" : ", ") << JsonString(k) << ": " << JsonString(v);
    first = false;
  }
  out << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ", ") << JsonString(name)
        << ": {\"value\": " << JsonNumber(m.value)
        << ", \"unit\": " << JsonString(m.unit)
        << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return r.errors.empty() ? 0 : 1;
}
