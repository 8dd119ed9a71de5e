// Corruption-resilience harness for the durable on-disk formats. A
// fixed-seed byte-mutation fuzzer mutilates a valid checkpoint (and a valid
// CSV) hundreds of ways; loading the result must never crash — every load
// either succeeds with structurally valid state or returns a non-OK Status.
// Targeted cases pin the specific failure modes the v2 trailer exists to
// catch (truncation, bit flips, a missing end tag) and the recovery chain's
// promise: a corrupted head checkpoint falls back to the previous
// generation, and a session resumed from it is bit-exact.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/qbc.h"
#include "core/session.h"
#include "core/session_checkpoint.h"
#include "data/example_data.h"
#include "fusion/accu.h"
#include "obs/metrics.h"
#include "util/csv.h"
#include "util/rng.h"
#include "test_dir.h"

namespace veritas {
namespace {

namespace fs = std::filesystem;

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << path;
  out << contents;
}

// One deterministic mutilation of `clean`: a byte flip, a truncation, an
// insertion, or a deletion, chosen by the fixed-seed Rng.
std::string Mutate(const std::string& clean, Rng* rng) {
  std::string bytes = clean;
  switch (rng->UniformIndex(4)) {
    case 0: {  // Flip 1-4 bytes (xor is nonzero, so the byte really changes).
      const std::size_t flips = 1 + rng->UniformIndex(4);
      for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
        const std::size_t at = rng->UniformIndex(bytes.size());
        bytes[at] = static_cast<char>(
            bytes[at] ^ static_cast<char>(1 + rng->UniformIndex(255)));
      }
      break;
    }
    case 1:  // Truncate to a random prefix (possibly empty).
      bytes.resize(rng->UniformIndex(bytes.size() + 1));
      break;
    case 2: {  // Insert a random byte.
      const std::size_t at = rng->UniformIndex(bytes.size() + 1);
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<char>(rng->UniformIndex(256)));
      break;
    }
    default: {  // Delete a random byte.
      if (bytes.empty()) break;
      const std::size_t at = rng->UniformIndex(bytes.size());
      bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    }
  }
  return bytes;
}

class DurabilityFuzzTest : public ::testing::Test {
 protected:
  // A dedicated, initially empty directory per test keeps the mutated file
  // free of recovery-chain siblings (`*.1`, `*.2`), so every load exercises
  // exactly the corrupted head.
  void SetUp() override { dir_ = TestDir(); }

  std::string MakeValidCheckpointFile() {
    SessionCheckpoint cp;
    cp.num_validated = 2;
    cp.initial_distance = 0.375;
    cp.initial_uncertainty = 1.5;
    SessionStep step;
    step.num_validated = 2;
    step.items = {0, 1};
    step.distance = 0.25;
    step.uncertainty = 1.25;
    cp.steps.push_back(step);
    EXPECT_TRUE(cp.priors.SetExact(db_, 0, truth_.TrueClaim(0)).ok());
    cp.fusion = FusionResult(db_, 0.8);
    cp.fusion.set_iterations(4);
    cp.fusion.set_converged(true);
    cp.rng_state = "123 456";
    const std::string path = dir_ + "/clean_ckpt.txt";
    EXPECT_TRUE(
        SaveSessionCheckpoint(cp, path, /*keep_generations=*/0).ok());
    return path;
  }

  Database db_ = MakeMovieDatabase();
  GroundTruth truth_ = MakeMovieGroundTruth(db_);
  std::string dir_;
};

// The headline harness: >= 500 deterministic mutations of a valid v2
// checkpoint. Loading must never crash; success implies structurally valid
// state (the loader validated every id and size against the database).
TEST_F(DurabilityFuzzTest, MutatedCheckpointNeverCrashesTheLoader) {
  const std::string clean = Slurp(MakeValidCheckpointFile());
  const std::string target = dir_ + "/mutated_ckpt.txt";
  Rng rng(0xC0FFEE);
  std::size_t loads_ok = 0;
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Spit(target, Mutate(clean, &rng));
    const auto loaded = LoadSessionCheckpoint(target, db_);
    if (!loaded.ok()) continue;
    ++loads_ok;
    // A load that verified must hand back state consistent with the db.
    EXPECT_EQ(loaded->fusion.num_items(), db_.num_items());
    for (ItemId item : loaded->priors.Items()) {
      EXPECT_LT(item, db_.num_items());
    }
  }
  // The v2 trailer rejects nearly everything; the occasional survivor is a
  // mutation past the trailer-covered payload. Either way: no crash above.
  EXPECT_LT(loads_ok, 500u);
}

// Same harness over the CSV reader, which backs every dataset load.
TEST_F(DurabilityFuzzTest, MutatedCsvNeverCrashesTheReader) {
  const std::string target = dir_ + "/mutated.csv";
  const std::string clean =
      "source,item,value\n"
      "s1,movie-a,\"120, director's cut\"\n"
      "s2,movie-a,118\n"
      "s2,movie-b,95\n";
  Rng rng(0xFEEDFACE);
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Spit(target, Mutate(clean, &rng));
    const auto rows = ReadCsvFile(target);
    if (rows.ok()) {
      for (const CsvRow& row : *rows) EXPECT_GE(row.size(), 1u);
    }
  }
}

TEST_F(DurabilityFuzzTest, TruncatedCheckpointIsRejected) {
  const std::string path = MakeValidCheckpointFile();
  const std::string clean = Slurp(path);
  // Every proper prefix (sampled) must be rejected — the trailer records the
  // payload length, so even a truncation ending on a line boundary fails.
  for (std::size_t keep : {clean.size() - 1, clean.size() / 2,
                           clean.size() / 4, std::size_t{1}}) {
    SCOPED_TRACE("keep " + std::to_string(keep));
    Spit(path, clean.substr(0, keep));
    const auto loaded = LoadSessionCheckpoint(path, db_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(DurabilityFuzzTest, FlippedByteInFusionProbsIsRejected) {
  const std::string path = MakeValidCheckpointFile();
  std::string bytes = Slurp(path);
  // Flip one hex digit inside the first "fprob" line: the value still
  // parses, so only the checksum can catch it.
  const std::size_t line = bytes.find("fprob ");
  ASSERT_NE(line, std::string::npos);
  const std::size_t digit = bytes.find("0x", line);
  ASSERT_NE(digit, std::string::npos);
  bytes[digit + 3] = bytes[digit + 3] == '8' ? '9' : '8';
  Spit(path, bytes);
  const auto loaded = LoadSessionCheckpoint(path, db_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status();
}

TEST_F(DurabilityFuzzTest, MissingEndTagIsRejected) {
  const std::string path = MakeValidCheckpointFile();
  std::string bytes = Slurp(path);
  const std::size_t end = bytes.find("end\n");
  ASSERT_NE(end, std::string::npos);
  bytes.erase(end, 4);
  Spit(path, bytes);
  const auto loaded = LoadSessionCheckpoint(path, db_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DurabilityFuzzTest, UnreadableVersionIsDistinguishedFromUnsupported) {
  const std::string path = dir_ + "/version.txt";
  Spit(path, "veritas-checkpoint banana\nend\n");
  auto loaded = LoadSessionCheckpoint(path, db_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unreadable format version"),
            std::string::npos)
      << loaded.status();

  Spit(path, "veritas-checkpoint 999\nend\n");
  loaded = LoadSessionCheckpoint(path, db_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unsupported format version 999"),
            std::string::npos)
      << loaded.status();
}

TEST_F(DurabilityFuzzTest, TrailerlessV1IsRejected) {
  // A well-formed checkpoint rewritten as v1: header version 1 and no
  // checksum trailer. It must fail typed, without being parsed unverified.
  std::string contents = Slurp(MakeValidCheckpointFile());
  const std::size_t trailer = contents.rfind("crc32c ");
  ASSERT_NE(trailer, std::string::npos);
  contents.erase(trailer);
  const std::string header = "veritas-checkpoint 2";
  ASSERT_EQ(contents.compare(0, header.size(), header), 0);
  contents.replace(0, header.size(), "veritas-checkpoint 1");
  const std::string path = dir_ + "/v1.txt";
  Spit(path, contents);
  const auto loaded = LoadSessionCheckpoint(path, db_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("unsupported format version 1"),
            std::string::npos)
      << loaded.status();
}

// Recovery-chain behaviour: a corrupted head falls back to `path.1`, bumps
// the checkpoint.recovered metric, and resuming from the recovered
// generation replays the session bit-exactly.
TEST_F(DurabilityFuzzTest, CorruptHeadRecoversFromTheRotatedChain) {
  const std::string path = dir_ + "/chain_ckpt.txt";

  // Two rounds of checkpointing: the second save rotates the first
  // generation to path.1.
  QbcStrategy strategy;
  PerfectOracle oracle;
  SessionOptions options;
  options.checkpoint_path = path;
  Rng rng(5);
  AccuFusion model;
  FeedbackSession session(db_, model, &strategy, &oracle, truth_, options,
                          &rng);
  const auto full = session.Run();
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(fs::exists(path + ".1"));

  const auto previous = LoadSessionCheckpoint(path + ".1", db_);
  ASSERT_TRUE(previous.ok()) << previous.status();

  // Corrupt the head; the loader must fall back to the .1 generation.
  std::string bytes = Slurp(path);
  bytes[bytes.size() / 2] ^= 0x20;
  Spit(path, bytes);

  Counter* recovered =
      MetricsRegistry::Global().GetCounter("checkpoint.recovered");
  const std::uint64_t recovered_before = recovered->value();
  const auto loaded = LoadSessionCheckpoint(path, db_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(recovered->value(), recovered_before + 1);
  EXPECT_EQ(loaded->num_validated, previous->num_validated);
  EXPECT_EQ(loaded->fusion.accuracies(), previous->fusion.accuracies());
  EXPECT_EQ(loaded->rng_state, previous->rng_state);

  // Resume from the damaged chain: the run completes and lands exactly
  // where the undamaged run did.
  QbcStrategy strategy2;
  PerfectOracle oracle2;
  SessionOptions resume_options;
  resume_options.resume_path = path;
  Rng rng2(5);
  FeedbackSession resumed_session(db_, model, &strategy2, &oracle2, truth_,
                                  resume_options, &rng2);
  const auto resumed = resumed_session.Run();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_EQ(resumed->steps.size(), full->steps.size());
  for (std::size_t s = 0; s < full->steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    EXPECT_EQ(resumed->steps[s].items, full->steps[s].items);
    EXPECT_EQ(resumed->steps[s].distance, full->steps[s].distance);
    EXPECT_EQ(resumed->steps[s].uncertainty, full->steps[s].uncertainty);
  }
  EXPECT_EQ(resumed->final_fusion.accuracies(),
            full->final_fusion.accuracies());
}

// When every generation is damaged the loader reports the head's error
// rather than inventing state.
TEST_F(DurabilityFuzzTest, FullyCorruptChainFailsWithTheHeadError) {
  const std::string path = dir_ + "/dead_ckpt.txt";
  Spit(path, "garbage head\n");
  Spit(path + ".1", "garbage gen 1\n");
  Spit(path + ".2", "garbage gen 2\n");
  const auto loaded = LoadSessionCheckpoint(path, db_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace veritas
