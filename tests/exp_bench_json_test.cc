// Round-trip and merge semantics of the bench-JSON reader/writer. Several
// bench binaries share BENCH_fusion.json; MergeInto is what keeps one
// binary's run from clobbering another's records.
#include "exp/bench_json.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "test_dir.h"

namespace veritas {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(BenchJsonParseTest, RoundTripsRenderOutput) {
  BenchJsonFile file("veritas-bench-test-v1");
  file.SetMeta("scale", "small");
  file.Add("alpha")
      .Set("items", static_cast<std::size_t>(4000))
      .Set("ns_per_op", 1.25e6)
      .Set("dataset", "books")
      .Set("ok", true);
  file.Add("beta").Set("note", "escaped \"quote\"\nnewline");

  const std::string text = file.Render();
  Result<BenchJsonFile> parsed = BenchJsonFile::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Render(), text);
}

TEST(BenchJsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(BenchJsonFile::Parse("").ok());
  EXPECT_FALSE(BenchJsonFile::Parse("[]").ok());
  EXPECT_FALSE(BenchJsonFile::Parse("{\"records\": [{}]}").ok());  // No name.
  EXPECT_FALSE(
      BenchJsonFile::Parse("{\"records\": [{\"name\": \"a\", \"nested\": "
                           "{\"x\": 1}}]}")
          .ok());
  EXPECT_FALSE(BenchJsonFile::Parse("{\"schema\": \"s\"} trailing").ok());
}

TEST(BenchJsonMergeTest, CreatesFileWhenMissing) {
  const std::string path = TestPath("bench_merge_missing.json");
  std::remove(path.c_str());
  BenchJsonFile file("veritas-bench-test-v1");
  file.Add("solo").Set("value", 1.0);
  ASSERT_TRUE(file.MergeInto(path).ok());
  EXPECT_EQ(ReadFile(path), file.Render());
}

TEST(BenchJsonMergeTest, UpsertsByNameAndKeyFields) {
  const std::string path = TestPath("bench_merge_upsert.json");
  BenchJsonFile base("veritas-bench-test-v1");
  base.SetMeta("scale", "full");
  base.Add("sweep").Set("dataset", "books").Set("threads",
                                                static_cast<std::size_t>(1))
      .Set("seconds", 2.0);
  base.Add("sweep").Set("dataset", "books").Set("threads",
                                                static_cast<std::size_t>(2))
      .Set("seconds", 1.0);
  base.Add("other").Set("value", 7.0);
  ASSERT_TRUE(base.Write(path).ok());

  // Re-measure only (books, threads=2) and add (flights, threads=1): the
  // matching record is replaced in place, everything else is untouched.
  BenchJsonFile update("veritas-bench-test-v1");
  update.Add("sweep").Set("dataset", "books").Set("threads",
                                                  static_cast<std::size_t>(2))
      .Set("seconds", 0.5);
  update.Add("sweep").Set("dataset", "flights").Set("threads",
                                                    static_cast<std::size_t>(1))
      .Set("seconds", 3.0);
  ASSERT_TRUE(update.MergeInto(path, {"dataset", "threads"}).ok());

  Result<BenchJsonFile> merged = BenchJsonFile::Parse(ReadFile(path));
  ASSERT_TRUE(merged.ok()) << merged.status();
  const std::string text = merged->Render();
  EXPECT_NE(text.find("\"seconds\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"seconds\": 0.5"), std::string::npos);
  EXPECT_EQ(text.find("\"seconds\": 1,"), std::string::npos);
  EXPECT_EQ(text.find("\"seconds\": 1}"), std::string::npos);
  EXPECT_NE(text.find("\"dataset\": \"flights\""), std::string::npos);
  EXPECT_NE(text.find("\"other\""), std::string::npos);
  // Preserved meta from the original document.
  EXPECT_NE(text.find("\"scale\": \"full\""), std::string::npos);
  // Order: untouched records keep their positions, new ones append.
  EXPECT_LT(text.find("\"seconds\": 2"), text.find("\"seconds\": 0.5"));
  EXPECT_LT(text.find("\"other\""), text.find("flights"));
}

TEST(BenchJsonMergeTest, NameOnlyUpsertReplacesSingleton) {
  const std::string path = TestPath("bench_merge_name_only.json");
  BenchJsonFile base("veritas-bench-test-v1");
  base.Add("ingest").Set("obs_per_second", 100.0);
  base.Add("sweep").Set("threads", static_cast<std::size_t>(1));
  ASSERT_TRUE(base.Write(path).ok());

  BenchJsonFile update("veritas-bench-test-v1");
  update.Add("ingest").Set("obs_per_second", 250.0);
  ASSERT_TRUE(update.MergeInto(path).ok());

  const std::string text = ReadFile(path);
  EXPECT_NE(text.find("250"), std::string::npos);
  EXPECT_EQ(text.find("100"), std::string::npos);
  EXPECT_NE(text.find("\"sweep\""), std::string::npos);
}

TEST(BenchJsonMergeTest, ReplacesForeignFileOutright) {
  const std::string path = TestPath("bench_merge_foreign.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not json at all";
  }
  BenchJsonFile file("veritas-bench-test-v1");
  file.Add("fresh").Set("value", 1.0);
  ASSERT_TRUE(file.MergeInto(path).ok());
  EXPECT_EQ(ReadFile(path), file.Render());
}

}  // namespace
}  // namespace veritas
