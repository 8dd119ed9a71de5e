// Tests of the crash-safe write helper and the CRC-32C checksum it backs.
#include "util/durable_file.h"
#include "test_dir.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace veritas {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(Crc32cTest, MatchesTheReferenceCheckVector) {
  // The canonical CRC-32C check value ("123456789" -> 0xE3069283), shared by
  // iSCSI, leveldb, and the SSE4.2 crc32 instruction.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32cTest, EmptyInputIsZero) { EXPECT_EQ(Crc32c(""), 0u); }

TEST(Crc32cTest, SeedChainsPartialChecksums) {
  const std::string a = "stage the feedback, ";
  const std::string b = "resolve the conflicts";
  EXPECT_EQ(Crc32c(b, Crc32c(a)), Crc32c(a + b));
}

TEST(Crc32cTest, SingleBitFlipChangesTheChecksum) {
  std::string data = "veritas-checkpoint payload";
  const std::uint32_t clean = Crc32c(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    data[byte] ^= 0x01;
    EXPECT_NE(Crc32c(data), clean) << "flip at byte " << byte;
    data[byte] ^= 0x01;
  }
}

TEST(AtomicWriteFileTest, WritesNewFile) {
  const std::string path = TestPath("durable_new.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(AtomicWriteFile(path, "hello durable world\n").ok());
  EXPECT_EQ(Slurp(path), "hello durable world\n");
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, ReplacesExistingFileCompletely) {
  const std::string path = TestPath("durable_replace.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "a much longer first version\n").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "short\n").ok());
  EXPECT_EQ(Slurp(path), "short\n");  // No tail of the old contents.
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, LeavesNoTempLitterOnSuccess) {
  namespace fs = std::filesystem;
  const std::string dir = TestPath("durable_clean_dir");
  fs::create_directory(dir);
  const std::string path = dir + "/artifact.json";
  ASSERT_TRUE(AtomicWriteFile(path, "{}\n").ok());
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "artifact.json");
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

TEST(AtomicWriteFileTest, FailsCleanlyWhenDirectoryDoesNotExist) {
  namespace fs = std::filesystem;
  const std::string dir = TestPath("durable_no_such_dir");
  fs::remove_all(dir);
  const Status status = AtomicWriteFile(dir + "/x.txt", "data");
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(fs::exists(dir));  // No resurrected directory, no litter.
}

TEST(AtomicWriteFileTest, FailureDoesNotTouchThePreviousFile) {
  // Writing "through" an existing file as if it were a directory fails; the
  // original file must survive unmodified.
  const std::string path = TestPath("durable_keep.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "precious\n").ok());
  EXPECT_FALSE(AtomicWriteFile(path + "/sub.txt", "clobber").ok());
  EXPECT_EQ(Slurp(path), "precious\n");
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, UnsyncedModeStillWritesAtomically) {
  const std::string path = TestPath("durable_nosync.txt");
  AtomicWriteOptions options;
  options.sync = false;
  ASSERT_TRUE(AtomicWriteFile(path, "fast path\n", options).ok());
  EXPECT_EQ(Slurp(path), "fast path\n");
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, HandlesLargeContents) {
  const std::string path = TestPath("durable_large.bin");
  std::string contents;
  contents.reserve(1 << 20);
  for (int i = 0; contents.size() < (1u << 20); ++i) {
    contents += "chunk " + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(AtomicWriteFile(path, contents).ok());
  EXPECT_EQ(Slurp(path), contents);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace veritas
