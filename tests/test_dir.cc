#include "test_dir.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

namespace veritas {
namespace {

namespace fs = std::filesystem;

std::string DirFor(const ::testing::TestInfo& info) {
  std::string name = std::string(info.test_suite_name()) + "." + info.name();
  for (char& c : name) {
    if (c == '/') c = '_';  // Parameterized names contain slashes.
  }
  return ::testing::TempDir() + "/veritas_test." + name + "." +
         std::to_string(::getpid());
}

// Empties the directory before each test (a recycled pid may have left one
// behind) and removes it after each passing test.
class TestDirCleaner : public ::testing::EmptyTestEventListener {
  void OnTestStart(const ::testing::TestInfo& info) override {
    std::error_code ec;
    fs::remove_all(DirFor(info), ec);
  }
  void OnTestEnd(const ::testing::TestInfo& info) override {
    if (info.result() == nullptr || !info.result()->Passed()) return;
    std::error_code ec;
    fs::remove_all(DirFor(info), ec);
  }
};

[[maybe_unused]] const bool kCleanerInstalled = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new TestDirCleaner);
  return true;
}();

}  // namespace

std::string TestDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir =
      info != nullptr ? DirFor(*info)
                      : ::testing::TempDir() + "/veritas_test." +
                            std::to_string(::getpid());
  fs::create_directories(dir);
  return dir;
}

}  // namespace veritas
