// One scratch directory per running test, for every test that writes files.
//
// ctest runs each discovered test case as its own process, and the
// aggregate concurrency_suite runs the same cases again in parallel, so a
// fixed path under ::testing::TempDir() is shared by sibling processes that
// overwrite or remove each other's files. TestDir() is named from the
// test's full name and the process id instead, so no two running tests
// share it. The directory starts empty and is removed when its test passes
// (a failing test leaves it behind for inspection).
#ifndef VERITAS_TESTS_TEST_DIR_H_
#define VERITAS_TESTS_TEST_DIR_H_

#include <string>

namespace veritas {

/// The current test's directory, created on first use.
std::string TestDir();

/// `name` inside TestDir().
inline std::string TestPath(const std::string& name) {
  return TestDir() + "/" + name;
}

}  // namespace veritas

#endif  // VERITAS_TESTS_TEST_DIR_H_
