#ifndef FAIRGEN_TESTS_TEST_UTIL_H_
#define FAIRGEN_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace fairgen::testing_util {

/// \brief A temporary directory private to one running test: named after
/// the test and the process id, created on construction and removed with
/// its contents on destruction. ctest runs every gtest case as its own
/// process, several at once under `ctest -j`, so fixed file names under
/// `testing::TempDir()` collide between cases.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    const testing::TestInfo* info =
        testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "fairgen_";
    if (info != nullptr) {
      name += std::string(info->test_suite_name()) + "." + info->name() + ".";
    }
    name += std::to_string(::getpid());
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized test names
    }
    path_ = testing::TempDir() + "/" + name;
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  /// Path of `name` inside the directory.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace fairgen::testing_util

#endif  // FAIRGEN_TESTS_TEST_UTIL_H_
