// Per-process scratch paths for tests that write files.
//
// gtest_discover_tests runs every TEST in its own process and `ctest -j`
// runs those processes concurrently, so a fixed name under
// ::testing::TempDir() is shared by every test that uses it: one process's
// remove_all deletes another's inputs mid-run. Every path handed out here
// lives under a directory named for the calling process instead.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>

namespace saintdroid {

/// `name` under this process's own scratch directory, which is created on
/// first use. The path itself is not created or cleared.
inline std::string process_temp_path(std::string_view name) {
  static const std::string root = [] {
    std::string dir = ::testing::TempDir() + "saintdroid-tests-" +
                      std::to_string(::getpid()) + "/";
    std::filesystem::create_directories(dir);
    return dir;
  }();
  return root + std::string{name};
}

}  // namespace saintdroid
