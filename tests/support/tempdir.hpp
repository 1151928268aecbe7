// tempdir.hpp - one private scratch directory per test process.
//
// ctest runs every gtest case as its own process, many at once, and
// ::testing::TempDir() is one directory they all share: two cases that
// both write "<TempDir>/pool_submit" race each other. Tests take their
// paths from here instead. The directory is created on first use under a
// unique name and removed, with everything in it, when the process exits.
// `scripts/tdpsa` rejects a TempDir() joined to a string literal in tests.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace tdp::testdir {

/// This process's directory (absolute, no trailing slash).
inline const std::string& root() {
  struct Dir {
    std::string path;
    pid_t owner = ::getpid();
    Dir() {
      std::string pattern =
          (std::filesystem::path(::testing::TempDir()) / "tdp-test-XXXXXX").string();
      if (::mkdtemp(pattern.data()) == nullptr) {
        ADD_FAILURE() << "mkdtemp(" << pattern << ") failed";
      }
      path = pattern;
    }
    ~Dir() {
      // A forked child that exits through here must not delete the
      // parent's files.
      if (::getpid() != owner) return;
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// `root()/name` for a file or directory the test creates itself.
inline std::string path(const std::string& name) { return root() + "/" + name; }

/// `root()/name`, created empty (whatever an earlier case left is removed).
inline std::string fresh(const std::string& name) {
  const std::string dir = path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace tdp::testdir
