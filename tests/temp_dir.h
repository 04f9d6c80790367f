// A scratch directory for tests: created empty under the system temp
// directory, removed with everything in it when the object goes out of
// scope, so a test run leaves nothing behind in /tmp.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace dsadc::testing_ref {

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix = "dsadc-test") {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / (prefix + "-XXXXXX"))
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + tmpl);
    }
    path_ = std::move(tmpl);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace dsadc::testing_ref
