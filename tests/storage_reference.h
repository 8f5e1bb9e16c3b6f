// Reference store queries for the storage tests.
//
// The std::filesystem implementations ArtifactStore's walk and queries
// replaced: tree_footprint over recursive_directory_iterator with a
// symlink_status / is_regular_file / file_size probe per entry, and the
// exists / is_symlink / file_size / logical_size probes over
// std::filesystem calls.  Each takes the absolute path the store resolves
// plus the store-relative name its error texts quote.  They are the oracle
// the differential tests compare the POSIX versions against: the same
// values, the same error codes and byte-identical error texts.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>

#include "storage/artifact_store.h"
#include "util/error.h"

namespace vmp::storage_reference {

namespace fs = std::filesystem;
using storage::TreeFootprint;
using util::Error;
using util::ErrorCode;
using util::Result;

inline bool exists(const fs::path& p) {
  std::error_code ec;
  // symlink_status: a dangling symlink still "exists" as an artefact.
  return fs::symlink_status(p, ec).type() != fs::file_type::not_found && !ec;
}

inline bool is_symlink(const fs::path& p) {
  std::error_code ec;
  return fs::is_symlink(p, ec) && !ec;
}

inline Result<std::uint64_t> file_size(const fs::path& p,
                                       const std::string& relative) {
  std::error_code ec;
  if (fs::is_symlink(p, ec)) return std::uint64_t{0};  // link itself
  const auto size = fs::file_size(p, ec);
  if (ec) {
    return Result<std::uint64_t>(Error(
        ErrorCode::kNotFound, "file_size(" + relative + "): " + ec.message()));
  }
  return static_cast<std::uint64_t>(size);
}

inline Result<std::uint64_t> logical_size(const fs::path& p,
                                          const std::string& relative) {
  std::error_code ec;
  if (fs::is_symlink(p, ec) && !fs::exists(p, ec)) {
    return Result<std::uint64_t>(
        Error(ErrorCode::kFailedPrecondition,
              "logical_size(" + relative + "): dangling symlink (target " +
                  fs::read_symlink(p, ec).string() + " is gone)"));
  }
  const auto size = fs::file_size(p, ec);  // follows symlinks
  if (ec) {
    return Result<std::uint64_t>(
        Error(ErrorCode::kNotFound,
              "logical_size(" + relative + "): " + ec.message()));
  }
  return static_cast<std::uint64_t>(size);
}

inline Result<TreeFootprint> tree_footprint(const fs::path& p,
                                            const std::string& relative) {
  std::error_code ec;
  const auto status = fs::symlink_status(p, ec);
  if (ec || status.type() == fs::file_type::not_found) {
    return Result<TreeFootprint>(
        Error(ErrorCode::kNotFound, "tree_footprint(" + relative + "): " +
                                        (ec ? ec.message() : "no such path")));
  }
  TreeFootprint fp;
  auto add_entry = [&fp](const fs::path& path) {
    std::error_code entry_ec;
    if (fs::is_symlink(path, entry_ec)) {
      ++fp.links;
      return;
    }
    if (fs::is_regular_file(path, entry_ec)) {
      ++fp.files;
      const auto size = fs::file_size(path, entry_ec);
      if (!entry_ec) fp.physical_bytes += static_cast<std::uint64_t>(size);
    }
  };
  if (status.type() == fs::file_type::directory) {
    for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
      add_entry(entry.path());
    }
    if (ec) {
      return Result<TreeFootprint>(
          Error(ErrorCode::kInternal,
                "tree_footprint(" + relative + ") walk: " + ec.message()));
    }
  } else {
    add_entry(p);
  }
  return fp;
}

}  // namespace vmp::storage_reference
