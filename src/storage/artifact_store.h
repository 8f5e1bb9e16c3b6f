// Sandbox-rooted filesystem operations for VM artefacts.
//
// Everything the warehouse and production lines touch on disk goes through
// an ArtifactStore rooted at a sandbox directory.  The store exposes exactly
// the operations the paper's cloning mechanics need — sparse file creation
// (virtual disks), symlinks (link-based cloning of non-persistent disks),
// copies (memory state, which VMware GSX forces to be copied), and tree
// removal (collecting a VM) — and accounts bytes moved so the simulated
// cluster can charge transfer time for them.
//
// Paths are always relative to the root; ".." traversal and absolute paths
// are rejected, so a misbehaving test or plant cannot escape the sandbox.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.h"

namespace vmp::storage {

/// Byte-accounting for one operation, consumed by the timing model.
struct IoAccounting {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t files_touched = 0;
  std::uint64_t links_created = 0;
  /// Physical bytes released by a removal (symlink-aware: a removed link
  /// frees nothing of its target).  Consumed by the warehouse quota ledger
  /// and by the timing model's deletion cost.
  std::uint64_t bytes_freed = 0;

  IoAccounting& operator+=(const IoAccounting& other);
};

/// Physical footprint of a directory tree, symlink-aware: regular files
/// charge their apparent size (the simulation's convention — sparse files
/// bill as if real), symlinks charge zero (their targets are billed where
/// they physically live).  This is what a golden image "costs" the
/// warehouse's disk budget.
struct TreeFootprint {
  std::uint64_t physical_bytes = 0;
  std::uint64_t files = 0;
  std::uint64_t links = 0;
};

class ArtifactStore {
 public:
  /// Creates the root directory if needed.
  explicit ArtifactStore(std::filesystem::path root);

  const std::filesystem::path& root() const { return root_; }

  // -- Path handling --------------------------------------------------------
  /// Resolve a store-relative path; fails on absolute paths or traversal.
  util::Result<std::filesystem::path> resolve(const std::string& relative) const;

  // -- Queries --------------------------------------------------------------
  bool exists(const std::string& relative) const;
  bool is_symlink(const std::string& relative) const;
  util::Result<std::uint64_t> file_size(const std::string& relative) const;
  /// Logical size: symlinks report the size of their target.  A dangling
  /// symlink is an explicit error (kFailedPrecondition) rather than a
  /// generic lookup failure — callers that see it are usually holding a
  /// stale reference to an evicted or half-removed base image.
  util::Result<std::uint64_t> logical_size(const std::string& relative) const;
  util::Result<std::vector<std::string>> list_dir(const std::string& relative) const;

  /// Physical footprint of a directory tree (see TreeFootprint).  Also
  /// accepts a single file or symlink.
  util::Result<TreeFootprint> tree_footprint(const std::string& relative) const;

  // -- Mutations ------------------------------------------------------------
  util::Status make_dir(const std::string& relative);

  /// Create a file of `size` bytes.  Written sparsely (seek + one byte) so
  /// multi-gigabyte "virtual disks" cost no real disk space in tests.
  util::Result<IoAccounting> create_sparse_file(const std::string& relative,
                                                std::uint64_t size);

  /// Write full content (small artefacts: configs, descriptors, scripts).
  util::Result<IoAccounting> write_file(const std::string& relative,
                                        const std::string& content);
  util::Result<std::string> read_file(const std::string& relative) const;

  /// Append to a file (redo logs grow during a VM session).
  util::Result<IoAccounting> append_file(const std::string& relative,
                                         const std::string& content);

  /// Copy a file; the accounting reports its logical size as read+written
  /// (a copy of a symlinked disk reads through the link, like cp does).
  util::Result<IoAccounting> copy_file(const std::string& from,
                                       const std::string& to);

  /// Symbolic link `to` -> existing `from` (both store-relative).  This is
  /// the paper's cheap clone path for non-persistent virtual disks.
  util::Result<IoAccounting> link_file(const std::string& from,
                                       const std::string& to);

  /// Recursively copy a directory: regular files via copy_file (sparse
  /// sources stay sparse, accounting charges logical bytes), symlinks are
  /// recreated pointing at the same target.  Used by VM migration, where a
  /// suspended clone directory moves between plants' clone areas.
  util::Result<IoAccounting> copy_tree(const std::string& from,
                                       const std::string& to);

  util::Status remove(const std::string& relative);

  /// Recursively delete a tree; reports the physical bytes it freed
  /// (symlink-aware, like tree_footprint).  Removing a missing path
  /// succeeds and frees nothing, so cleanup paths stay idempotent.  The
  /// walk measures and deletes in one pass and never follows a symlink, so
  /// removing a linked clone cannot reach into its golden image.
  util::Result<IoAccounting> remove_tree(const std::string& relative);

  // -- Aggregate accounting ---------------------------------------------------
  /// Snapshot (by value: concurrent operations keep accumulating while the
  /// caller reads — plants clone in parallel through one store).
  IoAccounting lifetime_accounting() const {
    std::lock_guard<std::mutex> lock(lifetime_mutex_);
    return lifetime_;
  }

 private:
  void account(const IoAccounting& acct) {
    std::lock_guard<std::mutex> lock(lifetime_mutex_);
    lifetime_ += acct;
  }

  std::filesystem::path root_;
  /// absolute(root_), computed once: link targets are stored absolute, and
  /// nothing in the process changes its working directory.
  std::filesystem::path absolute_root_;
  mutable std::mutex lifetime_mutex_;
  IoAccounting lifetime_;
};

}  // namespace vmp::storage
