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
// A destroyed clone's private memory checkpoint is not freed: it retires
// into a small pool of spare files, and the next copy of a source of the
// same size overwrites a spare's pages instead of allocating new ones
// (DESIGN.md §17).  The bytes and the accounting are those of a fresh copy.
//
// Paths are always relative to the root; ".." traversal and absolute paths
// are rejected, so a misbehaving test or plant cannot escape the sandbox.
// Every per-create and per-publish call joins its path as a plain string
// and runs POSIX calls on it; std::filesystem serves only the constructor,
// list_dir, copy_tree and remove (DESIGN.md §17).
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

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
  /// Spare checkpoints live in this store-private directory under the root,
  /// outside every clone and warehouse tree.
  static constexpr const char* kSpareDir = ".spare";
  /// Smallest file retired: memory checkpoints are megabytes, while the
  /// small per-clone artefacts (config, redo log) are not worth a slot.
  static constexpr std::uint64_t kSpareMinBytes = 1ull << 20;
  /// Bound on the bytes held by spares: at most 32 MiB of tmpfs memory (or
  /// page cache on a disk file system), eight 4 MiB checkpoints.
  static constexpr std::uint64_t kSpareMaxBytes = 32ull << 20;

  /// Creates the root directory if needed and sweeps spares left by an
  /// earlier store over the same root.
  explicit ArtifactStore(std::filesystem::path root);
  /// Removes this store's spares.
  ~ArtifactStore();
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  const std::filesystem::path& root() const { return root_; }

  // -- Path handling --------------------------------------------------------
  /// Resolve a store-relative path; fails on absolute paths or traversal.
  /// The result is the string `(root() / relative).string()` would give.
  util::Result<std::string> resolve(const std::string& relative) const;

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
  /// (a copy of a symlinked disk reads through the link, like cp does).  A
  /// non-sparse source of a spare's exact size is copied into that spare,
  /// renamed onto `to`.  A source that ends before its size fails.
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
  /// `spare`, if given, names one file directly under `relative` that
  /// retires into the spare pool instead of being unlinked when it
  /// qualifies (a regular, fully allocated, unshared file of at least
  /// kSpareMinBytes, within the pool bound); it is accounted as freed.
  util::Result<IoAccounting> remove_tree(const std::string& relative,
                                         std::string_view spare = {});

  /// Spare checkpoints held now.
  std::size_t spare_count() const {
    std::lock_guard<std::mutex> lock(spare_mutex_);
    return spares_.size();
  }

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

  struct Spare {
    std::uint64_t size;
    std::string path;
  };
  /// Moves file `name` of the open directory `dir` into the pool if it
  /// qualifies and fits; returns its size, or 0 when it stays where it is.
  std::uint64_t retire_spare(int dir, const std::string& name);
  /// Takes a spare of exactly `size` bytes out of the pool; empty if none.
  std::string take_spare(std::uint64_t size);

  std::filesystem::path root_;
  /// root_ with the separator operator/ would add: resolve() is one
  /// concatenation.
  std::string prefix_;
  /// The same for absolute(root_), computed once: link targets are stored
  /// absolute, and nothing in the process changes its working directory.
  std::string absolute_prefix_;
  /// Permission bits an O_CREAT target would not get: a recycled target is
  /// fchmod-ed to the source's bits minus these, as a new file would be.
  mode_t umask_ = 022;
  /// "<root>/.spare/<pid>-": a spare's name adds a process-wide sequence
  /// number, so stores of two processes never pick the same name.
  std::string spare_prefix_;
  mutable std::mutex lifetime_mutex_;
  IoAccounting lifetime_;
  mutable std::mutex spare_mutex_;
  std::vector<Spare> spares_;
  /// Bytes of the spares held plus those being retired right now.
  std::uint64_t spare_bytes_ = 0;
};

}  // namespace vmp::storage
