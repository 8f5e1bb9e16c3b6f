// Unit tests for the artifact store, disk model, image layout, and the
// link-vs-copy cloning mechanics.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "fault/fault.h"
#include "storage/artifact_store.h"
#include "storage/clone_ops.h"
#include "storage/disk.h"
#include "storage/image_layout.h"
#include "storage_reference.h"
#include "util/random.h"

namespace vmp::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-storage-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<ArtifactStore>(root_);
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  // Seeded random trees for the walk tests: nested directories, plain and
  // sparse files, links to files and directories inside and outside the
  // tree, dangling links.

  /// Link targets outside every tree; they must all survive.
  const std::map<std::string, std::string> outside_files_ = {
      {"outside/f0", "outside-file-0"},
      {"outside/f1", "outside-file-1"},
      {"outside/d/a", "dir-entry-a"},
      {"outside/d/sub/b", "dir-entry-b"}};
  const std::vector<std::string> outside_dirs_ = {"outside/d",
                                                  "outside/d/sub"};

  void make_outside_targets() {
    for (const auto& [path, content] : outside_files_) {
      ASSERT_TRUE(store_->write_file(path, content).ok());
    }
  }

  /// Builds tree `tree` from `seed` over make_outside_targets()'s files;
  /// `entries` receives every entry under it, in creation order.
  void build_random_tree(const std::string& tree, std::uint64_t seed,
                         std::vector<std::string>* entries) {
    util::SplitMix64 rng(seed);
    ASSERT_TRUE(store_->make_dir(tree).ok());
    std::vector<std::string> dirs = {tree};
    std::vector<std::string> files;
    for (int i = 0; i < 48; ++i) {
      const std::string parent = dirs[rng.next_below(dirs.size())];
      const std::string path = parent + "/e" + std::to_string(i);
      entries->push_back(path);
      switch (rng.next_below(8)) {
        case 0:
        case 1:
          ASSERT_TRUE(store_->make_dir(path).ok());
          dirs.push_back(path);
          break;
        case 2:
        case 3:
          ASSERT_TRUE(store_->write_file(
                                path, std::string(rng.next_below(5000), 'x'))
                          .ok());
          files.push_back(path);
          break;
        case 4:
          ASSERT_TRUE(store_->create_sparse_file(path, 2ull << 20).ok());
          files.push_back(path);
          break;
        case 5: {  // link to a file, inside or outside the tree
          const bool inside = !files.empty() && rng.next_below(2) == 0;
          const std::string target =
              inside ? files[rng.next_below(files.size())]
                     : (rng.next_below(2) ? "outside/f0" : "outside/f1");
          ASSERT_TRUE(store_->link_file(target, path).ok());
          break;
        }
        case 6: {  // link to a directory, inside or outside the tree
          const std::string target =
              rng.next_below(2) ? dirs[rng.next_below(dirs.size())]
                                : outside_dirs_[rng.next_below(2)];
          ASSERT_TRUE(store_->link_file(target, path).ok());
          break;
        }
        default:  // dangling link
          ASSERT_EQ(::symlink((root_ / "gone").c_str(),
                              store_->resolve(path).value().c_str()),
                    0);
          break;
      }
    }
  }

  std::filesystem::path root_;
  std::unique_ptr<ArtifactStore> store_;
};

// -- Path safety --------------------------------------------------------------

TEST_F(StorageTest, RejectsAbsolutePaths) {
  EXPECT_FALSE(store_->resolve("/etc/passwd").ok());
  EXPECT_FALSE(store_->write_file("/etc/shadow", "x").ok());
}

TEST_F(StorageTest, RejectsTraversal) {
  EXPECT_FALSE(store_->resolve("../outside").ok());
  EXPECT_FALSE(store_->resolve("a/../../b").ok());
}

TEST_F(StorageTest, ResolvesRelativePaths) {
  auto p = store_->resolve("a/b/c.txt");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), root_ / "a/b/c.txt");
}

// resolve() is one string concatenation; it must give the text the
// std::filesystem join gives, whatever the root's spelling, and link
// targets must stay absolute under a relative root.
TEST_F(StorageTest, ResolveJoinsLikeFilesystemPath) {
  namespace fs = std::filesystem;
  const std::vector<fs::path> roots = {
      root_ / "plain", fs::path((root_ / "slash").string() + "/"),
      fs::relative(root_ / "relative", fs::current_path())};
  ASSERT_TRUE(roots[2].is_relative()) << roots[2];
  const std::vector<std::string> inputs = {
      "", "a", "a/", "a//b", "./a", "a/./b", ".", "a/b/c.txt",
      std::string(200, 'n')};
  for (const fs::path& root : roots) {
    SCOPED_TRACE("root " + root.string());
    ArtifactStore store(root);
    for (const std::string& input : inputs) {
      auto resolved = store.resolve(input);
      ASSERT_TRUE(resolved.ok()) << input;
      EXPECT_EQ(resolved.value(), (root / input).string()) << input;
    }
    auto absolute = store.resolve("/etc/passwd");
    ASSERT_FALSE(absolute.ok());
    EXPECT_EQ(absolute.error().code(), util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(absolute.error().message(),
              "absolute path not allowed in store: /etc/passwd");
    auto traversal = store.resolve("a/../../b");
    ASSERT_FALSE(traversal.ok());
    EXPECT_EQ(traversal.error().code(), util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(traversal.error().message(),
              "path traversal not allowed in store: a/../../b");

    ASSERT_TRUE(store.write_file("golden/disk", "DISK").ok());
    ASSERT_TRUE(store.link_file("golden/disk", "clone/disk").ok());
    const fs::path target = fs::read_symlink(root / "clone/disk");
    EXPECT_TRUE(target.is_absolute()) << target;
    EXPECT_EQ(target.string(), (fs::absolute(root) / "golden/disk").string());
    EXPECT_EQ(store.read_file("clone/disk").value(), "DISK");
  }
}

// -- Files -------------------------------------------------------------------

TEST_F(StorageTest, WriteReadRoundTrip) {
  ASSERT_TRUE(store_->write_file("dir/file.txt", "hello\nworld").ok());
  auto content = store_->read_file("dir/file.txt");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "hello\nworld");
  EXPECT_TRUE(store_->exists("dir/file.txt"));
  EXPECT_FALSE(store_->exists("dir/other.txt"));
}

TEST_F(StorageTest, ReadMissingFileFails) {
  EXPECT_FALSE(store_->read_file("nope").ok());
}

TEST_F(StorageTest, AppendGrowsFile) {
  ASSERT_TRUE(store_->write_file("log", "a").ok());
  ASSERT_TRUE(store_->append_file("log", "b").ok());
  EXPECT_EQ(store_->read_file("log").value(), "ab");
}

TEST_F(StorageTest, SparseFileHasLogicalSizeWithoutDiskUse) {
  const std::uint64_t gb = 1ull << 30;
  auto acct = store_->create_sparse_file("disk.vmdk", 2 * gb);
  ASSERT_TRUE(acct.ok());
  EXPECT_EQ(acct.value().bytes_written, 2 * gb);
  EXPECT_EQ(store_->file_size("disk.vmdk").value(), 2 * gb);
  // Allocated blocks must be tiny (the point of sparseness).
  struct stat st {};
  ASSERT_EQ(::stat((root_ / "disk.vmdk").c_str(), &st), 0);
  EXPECT_LT(static_cast<std::uint64_t>(st.st_blocks) * 512, 1ull << 20);
}

TEST_F(StorageTest, CopySmallFileIsReal) {
  ASSERT_TRUE(store_->write_file("src", "content").ok());
  auto acct = store_->copy_file("src", "dst");
  ASSERT_TRUE(acct.ok());
  EXPECT_EQ(acct.value().bytes_read, 7u);
  EXPECT_EQ(store_->read_file("dst").value(), "content");
}

TEST_F(StorageTest, CopySparseFileStaysSparseButAccountsLogicalBytes) {
  const std::uint64_t mb256 = 256ull << 20;
  ASSERT_TRUE(store_->create_sparse_file("memory.vmss", mb256).ok());
  auto acct = store_->copy_file("memory.vmss", "clone/memory.vmss");
  ASSERT_TRUE(acct.ok());
  EXPECT_EQ(acct.value().bytes_written, mb256);
  EXPECT_EQ(store_->file_size("clone/memory.vmss").value(), mb256);
  struct stat st {};
  ASSERT_EQ(::stat((root_ / "clone/memory.vmss").c_str(), &st), 0);
  EXPECT_LT(static_cast<std::uint64_t>(st.st_blocks) * 512, 1ull << 20);
}

TEST_F(StorageTest, CopyMissingSourceFails) {
  auto copied = store_->copy_file("missing", "dst");
  ASSERT_FALSE(copied.ok());
  EXPECT_EQ(copied.error().code(), util::ErrorCode::kNotFound);
  EXPECT_EQ(copied.error().message(),
            "logical_size(missing): No such file or directory");
  EXPECT_FALSE(store_->exists("dst"));
}

TEST_F(StorageTest, CopyIsByteExactOnMultiMiBSource) {
  util::SplitMix64 rng(7);
  std::string data((3u << 20) + 12345, '\0');
  for (char& c : data) c = static_cast<char>(rng.next_u64());
  ASSERT_TRUE(store_->write_file("golden/memory.vmss", data).ok());
  auto acct = store_->copy_file("golden/memory.vmss", "clone/memory.vmss");
  ASSERT_TRUE(acct.ok()) << acct.error().to_string();
  EXPECT_EQ(acct.value().bytes_read, data.size());
  EXPECT_EQ(acct.value().bytes_written, data.size());
  EXPECT_EQ(acct.value().files_touched, 2u);
  EXPECT_TRUE(store_->read_file("clone/memory.vmss").value() == data);
}

TEST_F(StorageTest, CopyOverwritesExistingTarget) {
  ASSERT_TRUE(store_->write_file("src", "short").ok());
  ASSERT_TRUE(store_->write_file("dst", "a much longer old content").ok());
  ASSERT_TRUE(store_->copy_file("src", "dst").ok());
  EXPECT_EQ(store_->read_file("dst").value(), "short");
}

TEST_F(StorageTest, CopyCreatesMissingParents) {
  ASSERT_TRUE(store_->write_file("src", "content").ok());
  ASSERT_TRUE(store_->copy_file("src", "a/b/c/dst").ok());
  EXPECT_EQ(store_->read_file("a/b/c/dst").value(), "content");
}

TEST_F(StorageTest, CopyOntoItselfThroughLinkKeepsSource) {
  ASSERT_TRUE(store_->write_file("src", "precious").ok());
  ASSERT_TRUE(store_->link_file("src", "alias").ok());
  auto copied = store_->copy_file("src", "alias");
  ASSERT_FALSE(copied.ok());
  EXPECT_EQ(copied.error().code(), util::ErrorCode::kInternal);
  EXPECT_EQ(store_->read_file("src").value(), "precious");
}

TEST_F(StorageTest, CopyDanglingSymlinkKeepsErrorCodeAndText) {
  ASSERT_TRUE(store_->write_file("t/a", "12345").ok());
  ASSERT_TRUE(store_->link_file("t/a", "t/link").ok());
  ASSERT_TRUE(store_->remove("t/a").ok());
  auto copied = store_->copy_file("t/link", "clone/x");
  ASSERT_FALSE(copied.ok());
  EXPECT_EQ(copied.error().code(), util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(copied.error().message(),
            "logical_size(t/link): dangling symlink (target " +
                (std::filesystem::absolute(root_) / "t/a").string() +
                " is gone)");
  EXPECT_FALSE(store_->exists("clone/x"));
}

// Writes that the device refuses (ENOSPC) fail and charge nothing.
TEST_F(StorageTest, WritesToFullDeviceFail) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ASSERT_EQ(::symlink("/dev/full", (root_ / "full").c_str()), 0);
  const std::uint64_t before = store_->lifetime_accounting().bytes_written;
  auto written = store_->write_file("full", "payload");
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.error().code(), util::ErrorCode::kInternal);
  auto appended = store_->append_file("full", "payload");
  ASSERT_FALSE(appended.ok());
  EXPECT_EQ(appended.error().code(), util::ErrorCode::kInternal);
  EXPECT_EQ(store_->lifetime_accounting().bytes_written, before);
}

// -- Links --------------------------------------------------------------------

TEST_F(StorageTest, LinkCreatesSymlinkReadThrough) {
  ASSERT_TRUE(store_->write_file("golden/disk", "DISKDATA").ok());
  auto acct = store_->link_file("golden/disk", "clone/disk");
  ASSERT_TRUE(acct.ok());
  EXPECT_EQ(acct.value().links_created, 1u);
  EXPECT_EQ(acct.value().bytes_written, 0u);
  EXPECT_TRUE(store_->is_symlink("clone/disk"));
  EXPECT_FALSE(store_->is_symlink("golden/disk"));
  EXPECT_EQ(store_->read_file("clone/disk").value(), "DISKDATA");
  // file_size of a symlink reports 0 (link itself); logical follows.
  EXPECT_EQ(store_->file_size("clone/disk").value(), 0u);
  EXPECT_EQ(store_->logical_size("clone/disk").value(), 8u);
}

TEST_F(StorageTest, LinkMissingSourceFails) {
  EXPECT_FALSE(store_->link_file("missing", "clone/x").ok());
}

TEST_F(StorageTest, LinkIntoMissingParentDirectory) {
  ASSERT_TRUE(store_->write_file("golden/disk", "DISKDATA").ok());
  ASSERT_TRUE(store_->link_file("golden/disk", "a/b/clone/disk").ok());
  EXPECT_TRUE(store_->is_symlink("a/b/clone/disk"));
  EXPECT_EQ(store_->read_file("a/b/clone/disk").value(), "DISKDATA");
}

// -- Directory ops ---------------------------------------------------------------

TEST_F(StorageTest, ListDirSorted) {
  ASSERT_TRUE(store_->write_file("d/b", "").ok());
  ASSERT_TRUE(store_->write_file("d/a", "").ok());
  ASSERT_TRUE(store_->write_file("d/c", "").ok());
  auto entries = store_->list_dir("d");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(StorageTest, RemoveTreeDeletesEverything) {
  ASSERT_TRUE(store_->write_file("t/x/y", "1").ok());
  ASSERT_TRUE(store_->remove_tree("t").ok());
  EXPECT_FALSE(store_->exists("t"));
}

TEST_F(StorageTest, RemoveTreeAccountsPhysicalBytesFreed) {
  ASSERT_TRUE(store_->write_file("t/a", "12345").ok());
  ASSERT_TRUE(store_->write_file("t/sub/b", "678").ok());
  // A symlink frees zero physical bytes; its target is billed elsewhere.
  ASSERT_TRUE(store_->link_file("t/a", "t/link").ok());
  auto removed = store_->remove_tree("t");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value().bytes_freed, 8u);
  EXPECT_EQ(removed.value().files_touched, 3u);  // a, b, link
  // Idempotent: a second removal frees nothing and still succeeds.
  auto again = store_->remove_tree("t");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().bytes_freed, 0u);
}

TEST_F(StorageTest, TreeFootprintIsSymlinkAware) {
  ASSERT_TRUE(store_->write_file("t/a", "12345").ok());
  ASSERT_TRUE(store_->link_file("t/a", "t/link").ok());
  auto footprint = store_->tree_footprint("t");
  ASSERT_TRUE(footprint.ok());
  EXPECT_EQ(footprint.value().physical_bytes, 5u);
  EXPECT_EQ(footprint.value().files, 1u);
  EXPECT_EQ(footprint.value().links, 1u);
}

TEST_F(StorageTest, DanglingSymlinkLogicalSizeIsExplicitError) {
  ASSERT_TRUE(store_->write_file("t/a", "12345").ok());
  ASSERT_TRUE(store_->link_file("t/a", "t/link").ok());
  ASSERT_TRUE(store_->remove("t/a").ok());
  auto size = store_->logical_size("t/link");
  ASSERT_FALSE(size.ok());
  EXPECT_EQ(size.error().code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(StorageTest, RemoveTreeOfDirectoryLinkRemovesOnlyTheLink) {
  ASSERT_TRUE(store_->write_file("golden/disk", "DISK").ok());
  ASSERT_TRUE(store_->link_file("golden", "clone").ok());
  auto removed = store_->remove_tree("clone");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value().bytes_freed, 0u);
  EXPECT_EQ(removed.value().files_touched, 1u);
  EXPECT_FALSE(store_->exists("clone"));
  EXPECT_EQ(store_->read_file("golden/disk").value(), "DISK");
}

TEST_F(StorageTest, RemoveTreeOfSingleFileChargesItsSize) {
  ASSERT_TRUE(store_->write_file("f", "12345").ok());
  auto removed = store_->remove_tree("f");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value().bytes_freed, 5u);
  EXPECT_EQ(removed.value().files_touched, 1u);
  EXPECT_FALSE(store_->exists("f"));
}

// Over seeded random trees, the one-pass removal reports exactly the
// footprint measured just before it, and never deletes through a link.
TEST_F(StorageTest, RemoveTreeAccountingMatchesFootprintOnRandomTrees) {
  ASSERT_NO_FATAL_FAILURE(make_outside_targets());
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string tree = "t" + std::to_string(seed);
    std::vector<std::string> entries;
    ASSERT_NO_FATAL_FAILURE(build_random_tree(tree, seed, &entries));
    auto footprint = store_->tree_footprint(tree);
    ASSERT_TRUE(footprint.ok());
    auto removed = store_->remove_tree(tree);
    ASSERT_TRUE(removed.ok()) << removed.error().to_string();
    EXPECT_EQ(removed.value().bytes_freed, footprint.value().physical_bytes);
    EXPECT_EQ(removed.value().files_touched,
              footprint.value().files + footprint.value().links);
    EXPECT_FALSE(store_->exists(tree));
    for (const auto& [path, content] : outside_files_) {
      auto read = store_->read_file(path);
      ASSERT_TRUE(read.ok()) << path;
      EXPECT_EQ(read.value(), content);
    }
  }
}

/// Expects the store's answer and the std::filesystem reference's to agree:
/// both succeed with equal values, or both fail with the same code and text.
template <typename T, typename Same>
void expect_same_result(const util::Result<T>& got, const util::Result<T>& want,
                        const std::string& what, Same same) {
  ASSERT_EQ(got.ok(), want.ok())
      << what << ": " << (got.ok() ? want : got).error().to_string();
  if (got.ok()) {
    EXPECT_TRUE(same(got.value(), want.value())) << what;
  } else {
    EXPECT_EQ(got.error().code(), want.error().code()) << what;
    EXPECT_EQ(got.error().message(), want.error().message()) << what;
  }
}

bool same_footprint(const TreeFootprint& a, const TreeFootprint& b) {
  return a.physical_bytes == b.physical_bytes && a.files == b.files &&
         a.links == b.links;
}

/// Every query and the footprint of `relative`, against the reference.
void expect_queries_match_reference(const ArtifactStore& store,
                                    const std::string& relative) {
  namespace ref = storage_reference;
  const std::filesystem::path path = store.root() / relative;
  const auto same_size = [](std::uint64_t a, std::uint64_t b) { return a == b; };
  EXPECT_EQ(store.exists(relative), ref::exists(path)) << relative;
  EXPECT_EQ(store.is_symlink(relative), ref::is_symlink(path)) << relative;
  expect_same_result(store.file_size(relative),
                     ref::file_size(path, relative), "file_size " + relative,
                     same_size);
  expect_same_result(store.logical_size(relative),
                     ref::logical_size(path, relative),
                     "logical_size " + relative, same_size);
  expect_same_result(store.tree_footprint(relative),
                     ref::tree_footprint(path, relative),
                     "tree_footprint " + relative, same_footprint);
}

// The POSIX walk and queries against the std::filesystem versions they
// replaced, on the random trees: the footprint of each tree and of every
// entry in it, each query on every entry and on paths under it that do
// not exist, and the removal's accounting.
TEST_F(StorageTest, WalkAndQueriesMatchFilesystemReferenceOnRandomTrees) {
  ASSERT_NO_FATAL_FAILURE(make_outside_targets());
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string tree = "t" + std::to_string(seed);
    std::vector<std::string> entries;
    ASSERT_NO_FATAL_FAILURE(build_random_tree(tree, seed, &entries));
    expect_queries_match_reference(*store_, tree);
    for (const std::string& entry : entries) {
      expect_queries_match_reference(*store_, entry);
      expect_queries_match_reference(*store_, entry + "/");
      expect_queries_match_reference(*store_, entry + "/missing");
    }
    const auto want = storage_reference::tree_footprint(root_ / tree, tree);
    ASSERT_TRUE(want.ok());
    auto removed = store_->remove_tree(tree);
    ASSERT_TRUE(removed.ok()) << removed.error().to_string();
    EXPECT_EQ(removed.value().bytes_freed, want.value().physical_bytes);
    EXPECT_EQ(removed.value().files_touched,
              want.value().files + want.value().links);
  }
}

// The same comparison where the walk's root is not a directory: a file, a
// sparse file, a fifo, links to a file and to a directory, a dangling link,
// a link to itself, an empty directory, a missing path and a path through
// a file.  Each existing root is then removed, freeing what the reference
// measured.
TEST_F(StorageTest, WalkAndQueriesMatchFilesystemReferenceOnSingleEntryRoots) {
  ASSERT_TRUE(store_->write_file("file", "12345").ok());
  ASSERT_TRUE(store_->create_sparse_file("sparse", 3ull << 20).ok());
  ASSERT_EQ(::mkfifo((root_ / "fifo").c_str(), 0644), 0);
  ASSERT_TRUE(store_->write_file("dir/inner", "abc").ok());
  ASSERT_TRUE(store_->link_file("file", "link-file").ok());
  ASSERT_TRUE(store_->link_file("dir", "link-dir").ok());
  ASSERT_EQ(::symlink((root_ / "gone").c_str(), (root_ / "dangling").c_str()),
            0);
  ASSERT_EQ(::symlink((root_ / "loop").c_str(), (root_ / "loop").c_str()), 0);
  ASSERT_TRUE(store_->make_dir("empty").ok());
  const std::vector<std::string> roots = {
      "file",    "sparse", "fifo",  "link-file", "link-dir", "dangling",
      "loop",    "empty",  "dir",   "missing",   "file/sub", "missing/sub",
      "link-dir/inner"};
  for (const std::string& root : roots) {
    expect_queries_match_reference(*store_, root);
  }
  for (const std::string& root : roots) {
    const auto want = storage_reference::tree_footprint(root_ / root, root);
    auto removed = store_->remove_tree(root);
    ASSERT_TRUE(removed.ok()) << root << ": " << removed.error().to_string();
    EXPECT_EQ(removed.value().bytes_freed,
              want.ok() ? want.value().physical_bytes : 0u)
        << root;
    EXPECT_EQ(removed.value().files_touched,
              want.ok() ? want.value().files + want.value().links : 0u)
        << root;
  }
}

TEST_F(StorageTest, RemoveSingleFile) {
  ASSERT_TRUE(store_->write_file("f", "1").ok());
  EXPECT_TRUE(store_->remove("f").ok());
  EXPECT_FALSE(store_->remove("f").ok());
}

// -- DiskSpec ----------------------------------------------------------------------

TEST(DiskSpecTest, SpanNamesAndSizes) {
  DiskSpec disk;
  disk.name = "disk0";
  disk.capacity_bytes = 100;
  disk.span_count = 3;
  const auto names = disk.span_file_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "disk0-s001.vmdk");
  EXPECT_EQ(names[2], "disk0-s003.vmdk");
  EXPECT_EQ(disk.span_size(0), 33u);
  EXPECT_EQ(disk.span_size(1), 33u);
  EXPECT_EQ(disk.span_size(2), 34u);  // remainder in the last span
  EXPECT_EQ(disk.span_size(0) + disk.span_size(1) + disk.span_size(2), 100u);
  EXPECT_EQ(disk.redo_file_name(), "disk0.redo");
}

TEST(DiskSpecTest, Validation) {
  DiskSpec ok{"d", 100, 2, DiskMode::kNonPersistent};
  EXPECT_TRUE(ok.validate().ok());
  DiskSpec no_name{"", 100, 2, DiskMode::kNonPersistent};
  EXPECT_FALSE(no_name.validate().ok());
  DiskSpec zero_cap{"d", 0, 2, DiskMode::kNonPersistent};
  EXPECT_FALSE(zero_cap.validate().ok());
  DiskSpec zero_spans{"d", 100, 0, DiskMode::kNonPersistent};
  EXPECT_FALSE(zero_spans.validate().ok());
}

TEST(DiskSpecTest, ModeNamesRoundTrip) {
  EXPECT_EQ(parse_disk_mode(disk_mode_name(DiskMode::kPersistent)).value(),
            DiskMode::kPersistent);
  EXPECT_EQ(parse_disk_mode(disk_mode_name(DiskMode::kNonPersistent)).value(),
            DiskMode::kNonPersistent);
  EXPECT_FALSE(parse_disk_mode("bogus").ok());
}

// -- MachineSpec / config file --------------------------------------------------------

MachineSpec paper_spec(std::uint64_t mem_mb) {
  MachineSpec spec;
  spec.os = "linux-mandrake-8.1";
  spec.memory_bytes = mem_mb << 20;
  spec.suspended = true;
  spec.disk = DiskSpec{"disk0", 2048ull << 20, 16, DiskMode::kNonPersistent};
  return spec;
}

TEST(MachineSpecTest, ConfigRoundTrip) {
  const MachineSpec spec = paper_spec(64);
  auto parsed = parse_machine_config(render_machine_config(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().os, spec.os);
  EXPECT_EQ(parsed.value().memory_bytes, spec.memory_bytes);
  EXPECT_EQ(parsed.value().suspended, spec.suspended);
  EXPECT_EQ(parsed.value().disk.span_count, 16u);
  EXPECT_EQ(parsed.value().disk.mode, DiskMode::kNonPersistent);
}

TEST(MachineSpecTest, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_machine_config("nonsense line").ok());
  EXPECT_FALSE(parse_machine_config("unknown_key = 1").ok());
  EXPECT_FALSE(parse_machine_config("").ok());  // fails validation
}

// -- materialize_image -----------------------------------------------------------------

TEST_F(StorageTest, MaterializeCreatesAllArtifacts) {
  const MachineSpec spec = paper_spec(32);
  const ImageLayout layout{"warehouse/golden-32mb"};
  auto acct = materialize_image(store_.get(), layout, spec);
  ASSERT_TRUE(acct.ok()) << acct.error().to_string();

  EXPECT_TRUE(store_->exists(layout.config_path()));
  EXPECT_TRUE(store_->exists(layout.memory_path()));
  EXPECT_TRUE(store_->exists(layout.base_redo_path(spec.disk)));
  for (const auto& span : layout.span_paths(spec.disk)) {
    EXPECT_TRUE(store_->exists(span));
  }
  EXPECT_EQ(store_->file_size(layout.memory_path()).value(), 32ull << 20);
}

TEST_F(StorageTest, MaterializeBootImageHasNoMemoryState) {
  MachineSpec spec = paper_spec(32);
  spec.suspended = false;
  const ImageLayout layout{"warehouse/uml"};
  ASSERT_TRUE(materialize_image(store_.get(), layout, spec).ok());
  EXPECT_FALSE(store_->exists(layout.memory_path()));
}

// -- clone_image -------------------------------------------------------------------------

class CloneTest : public StorageTest {
 protected:
  void SetUp() override {
    StorageTest::SetUp();
    spec_ = paper_spec(64);
    golden_ = ImageLayout{"warehouse/golden"};
    ASSERT_TRUE(materialize_image(store_.get(), golden_, spec_).ok());
  }
  MachineSpec spec_;
  ImageLayout golden_;
};

TEST_F(CloneTest, LinkedCloneLinksDisksAndCopiesMemory) {
  auto report = clone_image(store_.get(), golden_, spec_, "clones/vm1",
                            CloneStrategy::kLinked);
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  // Disk spans are links, not copies.
  EXPECT_EQ(report.value().disk.links_created, 16u);
  EXPECT_EQ(report.value().disk.bytes_written, 0u);
  // Memory is a real (logical) copy of 64 MB.
  EXPECT_EQ(report.value().memory.bytes_written, 64ull << 20);

  const ImageLayout clone{"clones/vm1"};
  EXPECT_TRUE(store_->is_symlink(clone.span_paths(spec_.disk)[0]));
  EXPECT_FALSE(store_->is_symlink(clone.memory_path()));
  EXPECT_TRUE(store_->exists(clone.config_path()));
  EXPECT_TRUE(store_->exists(clone.base_redo_path(spec_.disk)));
}

TEST_F(CloneTest, FullCopyWritesAllBytes) {
  auto report = clone_image(store_.get(), golden_, spec_, "clones/vm2",
                            CloneStrategy::kFullCopy);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().disk.links_created, 0u);
  EXPECT_EQ(report.value().disk.bytes_written, 2048ull << 20);
  const ImageLayout clone{"clones/vm2"};
  EXPECT_FALSE(store_->is_symlink(clone.span_paths(spec_.disk)[0]));
}

TEST_F(CloneTest, CloneAccountingGapMatchesPaperMechanism) {
  // The whole point of linked cloning (paper §4.3): bytes moved shrink from
  // disk-sized to memory-sized.
  auto linked = clone_image(store_.get(), golden_, spec_, "clones/a",
                            CloneStrategy::kLinked);
  auto copied = clone_image(store_.get(), golden_, spec_, "clones/b",
                            CloneStrategy::kFullCopy);
  ASSERT_TRUE(linked.ok());
  ASSERT_TRUE(copied.ok());
  const double ratio =
      static_cast<double>(copied.value().total().bytes_written) /
      static_cast<double>(linked.value().total().bytes_written);
  EXPECT_GT(ratio, 30.0);  // 2 GB+64MB vs 64 MB ≈ 33x
}

TEST_F(CloneTest, LinkedCloneOfPersistentDiskRefused) {
  MachineSpec persistent = spec_;
  persistent.disk.mode = DiskMode::kPersistent;
  auto report = clone_image(store_.get(), golden_, persistent, "clones/vm3",
                            CloneStrategy::kLinked);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.error().code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(CloneTest, CloneIntoExistingDirRefused) {
  ASSERT_TRUE(store_->make_dir("clones/vm4").ok());
  auto report = clone_image(store_.get(), golden_, spec_, "clones/vm4",
                            CloneStrategy::kLinked);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.error().code(), util::ErrorCode::kAlreadyExists);
}

TEST_F(CloneTest, DestroyCloneRemovesCloneNotGolden) {
  ASSERT_TRUE(clone_image(store_.get(), golden_, spec_, "clones/vm5",
                          CloneStrategy::kLinked)
                  .ok());
  ASSERT_TRUE(destroy_clone(store_.get(), "clones/vm5").ok());
  EXPECT_FALSE(store_->exists("clones/vm5"));
  // Golden artefacts untouched.
  EXPECT_TRUE(store_->exists(golden_.memory_path()));
  for (const auto& span : golden_.span_paths(spec_.disk)) {
    EXPECT_TRUE(store_->exists(span));
  }
  EXPECT_FALSE(destroy_clone(store_.get(), "clones/vm5").ok());
}

TEST_F(CloneTest, ManyClonesShareOneGolden) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(clone_image(store_.get(), golden_, spec_,
                            "clones/many" + std::to_string(i),
                            CloneStrategy::kLinked)
                    .ok());
  }
  // All clones read the same base disk content through their links.
  for (int i = 0; i < 10; ++i) {
    const ImageLayout clone{"clones/many" + std::to_string(i)};
    EXPECT_TRUE(store_->is_symlink(clone.span_paths(spec_.disk)[5]));
  }
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// 500 clone + destroy cycles, some cut short by injected store.write faults
// mid-clone, leave no file descriptor open.
TEST_F(CloneTest, NoFdLeakAcrossCloneDestroyCyclesWithFaults) {
  // A non-sparse checkpoint takes the byte-copy path.
  ASSERT_TRUE(
      store_->write_file(golden_.memory_path(), std::string(64 << 10, 'm')).ok());
  const std::size_t fds_before = open_fd_count();
  std::size_t cloned = 0;
  {
    fault::ScopedFaultPlan faults(
        fault::FaultPlan::parse("store.write:target=clones,p=0.02", 11)
            .value());
    for (int i = 0; i < 500; ++i) {
      const std::string dir = "clones/cycle" + std::to_string(i);
      auto report =
          clone_image(store_.get(), golden_, spec_, dir, CloneStrategy::kLinked);
      if (!report.ok()) {
        EXPECT_FALSE(store_->exists(dir));
        continue;
      }
      ++cloned;
      EXPECT_TRUE(store_->read_file(ImageLayout{dir}.config_path()).ok());
      ASSERT_TRUE(destroy_clone(store_.get(), dir).ok());
    }
    EXPECT_GT(fault::FaultRegistry::instance().fired(fault::points::kStoreWrite),
              0u);
  }
  EXPECT_GT(cloned, 0u);
  EXPECT_LT(cloned, 500u);
  EXPECT_EQ(open_fd_count(), fds_before);
}


// -- Short copies ------------------------------------------------------------------

/// A sysfs attribute: a regular file whose st_size (4096) promises more
/// than it yields.  Empty when none is readable.
std::string short_sysfs_file() {
  for (const char* candidate :
       {"/sys/kernel/mm/transparent_hugepage/enabled", "/sys/power/state",
        "/sys/devices/system/cpu/online", "/sys/devices/system/cpu/possible",
        "/sys/kernel/uevent_seqnum"}) {
    std::error_code ec;
    if (!std::filesystem::is_regular_file(candidate, ec) ||
        std::filesystem::file_size(candidate, ec) != 4096 || ec) {
      continue;
    }
    std::ifstream in(candidate);
    const std::string content((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    if (!content.empty() && content.size() < 4096) return candidate;
  }
  return {};
}

// A source that ends before the size fstat reported is a failed copy, not
// a silently truncated one; a clone reading it aborts and leaves no dir.
TEST_F(CloneTest, ShortCopyFailsAndAbortsClone) {
  const std::string sysfs = short_sysfs_file();
  if (sysfs.empty()) GTEST_SKIP() << "no short sysfs attribute readable";
  ASSERT_EQ(::symlink(sysfs.c_str(), (root_ / "short").c_str()), 0);
  const IoAccounting before = store_->lifetime_accounting();
  auto copied = store_->copy_file("short", "dst");
  ASSERT_FALSE(copied.ok());
  EXPECT_EQ(copied.error().code(), util::ErrorCode::kInternal);
  EXPECT_EQ(copied.error().message().rfind("copy short -> dst: source ended after ", 0),
            0u)
      << copied.error().message();
  EXPECT_NE(copied.error().message().find(" of 4096 bytes"), std::string::npos);
  EXPECT_EQ(store_->lifetime_accounting().bytes_written, before.bytes_written);

  ASSERT_TRUE(store_->remove(golden_.config_path()).ok());
  ASSERT_EQ(::symlink(sysfs.c_str(), (root_ / golden_.config_path()).c_str()),
            0);
  auto report = clone_image(store_.get(), golden_, spec_, "clones/short",
                            CloneStrategy::kLinked);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code(), util::ErrorCode::kInternal);
  EXPECT_FALSE(store_->exists("clones/short"));
}

// -- Spare checkpoints -------------------------------------------------------------

/// Goldens with a non-sparse memory checkpoint of random bytes: the clone
/// copies them for real, and destroying the clone retires its copy.
class RecycleTest : public StorageTest {
 protected:
  static constexpr std::uint64_t kCheckpoint = 4ull << 20;

  void SetUp() override {
    StorageTest::SetUp();
    spec_ = paper_spec(0);
    spec_.memory_bytes = kCheckpoint;
    spec_.disk = DiskSpec{"disk0", 64ull << 20, 2, DiskMode::kNonPersistent};
  }

  /// Materializes golden `dir` whose checkpoint holds `size` seeded bytes.
  std::string make_golden(const std::string& dir, std::uint64_t seed,
                          std::uint64_t size = kCheckpoint) {
    MachineSpec spec = spec_;
    spec.memory_bytes = size;
    const ImageLayout layout{dir};
    EXPECT_TRUE(materialize_image(store_.get(), layout, spec).ok());
    util::SplitMix64 rng(seed);
    std::string bytes(size, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.next_u64());
    EXPECT_TRUE(store_->write_file(layout.memory_path(), bytes).ok());
    return bytes;
  }

  util::Result<CloneReport> clone(const std::string& golden, const std::string& dir) {
    return clone_image(store_.get(), ImageLayout{golden}, spec_, dir,
                       CloneStrategy::kLinked);
  }

  struct stat stat_of(const std::string& relative) const {
    struct stat st {};
    EXPECT_EQ(::lstat((root_ / relative).c_str(), &st), 0) << relative;
    return st;
  }

  std::size_t spare_files() const {
    std::error_code ec;
    std::size_t n = 0;
    for (auto it = std::filesystem::directory_iterator(
             root_ / ArtifactStore::kSpareDir, ec);
         !ec && it != std::filesystem::directory_iterator(); ++it) {
      ++n;
    }
    return n;
  }

  MachineSpec spec_;
};

// The deterministic guard on the optimisation: a clone after a destroy
// writes into the destroyed clone's checkpoint inode, and both operations
// account exactly as a fresh copy and a plain removal would.
TEST_F(RecycleTest, CloneAfterDestroyReusesRetiredInode) {
  const std::string bytes = make_golden("warehouse/a", 1);
  auto first = clone("warehouse/a", "clones/vm1");
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  const ino_t inode = stat_of("clones/vm1/memory.vmss").st_ino;
  const TreeFootprint footprint = store_->tree_footprint("clones/vm1").value();

  auto destroyed = destroy_clone(store_.get(), "clones/vm1");
  ASSERT_TRUE(destroyed.ok());
  EXPECT_EQ(destroyed.value().bytes_freed, footprint.physical_bytes);
  EXPECT_EQ(destroyed.value().files_touched, footprint.files + footprint.links);
  EXPECT_FALSE(store_->exists("clones/vm1"));
  EXPECT_EQ(store_->spare_count(), 1u);
  EXPECT_EQ(spare_files(), 1u);

  auto second = clone("warehouse/a", "clones/vm2");
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(stat_of("clones/vm2/memory.vmss").st_ino, inode);
  EXPECT_EQ(store_->spare_count(), 0u);
  EXPECT_EQ(spare_files(), 0u);
  const IoAccounting a = first.value().memory;
  const IoAccounting b = second.value().memory;
  EXPECT_EQ(b.bytes_read, a.bytes_read);
  EXPECT_EQ(b.bytes_written, a.bytes_written);
  EXPECT_EQ(b.files_touched, a.files_touched);
  EXPECT_EQ(b.bytes_written, kCheckpoint);
  EXPECT_TRUE(store_->read_file("clones/vm2/memory.vmss").value() == bytes);
}

// A recycled checkpoint holds the new golden's bytes and nothing of the
// destroyed VM's.
TEST_F(RecycleTest, RecycledCheckpointLeaksNoStaleByte) {
  make_golden("warehouse/a", 1);
  const std::string b = make_golden("warehouse/b", 2);
  ASSERT_TRUE(clone("warehouse/a", "clones/vm1").ok());
  const ino_t inode = stat_of("clones/vm1/memory.vmss").st_ino;
  ASSERT_TRUE(destroy_clone(store_.get(), "clones/vm1").ok());
  ASSERT_TRUE(clone("warehouse/b", "clones/vm2").ok());
  EXPECT_EQ(stat_of("clones/vm2/memory.vmss").st_ino, inode);
  EXPECT_EQ(store_->file_size("clones/vm2/memory.vmss").value(), kCheckpoint);
  EXPECT_TRUE(store_->read_file("clones/vm2/memory.vmss").value() == b);
}

// A clone that fails after its checkpoint landed in a spare removes that
// file with the rest of the partial clone: it never returns to the pool.
// A fault on the checkpoint itself fails before any spare is taken.
TEST_F(RecycleTest, FailedCloneNeverReturnsSpareToPool) {
  make_golden("warehouse/a", 1);
  ASSERT_TRUE(clone("warehouse/a", "clones/vm1").ok());
  ASSERT_TRUE(destroy_clone(store_.get(), "clones/vm1").ok());
  ASSERT_EQ(store_->spare_count(), 1u);
  {
    fault::ScopedFaultPlan faults(
        fault::FaultPlan::parse("store.write:target=vm2/memory.vmss,times=1")
            .value());
    EXPECT_FALSE(clone("warehouse/a", "clones/vm2").ok());
  }
  EXPECT_FALSE(store_->exists("clones/vm2"));
  EXPECT_EQ(store_->spare_count(), 1u);
  {
    fault::ScopedFaultPlan faults(
        fault::FaultPlan::parse("store.write:target=vm3/disk0.redo,times=1")
            .value());
    EXPECT_FALSE(clone("warehouse/a", "clones/vm3").ok());
  }
  EXPECT_FALSE(store_->exists("clones/vm3"));
  EXPECT_EQ(store_->spare_count(), 0u);
  EXPECT_EQ(spare_files(), 0u);
}

// Only a regular, fully allocated, unshared file of at least 1 MiB is
// retired; everything else is removed as before, with the same accounting.
TEST_F(RecycleTest, OnlyPlainLargeAllocatedCheckpointsRetire) {
  make_golden("warehouse/a", 1);
  const std::string small(512u << 10, 's');
  ASSERT_TRUE(store_->write_file("kinds/small/memory.vmss", small).ok());
  ASSERT_TRUE(
      store_->create_sparse_file("kinds/sparse/memory.vmss", kCheckpoint).ok());
  ASSERT_TRUE(
      store_->link_file("warehouse/a/memory.vmss", "kinds/link/memory.vmss")
          .ok());
  ASSERT_TRUE(store_->copy_file("warehouse/a/memory.vmss",
                                "kinds/hard/memory.vmss")
                  .ok());
  ASSERT_EQ(::link((root_ / "kinds/hard/memory.vmss").c_str(),
                   (root_ / "kinds/hard-alias").c_str()),
            0);
  ASSERT_TRUE(store_->make_dir("kinds/dir/memory.vmss").ok());
  for (const char* kind : {"small", "sparse", "link", "hard", "dir"}) {
    SCOPED_TRACE(kind);
    const std::string dir = std::string("kinds/") + kind;
    const TreeFootprint footprint = store_->tree_footprint(dir).value();
    auto destroyed = destroy_clone(store_.get(), dir);
    ASSERT_TRUE(destroyed.ok()) << destroyed.error().to_string();
    EXPECT_EQ(destroyed.value().bytes_freed, footprint.physical_bytes);
    EXPECT_EQ(destroyed.value().files_touched,
              footprint.files + footprint.links);
    EXPECT_FALSE(store_->exists(dir));
    EXPECT_EQ(store_->spare_count(), 0u);
  }
  EXPECT_EQ(store_->file_size("kinds/hard-alias").value(), kCheckpoint);
  EXPECT_EQ(store_->file_size("warehouse/a/memory.vmss").value(), kCheckpoint);
  EXPECT_EQ(spare_files(), 0u);

  // A plain remove_tree (a warehouse eviction, say) retires nothing.
  ASSERT_TRUE(clone("warehouse/a", "clones/vm1").ok());
  ASSERT_TRUE(store_->remove_tree("clones/vm1").ok());
  EXPECT_EQ(store_->spare_count(), 0u);
}

// The pool holds at most kSpareMaxBytes; retirements past it are unlinked.
TEST_F(RecycleTest, PoolBoundHolds) {
  make_golden("warehouse/a", 1);
  constexpr std::size_t kHeld = ArtifactStore::kSpareMaxBytes / kCheckpoint;
  static_assert(kHeld >= 1);
  for (std::size_t i = 0; i < kHeld + 2; ++i) {
    ASSERT_TRUE(clone("warehouse/a", "clones/vm" + std::to_string(i)).ok());
  }
  for (std::size_t i = 0; i < kHeld + 2; ++i) {
    auto destroyed =
        destroy_clone(store_.get(), "clones/vm" + std::to_string(i));
    ASSERT_TRUE(destroyed.ok());
    EXPECT_GE(destroyed.value().bytes_freed, kCheckpoint);
  }
  EXPECT_EQ(store_->spare_count(), kHeld);
  EXPECT_EQ(spare_files(), kHeld);
}

// A recycled target takes the source's permission bits, exactly as a
// fresh O_CREAT target (which the process umask filters) would.
TEST_F(RecycleTest, RecycledTargetTakesSourcePermissions) {
  make_golden("warehouse/a", 1);
  make_golden("warehouse/b", 2);
  for (const mode_t mode : {0600, 0640, 0666, 0604}) {
    SCOPED_TRACE(mode);
    ASSERT_EQ(::chmod((root_ / "warehouse/a/memory.vmss").c_str(), mode), 0);
    ASSERT_EQ(::chmod((root_ / "warehouse/b/memory.vmss").c_str(), mode), 0);
    ASSERT_TRUE(store_->copy_file("warehouse/a/memory.vmss", "fresh").ok());
    const mode_t fresh = stat_of("fresh").st_mode & 07777;
    ASSERT_TRUE(store_->remove("fresh").ok());
    ASSERT_TRUE(clone("warehouse/b", "clones/old").ok());
    ASSERT_EQ(::chmod((root_ / "clones/old/memory.vmss").c_str(), 0400), 0);
    ASSERT_TRUE(destroy_clone(store_.get(), "clones/old").ok());
    ASSERT_EQ(store_->spare_count(), 1u);
    ASSERT_TRUE(clone("warehouse/a", "clones/new").ok());
    EXPECT_EQ(store_->spare_count(), 0u);
    EXPECT_EQ(stat_of("clones/new/memory.vmss").st_mode & 07777, fresh);
    ASSERT_TRUE(store_->remove_tree("clones/new").ok());
  }
}

// Spares left by an earlier store over the same root are swept when the
// next one opens it; a store removes its own spares when it goes.
TEST_F(RecycleTest, SparesSweptAtOpenAndRemovedAtClose) {
  make_golden("warehouse/a", 1);
  ASSERT_TRUE(clone("warehouse/a", "clones/vm1").ok());
  ASSERT_TRUE(destroy_clone(store_.get(), "clones/vm1").ok());
  ASSERT_EQ(spare_files(), 1u);
  store_.reset();
  EXPECT_FALSE(std::filesystem::exists(root_ / ArtifactStore::kSpareDir));

  // A crashed store leaves its spares behind.
  std::filesystem::create_directories(root_ / ArtifactStore::kSpareDir);
  std::ofstream(root_ / ArtifactStore::kSpareDir / "stale") << "stale";
  store_ = std::make_unique<ArtifactStore>(root_);
  EXPECT_FALSE(std::filesystem::exists(root_ / ArtifactStore::kSpareDir));
  EXPECT_EQ(store_->spare_count(), 0u);
  ASSERT_TRUE(clone("warehouse/a", "clones/vm2").ok());
}

// Clones and destroys from several threads over one store: every clone
// holds exactly its golden's bytes, the pool stays within its bound, and
// nothing is left behind.
TEST_F(RecycleTest, ConcurrentCloneDestroyStorm) {
  constexpr std::uint64_t kSize = ArtifactStore::kSpareMinBytes;
  const std::string goldens[] = {make_golden("warehouse/a", 1, kSize),
                                 make_golden("warehouse/b", 2, kSize)};
  spec_.memory_bytes = kSize;
  constexpr int kThreads = 4;
  constexpr int kCycles = 25;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCycles; ++i) {
        const int g = (t + i) % 2;
        const std::string dir =
            "clones/t" + std::to_string(t) + "-" + std::to_string(i);
        if (!clone(g == 0 ? "warehouse/a" : "warehouse/b", dir).ok()) {
          ++failures;
          continue;
        }
        if (store_->read_file(dir + "/memory.vmss").value() != goldens[g]) {
          ++mismatches;
        }
        if (!destroy_clone(store_.get(), dir).ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(store_->spare_count(), ArtifactStore::kSpareMaxBytes / kSize);
  EXPECT_EQ(spare_files(), store_->spare_count());
  EXPECT_TRUE(store_->list_dir("clones").value().empty());
}

}  // namespace
}  // namespace vmp::storage
