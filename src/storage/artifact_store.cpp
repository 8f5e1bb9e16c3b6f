#include "storage/artifact_store.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <system_error>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/fault.h"

namespace vmp::storage {

namespace fs = std::filesystem;
using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

// The hot operations (clone artefacts, ISO writes, collect, publish, the
// queries) run on plain POSIX calls over string paths: one open per file,
// one lstat per query, no std::filesystem path built, parent directories
// created only when an open reports them missing.  DESIGN.md §17 lists the
// syscall budget per operation.

namespace {

/// Owns one file descriptor and closes it on every exit path.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool ok() const { return fd_ >= 0; }

 private:
  int fd_;
};

/// Creates directory `dir` and whichever of its parents are missing, like
/// mkdir -p; one that exists already is fine.  Returns false on failure.
bool make_directories(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) return true;
  const std::size_t slash = dir.find_last_of('/');
  if (errno != ENOENT || slash == std::string::npos || slash == 0) return false;
  return make_directories(dir.substr(0, slash)) &&
         (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST);
}

/// Runs `call` (an open/symlink returning < 0 on failure); when it fails
/// with ENOENT, creates the parent directories of `path` and retries once.
template <typename Call>
int with_parent_dirs(const std::string& path, Call call) {
  int rc = call();
  if (rc < 0 && errno == ENOENT) {
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos && slash > 0) {
      (void)make_directories(path.substr(0, slash));
    }
    rc = call();
  }
  return rc;
}

int open_for_write(const std::string& path, int flags, mode_t mode) {
  return with_parent_dirs(path, [&] {
    return ::open(path.c_str(), flags | O_WRONLY | O_CLOEXEC, mode);
  });
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Opens the copy target: a new file (the clone path) costs one call.  An
/// existing target is truncated unless it is the source itself (reached
/// through a symlink, say), which would lose the source's bytes.
int open_copy_target(const std::string& path, const struct stat& source) {
  const mode_t mode = source.st_mode & 07777;
  const int fd = open_for_write(path, O_CREAT | O_EXCL, mode);
  if (fd >= 0 || errno != EEXIST) return fd;
  const int existing =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, mode);
  if (existing < 0) return -1;
  struct stat st {};
  int failure = 0;
  if (::fstat(existing, &st) != 0) {
    failure = errno;
  } else if (st.st_dev == source.st_dev && st.st_ino == source.st_ino) {
    failure = EEXIST;
  } else if (::ftruncate(existing, 0) != 0) {
    failure = errno;
  }
  if (failure == 0) return existing;
  ::close(existing);
  errno = failure;
  return -1;
}

/// Copies `size` bytes in the kernel with copy_file_range; falls back to a
/// read/write loop where the kernel or file system cannot (cross-device,
/// old kernels, special files).  Returns the bytes copied: fewer than
/// `size` means a call failed (errno set) or the source ended early
/// (errno 0).
std::uint64_t copy_bytes(int in, int out, std::uint64_t size) {
  std::unique_ptr<char[]> buffer;
  constexpr std::size_t kChunk = 1 << 16;
  std::uint64_t copied = 0;
  while (copied < size) {
    const std::uint64_t left = size - copied;
    ssize_t n = 0;
    if (!buffer) {
      n = ::copy_file_range(in, nullptr, out, nullptr, left, 0);
      if (n < 0 && (errno == EXDEV || errno == ENOSYS ||
                    errno == EOPNOTSUPP || errno == EINVAL)) {
        buffer = std::make_unique<char[]>(kChunk);
        continue;
      }
    } else {
      n = ::read(in, buffer.get(), std::min<std::uint64_t>(left, kChunk));
      if (n > 0 && !write_all(out, buffer.get(), static_cast<std::size_t>(n))) {
        return copied;
      }
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return copied;
    if (n == 0) {
      errno = 0;
      return copied;
    }
    copied += static_cast<std::uint64_t>(n);
  }
  return copied;
}

/// The process's file mode creation mask, read from /proc without changing
/// it: umask() sets the mask, so reading it that way briefly clears it for
/// every other thread.
mode_t process_umask() {
  static const mode_t mask = [] {
    if (FILE* status = std::fopen("/proc/self/status", "re")) {
      char line[128];
      unsigned value = 0;
      bool found = false;
      while (!found && std::fgets(line, sizeof line, status) != nullptr) {
        found = std::sscanf(line, "Umask: %o", &value) == 1;
      }
      std::fclose(status);
      if (found) return static_cast<mode_t>(value);
    }
    const mode_t old = ::umask(022);
    ::umask(old);
    return old;
  }();
  return mask;
}

/// Charges one entry of d_type `type` to `fp`: a regular file its apparent
/// size, a link nothing (its target is billed where it lives), anything
/// else nothing at all.
void charge(TreeFootprint& fp, unsigned char type, off_t size) {
  if (type == DT_LNK) {
    ++fp.links;
  } else if (type == DT_REG) {
    ++fp.files;
    fp.physical_bytes += static_cast<std::uint64_t>(size);
  }
}

/// Measures everything under the open directory `dir` (taken over and
/// closed here) into `fp`, then hands each entry to `done(dir, name, type)`
/// (a directory after its contents).  d_type classifies the entries: a
/// link or a directory costs no stat, a regular file one fstatat for its
/// size.  Never follows a symlink: subdirectories are opened O_NOFOLLOW,
/// so the walk cannot leave the tree.  Returns false with errno set when a
/// call or `done` fails.
template <typename Done>
bool walk_directory(int dir, TreeFootprint& fp, const Done& done) {
  DIR* stream = ::fdopendir(dir);
  if (stream == nullptr) {
    const int saved = errno;
    ::close(dir);
    errno = saved;
    return false;
  }
  // Every failing call below leaves errno set; a finished walk leaves 0.
  errno = 0;
  while (const dirent* entry = ::readdir(stream)) {
    const char* name = entry->d_name;
    if (std::strcmp(name, ".") == 0 || std::strcmp(name, "..") == 0) continue;
    unsigned char type = entry->d_type;
    off_t size = 0;
    if (type == DT_REG || type == DT_UNKNOWN) {
      struct stat st {};
      if (::fstatat(dir, name, &st, AT_SYMLINK_NOFOLLOW) != 0) break;
      type = IFTODT(st.st_mode);
      size = st.st_size;
    }
    if (type == DT_DIR) {
      const int sub =
          ::openat(dir, name, O_RDONLY | O_DIRECTORY | O_NOFOLLOW | O_CLOEXEC);
      if (sub < 0 || !walk_directory(sub, fp, done)) break;
    }
    charge(fp, type, size);
    if (!done(dir, name, type)) break;
  }
  const int saved = errno;
  ::closedir(stream);
  errno = saved;
  return saved == 0;
}

/// The walk that deletes as it measures: one fstatat + unlinkat per regular
/// file, one unlinkat per link.  A link is removed itself.
bool drain_directory(int dir, TreeFootprint& fp) {
  return walk_directory(dir, fp, [](int parent, const char* name,
                                    unsigned char type) {
    return ::unlinkat(parent, name, type == DT_DIR ? AT_REMOVEDIR : 0) == 0;
  });
}

/// Opens `path` as a directory for a walk, never through a symlink.
int open_tree(const char* path) {
  return ::open(path, O_RDONLY | O_DIRECTORY | O_NOFOLLOW | O_CLOEXEC);
}

bool has_parent_component(std::string_view path) {
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    if (path.substr(start, end - start) == "..") return true;
    start = end + 1;
  }
  return false;
}

std::string errno_text() { return std::generic_category().message(errno); }

/// `root`'s text plus the separator `root / relative` would insert.
std::string join_prefix(const fs::path& root) {
  return root.has_filename() ? root.string() + '/' : root.string();
}

/// A failed size query: "<call>(<relative>): " and the text of errno
/// value `error`.
Result<std::uint64_t> size_error(const char* call, const std::string& relative,
                                 int error) {
  return Result<std::uint64_t>(
      Error(ErrorCode::kNotFound, std::string(call) + '(' + relative + "): " +
                                      std::generic_category().message(error)));
}

/// Size of the file an lstat or stat described; a directory or special
/// file fails the way std::filesystem::file_size words it.
Result<std::uint64_t> size_of(const struct stat& st, const char* call,
                              const std::string& relative) {
  if (S_ISREG(st.st_mode)) return static_cast<std::uint64_t>(st.st_size);
  return size_error(call, relative, S_ISDIR(st.st_mode) ? EISDIR : ENOTSUP);
}

/// The target text of symlink `path`; empty when it cannot be read.
std::string read_link(const std::string& path) {
  char target[PATH_MAX];
  const ssize_t n = ::readlink(path.c_str(), target, sizeof target);
  return n < 0 ? std::string() : std::string(target, static_cast<std::size_t>(n));
}

}  // namespace

IoAccounting& IoAccounting::operator+=(const IoAccounting& other) {
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  files_touched += other.files_touched;
  links_created += other.links_created;
  bytes_freed += other.bytes_freed;
  return *this;
}

ArtifactStore::ArtifactStore(fs::path root)
    : root_(std::move(root)), prefix_(join_prefix(root_)) {
  fs::create_directories(root_);
  absolute_prefix_ = join_prefix(fs::absolute(root_));
  umask_ = process_umask();
  std::error_code ec;
  fs::remove_all(root_ / kSpareDir, ec);
  spare_prefix_ =
      (root_ / kSpareDir / std::to_string(::getpid())).string() + "-";
}

ArtifactStore::~ArtifactStore() {
  for (const Spare& spare : spares_) ::unlink(spare.path.c_str());
  // Fails, harmlessly, while another store over this root holds spares.
  ::rmdir((root_ / kSpareDir).c_str());
}

std::uint64_t ArtifactStore::retire_spare(int dir, const std::string& name) {
  struct stat st {};
  if (::fstatat(dir, name.c_str(), &st, AT_SYMLINK_NOFOLLOW) != 0 ||
      !S_ISREG(st.st_mode) || st.st_nlink != 1) {
    return 0;
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < kSpareMinBytes ||
      static_cast<std::uint64_t>(st.st_blocks) * 512 < size) {
    return 0;
  }
  {
    std::lock_guard<std::mutex> lock(spare_mutex_);
    if (spare_bytes_ + size > kSpareMaxBytes) return 0;
    spare_bytes_ += size;  // reserved until the rename settles
  }
  static std::atomic<std::uint64_t> next_spare{0};
  std::string spare = spare_prefix_ + std::to_string(next_spare.fetch_add(1));
  const bool moved = with_parent_dirs(spare, [&] {
                       return ::renameat2(dir, name.c_str(), AT_FDCWD,
                                          spare.c_str(), RENAME_NOREPLACE);
                     }) == 0;
  std::lock_guard<std::mutex> lock(spare_mutex_);
  if (!moved) {
    spare_bytes_ -= size;
    return 0;
  }
  spares_.push_back({size, std::move(spare)});
  return size;
}

std::string ArtifactStore::take_spare(std::uint64_t size) {
  std::lock_guard<std::mutex> lock(spare_mutex_);
  for (auto it = spares_.rbegin(); it != spares_.rend(); ++it) {
    if (it->size != size) continue;
    std::string path = std::move(it->path);
    spares_.erase(std::next(it).base());
    spare_bytes_ -= size;
    return path;
  }
  return {};
}

Result<std::string> ArtifactStore::resolve(const std::string& relative) const {
  if (!relative.empty() && relative.front() == '/') {
    return Result<std::string>(
        Error(ErrorCode::kInvalidArgument,
              "absolute path not allowed in store: " + relative));
  }
  if (has_parent_component(relative)) {
    return Result<std::string>(
        Error(ErrorCode::kInvalidArgument,
              "path traversal not allowed in store: " + relative));
  }
  return prefix_ + relative;
}

bool ArtifactStore::exists(const std::string& relative) const {
  auto p = resolve(relative);
  struct stat st {};
  // lstat: a dangling symlink still "exists" as an artefact.
  return p.ok() && ::lstat(p.value().c_str(), &st) == 0;
}

bool ArtifactStore::is_symlink(const std::string& relative) const {
  auto p = resolve(relative);
  struct stat st {};
  return p.ok() && ::lstat(p.value().c_str(), &st) == 0 && S_ISLNK(st.st_mode);
}

Result<std::uint64_t> ArtifactStore::file_size(const std::string& relative) const {
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<std::uint64_t>();
  struct stat st {};
  if (::lstat(p.value().c_str(), &st) != 0) {
    return size_error("file_size", relative, errno);
  }
  if (S_ISLNK(st.st_mode)) return std::uint64_t{0};  // the link itself
  return size_of(st, "file_size", relative);
}

Result<std::uint64_t> ArtifactStore::logical_size(const std::string& relative) const {
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<std::uint64_t>();
  const std::string& path = p.value();
  struct stat st {};
  if (::lstat(path.c_str(), &st) != 0) {
    return size_error("logical_size", relative, errno);
  }
  if (S_ISLNK(st.st_mode) && ::stat(path.c_str(), &st) != 0) {
    // The link exists but its target does not: a stale reference to an
    // evicted or half-removed base image, not an ordinary missing file.
    return Result<std::uint64_t>(
        Error(ErrorCode::kFailedPrecondition,
              "logical_size(" + relative + "): dangling symlink (target " +
                  read_link(path) + " is gone)"));
  }
  return size_of(st, "logical_size", relative);
}

Result<TreeFootprint> ArtifactStore::tree_footprint(
    const std::string& relative) const {
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<TreeFootprint>();
  const char* path = p.value().c_str();
  TreeFootprint fp;
  const int dir = open_tree(path);
  if (dir >= 0) {
    if (!walk_directory(dir, fp, [](int, const char*, unsigned char) {
          return true;
        })) {
      return Result<TreeFootprint>(
          Error(ErrorCode::kInternal,
                "tree_footprint(" + relative + ") walk: " + errno_text()));
    }
    return fp;
  }
  // Not a directory we can open: a single file or symlink is the entry
  // itself, and a directory that refused the open is a failed walk.
  const int open_error = errno;
  struct stat st {};
  if (::lstat(path, &st) != 0) {
    return Result<TreeFootprint>(Error(
        ErrorCode::kNotFound, "tree_footprint(" + relative + "): " + errno_text()));
  }
  if (S_ISDIR(st.st_mode)) {
    return Result<TreeFootprint>(
        Error(ErrorCode::kInternal,
              "tree_footprint(" + relative + ") walk: " +
                  std::generic_category().message(open_error)));
  }
  charge(fp, IFTODT(st.st_mode), st.st_size);
  return fp;
}

Result<std::vector<std::string>> ArtifactStore::list_dir(
    const std::string& relative) const {
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<std::vector<std::string>>();
  std::error_code ec;
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(p.value(), ec)) {
    out.push_back(entry.path().filename().string());
  }
  if (ec) {
    return Result<std::vector<std::string>>(
        Error(ErrorCode::kNotFound, "list_dir(" + relative + "): " + ec.message()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status ArtifactStore::make_dir(const std::string& relative) {
  auto p = resolve(relative);
  if (!p.ok()) return p.error();
  // One mkdir in the common case (new clone directory, parent present).
  if (::mkdir(p.value().c_str(), 0777) == 0) return Status();
  std::error_code ec;
  fs::create_directories(p.value(), ec);
  if (ec) {
    return Status(ErrorCode::kInternal,
                  "make_dir(" + relative + "): " + ec.message());
  }
  return Status();
}

Result<IoAccounting> ArtifactStore::create_sparse_file(
    const std::string& relative, std::uint64_t size) {
  if (auto injected = fault::check(fault::points::kStoreWrite, relative);
      !injected.ok()) {
    return injected.propagate<IoAccounting>();
  }
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<IoAccounting>();
  Fd out(open_for_write(p.value(), O_CREAT | O_TRUNC, 0666));
  if (!out.ok()) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "cannot create " + relative));
  }
  if (size > 0 &&
      ::pwrite(out.get(), "", 1, static_cast<off_t>(size - 1)) != 1) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "cannot size " + relative));
  }
  IoAccounting acct;
  acct.bytes_written = size;
  acct.files_touched = 1;
  account(acct);
  return acct;
}

Result<IoAccounting> ArtifactStore::write_file(const std::string& relative,
                                               const std::string& content) {
  if (auto injected = fault::check(fault::points::kStoreWrite, relative);
      !injected.ok()) {
    return injected.propagate<IoAccounting>();
  }
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<IoAccounting>();
  Fd out(open_for_write(p.value(), O_CREAT | O_TRUNC, 0666));
  if (!out.ok()) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "cannot write " + relative));
  }
  if (!write_all(out.get(), content.data(), content.size())) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "short write to " + relative));
  }
  IoAccounting acct;
  acct.bytes_written = content.size();
  acct.files_touched = 1;
  account(acct);
  return acct;
}

Result<std::string> ArtifactStore::read_file(const std::string& relative) const {
  if (auto injected = fault::check(fault::points::kStoreRead, relative);
      !injected.ok()) {
    return injected.propagate<std::string>();
  }
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<std::string>();
  Fd in(::open(p.value().c_str(), O_RDONLY | O_CLOEXEC));
  struct stat st {};
  if (!in.ok() || ::fstat(in.get(), &st) != 0) {
    return Result<std::string>(
        Error(ErrorCode::kNotFound, "cannot read " + relative));
  }
  // A regular file stops at its size; anything else reads to end of file.
  const bool sized = S_ISREG(st.st_mode);
  std::string content(sized ? static_cast<std::size_t>(st.st_size) : 4096,
                      '\0');
  std::size_t used = 0;
  while (!sized || used < content.size()) {
    if (used == content.size()) content.resize(content.size() * 2);
    const ssize_t n =
        ::read(in.get(), content.data() + used, content.size() - used);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Result<std::string>(
          Error(ErrorCode::kNotFound, "cannot read " + relative));
    }
    if (n == 0) break;
    used += static_cast<std::size_t>(n);
  }
  content.resize(used);
  return content;
}

Result<IoAccounting> ArtifactStore::append_file(const std::string& relative,
                                                const std::string& content) {
  if (auto injected = fault::check(fault::points::kStoreWrite, relative);
      !injected.ok()) {
    return injected.propagate<IoAccounting>();
  }
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<IoAccounting>();
  Fd out(::open(p.value().c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                0666));
  if (!out.ok()) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "cannot append to " + relative));
  }
  if (!write_all(out.get(), content.data(), content.size())) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "short write to " + relative));
  }
  IoAccounting acct;
  acct.bytes_written = content.size();
  acct.files_touched = 1;
  account(acct);
  return acct;
}

Result<IoAccounting> ArtifactStore::copy_file(const std::string& from,
                                              const std::string& to) {
  if (auto injected = fault::check(fault::points::kStoreWrite, to);
      !injected.ok()) {
    return injected.propagate<IoAccounting>();
  }
  auto from_p = resolve(from);
  if (!from_p.ok()) return from_p.propagate<IoAccounting>();
  auto to_p = resolve(to);
  if (!to_p.ok()) return to_p.propagate<IoAccounting>();
  auto copy_error = [&](const std::string& detail) {
    return Result<IoAccounting>(Error(
        ErrorCode::kInternal, "copy " + from + " -> " + to + ": " + detail));
  };

  // One open + fstat yields the logical size (through a symlink, like cp),
  // the allocated blocks and the permission bits.
  Fd in(::open(from_p.value().c_str(), O_RDONLY | O_CLOEXEC));
  struct stat st {};
  if (!in.ok() || ::fstat(in.get(), &st) != 0 || !S_ISREG(st.st_mode)) {
    const int saved = errno;
    // logical_size words the failure: a dangling symlink is a stale base
    // reference (kFailedPrecondition), anything else is not found.
    auto size = logical_size(from);
    if (!size.ok()) return size.propagate<IoAccounting>();
    errno = saved;
    return copy_error(errno_text());
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);

  // Sparse fast path: multi-gigabyte virtual disks and memory checkpoints
  // are created as holes (create_sparse_file).  Byte-copying holes would
  // write the zeros out for real, so a fully sparse source is recreated as
  // a sparse target instead.  The accounting still charges the logical
  // size — the simulated cluster bills transfer time for it as the real
  // testbed would.
  const bool sparse = size >= 1 << 20 &&
                      static_cast<std::uint64_t>(st.st_blocks) * 512 < size / 2;
  // Recycled target: a spare of the source's exact size (a destroyed
  // clone's checkpoint) is renamed onto the target, never over an existing
  // file, and every byte of it is overwritten, so its pages are reused
  // instead of freed and allocated again.  A spare that cannot be opened or
  // renamed is dropped and the copy takes a fresh target.
  int recycled = -1;
  if (!sparse && size >= kSpareMinBytes) {
    const std::string spare = take_spare(size);
    if (!spare.empty()) {
      recycled = ::open(spare.c_str(), O_WRONLY | O_CLOEXEC);
      if (recycled >= 0 &&
          ::renameat2(AT_FDCWD, spare.c_str(), AT_FDCWD, to_p.value().c_str(),
                      RENAME_NOREPLACE) != 0) {
        ::close(recycled);
        recycled = -1;
      }
      if (recycled < 0) ::unlink(spare.c_str());
    }
  }
  Fd out(recycled >= 0 ? recycled : open_copy_target(to_p.value(), st));
  if (!out.ok()) {
    if (sparse) {
      return Result<IoAccounting>(
          Error(ErrorCode::kInternal, "cannot create " + to));
    }
    return copy_error(errno_text());
  }
  if (sparse) {
    if (::pwrite(out.get(), "", 1, static_cast<off_t>(size - 1)) != 1) {
      return Result<IoAccounting>(
          Error(ErrorCode::kInternal, "cannot size " + to));
    }
  } else {
    errno = 0;
    std::uint64_t copied = 0;
    if (recycled < 0 ||
        ::fchmod(out.get(), st.st_mode & 07777 & ~umask_) == 0) {
      copied = copy_bytes(in.get(), out.get(), size);
    }
    if (copied != size) {
      auto failed = copy_error(
          errno != 0 ? errno_text()
                     : "source ended after " + std::to_string(copied) +
                           " of " + std::to_string(size) + " bytes");
      // A recycled target may still hold a destroyed VM's bytes: it goes,
      // and never back to the pool.
      if (recycled >= 0) ::unlink(to_p.value().c_str());
      return failed;
    }
  }
  IoAccounting acct;
  acct.bytes_read = size;
  acct.bytes_written = size;
  acct.files_touched = 2;
  account(acct);
  return acct;
}

Result<IoAccounting> ArtifactStore::link_file(const std::string& from,
                                              const std::string& to) {
  if (auto injected = fault::check(fault::points::kStoreWrite, to);
      !injected.ok()) {
    return injected.propagate<IoAccounting>();
  }
  auto from_p = resolve(from);
  if (!from_p.ok()) return from_p.propagate<IoAccounting>();
  auto to_p = resolve(to);
  if (!to_p.ok()) return to_p.propagate<IoAccounting>();
  struct stat st {};
  if (::lstat(from_p.value().c_str(), &st) != 0) {
    return Result<IoAccounting>(
        Error(ErrorCode::kNotFound, "link source missing: " + from));
  }
  // Link target stored as absolute path; clone directories move rarely, and
  // absolute links keep reads working from any CWD.
  const std::string target = absolute_prefix_ + from;
  if (with_parent_dirs(to_p.value(), [&] {
        return ::symlink(target.c_str(), to_p.value().c_str());
      }) != 0) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal,
              "link " + to + " -> " + from + ": " + errno_text()));
  }
  IoAccounting acct;
  acct.links_created = 1;
  acct.files_touched = 1;
  account(acct);
  return acct;
}

Result<IoAccounting> ArtifactStore::copy_tree(const std::string& from,
                                              const std::string& to) {
  auto from_p = resolve(from);
  if (!from_p.ok()) return from_p.propagate<IoAccounting>();
  auto to_p = resolve(to);
  if (!to_p.ok()) return to_p.propagate<IoAccounting>();
  const fs::path from_dir = from_p.value();
  std::error_code ec;
  if (!fs::is_directory(from_dir, ec) || ec) {
    return Result<IoAccounting>(
        Error(ErrorCode::kNotFound, "copy_tree source not a directory: " + from));
  }
  if (exists(to)) {
    return Result<IoAccounting>(
        Error(ErrorCode::kAlreadyExists, "copy_tree target exists: " + to));
  }
  VMP_RETURN_IF_ERROR_AS(make_dir(to), IoAccounting);

  IoAccounting total;
  for (const auto& entry : fs::recursive_directory_iterator(from_dir, ec)) {
    // Lexical relativization only: fs::relative canonicalizes through
    // symlinks, which would rename a link entry to its target's path.
    const std::string rel = entry.path().lexically_relative(from_dir).string();
    const std::string target = to + "/" + rel;
    if (entry.is_symlink()) {
      const fs::path link_target = fs::read_symlink(entry.path(), ec);
      auto target_p = resolve(target);
      if (!target_p.ok()) return target_p.propagate<IoAccounting>();
      const fs::path target_path = target_p.value();
      fs::create_directories(target_path.parent_path(), ec);
      fs::create_symlink(link_target, target_path, ec);
      if (ec) {
        return Result<IoAccounting>(Error(
            ErrorCode::kInternal, "copy_tree link " + target + ": " + ec.message()));
      }
      IoAccounting acct;
      acct.links_created = 1;
      acct.files_touched = 1;
      total += acct;
      account(acct);
    } else if (entry.is_directory()) {
      VMP_RETURN_IF_ERROR_AS(make_dir(target), IoAccounting);
    } else {
      auto copied = copy_file(from + "/" + rel, target);
      if (!copied.ok()) return copied;
      total += copied.value();
    }
  }
  if (ec) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "copy_tree walk: " + ec.message()));
  }
  return total;
}

Status ArtifactStore::remove(const std::string& relative) {
  auto p = resolve(relative);
  if (!p.ok()) return p.error();
  std::error_code ec;
  if (!fs::remove(p.value(), ec) || ec) {
    return Status(ErrorCode::kNotFound,
                  "remove(" + relative + "): " +
                      (ec ? ec.message() : "no such file"));
  }
  return Status();
}

Result<IoAccounting> ArtifactStore::remove_tree(const std::string& relative,
                                                std::string_view spare) {
  if (auto injected = fault::check(fault::points::kStoreRemove, relative);
      !injected.ok()) {
    return injected.error();
  }
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<IoAccounting>();
  const char* path = p.value().c_str();
  // Measure while deleting so the caller learns what the removal actually
  // reclaimed.  A missing path is not an error (idempotent cleanup): it
  // frees nothing.
  TreeFootprint freed;
  bool ok = true;
  const int dir = open_tree(path);
  if (dir >= 0) {
    // A retired spare is freed as far as the caller can tell.
    if (const std::uint64_t retired =
            spare.empty() ? 0 : retire_spare(dir, std::string(spare));
        retired > 0) {
      ++freed.files;
      freed.physical_bytes += retired;
    }
    ok = drain_directory(dir, freed) && ::rmdir(path) == 0;
  } else if (errno == ENOTDIR || errno == ELOOP) {
    // A single file, or a symlink (O_NOFOLLOW refused it): the entry itself.
    struct stat st {};
    if (::lstat(path, &st) == 0) {
      charge(freed, IFTODT(st.st_mode), st.st_size);
      ok = ::unlink(path) == 0;
    } else {
      ok = errno == ENOENT || errno == ENOTDIR;
    }
  } else {
    ok = errno == ENOENT;
  }
  if (!ok) {
    return Result<IoAccounting>(Error(
        ErrorCode::kInternal, "remove_tree(" + relative + "): " + errno_text()));
  }
  IoAccounting acct;
  acct.bytes_freed = freed.physical_bytes;
  acct.files_touched = freed.files + freed.links;
  account(acct);
  return acct;
}

}  // namespace vmp::storage
