// Log-linear latency histogram with mergeable snapshots.
//
// util::Histogram reproduces the paper's fixed-bin figures; this histogram
// serves the fleet: every obs::Timer folds samples into one so any latency
// site answers p50/p90/p99/p999, and snapshots merge across plants so the
// shop can compute fleet-wide tails (DESIGN.md §9).  Design constraints:
//
//   * hot-path record is one index computation, one acquire load of the
//     octave's page and one relaxed increment (bench/obs_overhead holds it
//     to <= 15 ns/op);
//   * buckets are log-linear — each power-of-two octave is split into
//     kSubBuckets linear sub-buckets — so the relative width of any bucket
//     is <= 1/kSubBuckets (~3%), keeping quantile error well under the 10%
//     target for any sample distribution;
//   * counters are paged per octave: the two edge counters live inline and
//     an octave's kSubBuckets counters are allocated by the first record
//     into it, so a histogram costs what its samples span.  A Timer's
//     footprint is its 17 moment shards plus the pages it has touched
//     (DESIGN.md §8);
//   * snapshots hold only the occupied buckets, in bucket order: merging
//     is a sorted merge adding counts, which makes it associative and
//     commutative (asserted by property test), and a snapshot, merge or
//     encode costs per occupied bucket, not per bucket of the geometry.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vmp::obs {

/// Point-in-time copy of a LogHistogram (also the wire/merge form).
struct HistogramSnapshot {
  /// One occupied bucket.
  struct Entry {
    std::uint32_t bucket = 0;
    std::uint64_t count = 0;
    bool operator==(const Entry&) const = default;
  };
  /// Occupied buckets in ascending bucket order, every count non-zero;
  /// empty when no sample was ever recorded.
  std::vector<Entry> entries;
  std::uint64_t total = 0;

  bool empty() const { return total == 0; }

  /// The count in `bucket` (0 when unoccupied).
  std::uint64_t count(std::size_t bucket) const;

  /// Bucket-wise addition (associative, commutative).
  void merge(const HistogramSnapshot& other);

  /// Nearest-rank quantile, q in [0, 1]; returns the bucket midpoint of
  /// the bucket holding rank ceil(q * total).  0 when empty.
  double quantile(double q) const;

  /// Sparse text form "bucket:count,bucket:count,..." (empty string when
  /// empty); transported as a classad string attribute.
  std::string encode() const;
  /// Inverse of encode(): items in ascending bucket order, each count
  /// positive, both numbers unsigned decimal digits (no sign, no
  /// whitespace).  An out-of-range bucket or a total beyond 64 bits is
  /// refused, so a corrupt ad cannot poison a rollup.
  static std::optional<HistogramSnapshot> decode(const std::string& text);

  bool operator==(const HistogramSnapshot& other) const = default;
};

/// Concurrent log-linear histogram.  Values are seconds; the covered range
/// [2^kMinExp, 2^kMaxExp) spans ~1 ns to ~12 days, with explicit underflow
/// and overflow buckets clamping the tails.
class LogHistogram {
 public:
  static constexpr int kMinExp = -30;           // 2^-30 s ~ 0.93 ns
  static constexpr int kMaxExp = 20;            // 2^20 s ~ 12 days
  static constexpr std::size_t kOctaves =
      static_cast<std::size_t>(kMaxExp - kMinExp);
  static constexpr std::size_t kSubBuckets = 32;
  /// Underflow + octaves*sub + overflow.
  static constexpr std::size_t kBucketCount = kOctaves * kSubBuckets + 2;

  /// One octave's counters.
  using Page = std::array<std::atomic<std::uint64_t>, kSubBuckets>;

  LogHistogram() = default;
  ~LogHistogram();
  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;

  /// Record one sample: bucket index, the octave's page (allocated by the
  /// first record into it) and one relaxed fetch_add.
  void record(double v) {
    const std::size_t bucket = bucket_index(v);
    if (bucket == 0) {
      underflow_.fetch_add(1, std::memory_order_relaxed);
    } else if (bucket == kBucketCount - 1) {
      overflow_.fetch_add(1, std::memory_order_relaxed);
    } else {
      const std::size_t octave = (bucket - 1) / kSubBuckets;
      Page* page = pages_[octave].load(std::memory_order_acquire);
      if (page == nullptr) [[unlikely]] page = allocate_page(octave);
      (*page)[(bucket - 1) % kSubBuckets].fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  HistogramSnapshot snapshot() const;
  std::uint64_t total() const;
  /// Zero every count; allocated pages stay.
  void reset();
  /// Heap bytes held by the allocated pages (the inline part is
  /// sizeof(LogHistogram)).
  std::size_t allocated_bytes() const { return page_count() * sizeof(Page); }

  // -- Bucket geometry (shared with HistogramSnapshot::quantile) ------------
  /// Read off the IEEE-754 bits: every in-range sample is a normal double,
  /// so its exponent field is the octave and its top mantissa bits are the
  /// linear sub-bucket (frexp arithmetic gives the same index, slower).
  static std::size_t bucket_index(double v) {
    constexpr int kSubBits = std::countr_zero(kSubBuckets);
    if (!(v >= bound(kMinExp))) return 0;  // includes NaN, <= 0
    if (v >= bound(kMaxExp)) return kBucketCount - 1;
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const int octave = static_cast<int>(bits >> 52) - 1023;
    const std::size_t sub = (bits >> (52 - kSubBits)) & (kSubBuckets - 1);
    return 1 + static_cast<std::size_t>(octave - kMinExp) * kSubBuckets + sub;
  }
  static double bucket_lower(std::size_t bucket);
  static double bucket_upper(std::size_t bucket);
  static double bucket_mid(std::size_t bucket);

 private:
  /// 2^exp, for a normal-range exponent.
  static constexpr double bound(int exp) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(exp + 1023) << 52);
  }

  /// Install a zeroed page for `octave` unless another thread won the
  /// race; returns the installed page either way.
  Page* allocate_page(std::size_t octave);
  std::size_t page_count() const;

  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<Page*> pages_[kOctaves] = {};
};

}  // namespace vmp::obs
