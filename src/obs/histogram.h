// Log-linear latency histogram with mergeable snapshots.
//
// util::Histogram reproduces the paper's fixed-bin figures; this histogram
// serves the fleet: every obs::Timer folds samples into one so any latency
// site answers p50/p90/p99/p999, and snapshots merge across plants so the
// shop can compute fleet-wide tails (DESIGN.md §9).  Design constraints:
//
//   * hot-path record is one index computation plus one relaxed atomic
//     increment (bench/obs_overhead holds it to <= 15 ns/op);
//   * buckets are log-linear — each power-of-two octave is split into
//     kSubBuckets linear sub-buckets — so the relative width of any bucket
//     is <= 1/kSubBuckets (~3%), keeping quantile error well under the 10%
//     target for any sample distribution;
//   * snapshots are plain count vectors: merging is element-wise addition,
//     which makes the merge associative and commutative (asserted by
//     property test), and encodes sparsely for classad transport.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vmp::obs {

/// Point-in-time copy of a LogHistogram (also the wire/merge form).
struct HistogramSnapshot {
  /// Dense bucket counts (LogHistogram::kBucketCount entries) or empty
  /// when no sample was ever recorded.
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;

  bool empty() const { return total == 0; }

  /// Element-wise addition (associative, commutative).
  void merge(const HistogramSnapshot& other);

  /// Nearest-rank quantile, q in [0, 1]; returns the bucket midpoint of
  /// the bucket holding rank ceil(q * total).  0 when empty.
  double quantile(double q) const;

  /// Sparse text form "bucket:count,bucket:count,..." (empty string when
  /// empty); transported as a classad string attribute.
  std::string encode() const;
  static std::optional<HistogramSnapshot> decode(const std::string& text);

  bool operator==(const HistogramSnapshot& other) const;
};

/// Concurrent log-linear histogram.  Values are seconds; the covered range
/// [2^kMinExp, 2^kMaxExp) spans ~1 ns to ~12 days, with explicit underflow
/// and overflow buckets clamping the tails.
class LogHistogram {
 public:
  static constexpr int kMinExp = -30;           // 2^-30 s ~ 0.93 ns
  static constexpr int kMaxExp = 20;            // 2^20 s ~ 12 days
  static constexpr std::size_t kSubBuckets = 32;
  /// Underflow + octaves*sub + overflow.
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  LogHistogram() = default;
  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;

  /// Record one sample: bucket index + one relaxed fetch_add.
  void record(double v) {
    counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;
  std::uint64_t total() const;
  void reset();

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

  std::atomic<std::uint64_t> counts_[kBucketCount] = {};
};

}  // namespace vmp::obs
