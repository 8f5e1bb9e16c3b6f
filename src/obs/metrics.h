// Lock-cheap metrics registry: named counters, gauges, latency timers.
//
// The paper's monitoring plane (Figure 2) stores per-VM state in the VM
// Information System; this module is the fleet-wide numeric side of that
// plane.  Components resolve a metric once (a stable pointer) and then
// update it on hot paths:
//
//   * Counter   — monotonically increasing; sharded cache-line-padded
//                 atomics so concurrent increments do not bounce one line.
//   * Gauge     — a settable signed level (active VMs, in-flight calls).
//   * Timer     — latency samples folded into running moments (count,
//                 sum, sum of squares, min, max) and an always-on
//                 log-linear LogHistogram so every latency site answers
//                 p50/p90/p99/p999.  Recording is lock-free: the moments
//                 live in per-thread shards, so threads that record at
//                 once never wait on each other.
//
// Naming scheme (DESIGN.md §8): "component.verb.unit" where unit is one of
// `count`, `gauge`, `seconds` (e.g. "bus.call.seconds", "vm.active.gauge").
// The process-wide registry is what the classad exporter snapshots into the
// information system on every monitor sweep.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "obs/histogram.h"
#include "util/stats.h"

namespace vmp::obs {

/// Monotonic counter, sharded to keep concurrent increments cheap.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shard_index() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return index;
  }
  Shard shards_[kShards];
};

/// Settable signed level.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Latency recorder: moments + LogHistogram.  record() takes no lock.
class Timer {
 public:
  Timer() = default;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void record(double seconds);

  util::Summary summary() const;
  /// Mergeable snapshot of the always-on log-linear histogram.
  HistogramSnapshot quantile_histogram() const { return log_hist_.snapshot(); }
  /// Bytes this timer holds: its shards plus the histogram pages its
  /// samples have touched.
  std::size_t footprint_bytes() const {
    return sizeof(Timer) + log_hist_.allocated_bytes();
  }

 private:
  /// Threads that lease a shard of their own; any further thread records
  /// into the one shared shard that follows them.
  static constexpr std::size_t kOwnedShards = 16;
  /// One writer's running moments.  An owned shard has a single writer
  /// (plain load + store); the shared one takes read-modify-writes.
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> sum_sq{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };
  /// This thread's shard index: leased on its first record, returned when
  /// the thread exits; kOwnedShards when every owned shard is leased.
  static std::size_t shard_index();

  Shard shards_[kOwnedShards + 1];
  LogHistogram log_hist_;
};

/// Point-in-time copy of one timer.  The mean/min/max fields and their
/// classad attribute names predate the histogram and stay backward
/// compatible; the p* quantiles come from `hist`, which also makes the
/// stats mergeable across plants (fleet rollups).
struct TimerStats {
  std::size_t count = 0;
  double sum_s = 0.0;
  double mean_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  double p99_s = 0.0;
  double p999_s = 0.0;
  HistogramSnapshot hist;

  /// Recompute the p* fields from `hist` (no-op when hist is empty).
  void refresh_quantiles();
  /// Fold another plant's stats into this one (fleet rollup): counts and
  /// sums add, min/max widen, histograms merge, quantiles refresh.
  void merge(const TimerStats& other);
};

/// Point-in-time copy of every metric (safe to read with no locks held).
/// Also the fleet rollup unit: snapshots parsed back from exported classads
/// (obs::metrics_snapshot_from_ad) carry classad-folded names
/// ("bus_call_count"), so the accessors fall back to the folded spelling,
/// and merge() folds per-plant snapshots into one.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, TimerStats> timers;
  /// Derived real-valued attributes a pre-merged fleet snapshot may carry
  /// in place of raw counters; ratio() keys are "<hit>/<miss>" in folded
  /// spelling.
  std::map<std::string, double> derived;

  /// counters[name], 0 when absent (folded-name fallback).
  std::uint64_t counter(const std::string& name) const;
  std::int64_t gauge(const std::string& name) const;
  /// Timer stats, nullptr when absent (folded-name fallback).
  const TimerStats* timer_stats(const std::string& name) const;

  /// hits / (hits + misses); nullopt when both are zero.  Pre-merged fleet
  /// snapshots that carry only the derived ratio (no raw counters) are
  /// served from `derived`.
  std::optional<double> ratio(const std::string& hit_counter,
                              const std::string& miss_counter) const;

  /// Fold another snapshot in: counters/gauges sum, timers merge, derived
  /// values keep the first spelling seen.
  void merge(const MetricsSnapshot& other);
};

class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented component uses.
  static MetricsRegistry& instance();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create.  Returned pointers are stable for the registry's
  /// lifetime — resolve once, update forever.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Timer* timer(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Zero every metric (counters restart, gauges reset, timers empty).
  /// Registered names and handed-out pointers stay valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

/// Fold a metric name into a classad-safe attribute name
/// ("bus.call.count" -> "bus_call_count").
std::string attr_name(const std::string& metric_name);

/// Render a snapshot as an aligned human-readable table.
std::string render_metrics_text(const MetricsSnapshot& snapshot);

}  // namespace vmp::obs
