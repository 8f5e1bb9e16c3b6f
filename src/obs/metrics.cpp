#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>
#include <utility>

namespace vmp::obs {

namespace {

/// Bit i set: owned Timer shard i is leased by a live thread.  The lease
/// is process-wide (one index for every Timer) and returned at thread
/// exit; the release/acquire pair hands the shard's last values over to
/// its next owner.
std::atomic<std::uint32_t> g_leased_shards{0};

struct ShardLease {
  explicit ShardLease(std::size_t owned) : index(owned), shared(owned) {
    const std::uint32_t all = (std::uint32_t{1} << owned) - 1;
    std::uint32_t leased = g_leased_shards.load(std::memory_order_relaxed);
    while ((leased & all) != all) {
      const int bit = std::countr_one(leased);
      if (g_leased_shards.compare_exchange_weak(
              leased, leased | (std::uint32_t{1} << bit),
              std::memory_order_acquire, std::memory_order_relaxed)) {
        index = static_cast<std::size_t>(bit);
        return;
      }
    }
  }
  ~ShardLease() {
    if (index != shared) {
      g_leased_shards.fetch_and(~(std::uint32_t{1} << index),
                                std::memory_order_release);
    }
  }
  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;

  std::size_t index;   // this thread's shard
  std::size_t shared;  // the shared shard's index
};

void store_min(std::atomic<double>& slot, double x) {
  double seen = slot.load(std::memory_order_relaxed);
  while (x < seen &&
         !slot.compare_exchange_weak(seen, x, std::memory_order_relaxed)) {
  }
}

void store_max(std::atomic<double>& slot, double x) {
  double seen = slot.load(std::memory_order_relaxed);
  while (x > seen &&
         !slot.compare_exchange_weak(seen, x, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t Timer::shard_index() {
  static_assert(kOwnedShards < 32, "leases are bits of one 32-bit word");
  thread_local const ShardLease lease(kOwnedShards);
  return lease.index;
}

void Timer::record(double seconds) {
  log_hist_.record(seconds);
  const std::size_t index = shard_index();
  Shard& s = shards_[index];
  constexpr auto kRelaxed = std::memory_order_relaxed;
  if (index < kOwnedShards) {
    // The only writer: no read-modify-write needed.
    s.count.store(s.count.load(kRelaxed) + 1, kRelaxed);
    s.sum.store(s.sum.load(kRelaxed) + seconds, kRelaxed);
    s.sum_sq.store(s.sum_sq.load(kRelaxed) + seconds * seconds, kRelaxed);
    if (seconds < s.min.load(kRelaxed)) s.min.store(seconds, kRelaxed);
    if (seconds > s.max.load(kRelaxed)) s.max.store(seconds, kRelaxed);
  } else {
    s.count.fetch_add(1, kRelaxed);
    s.sum.fetch_add(seconds, kRelaxed);
    s.sum_sq.fetch_add(seconds * seconds, kRelaxed);
    store_min(s.min, seconds);
    store_max(s.max, seconds);
  }
}

util::Summary Timer::summary() const {
  std::uint64_t count = 0;
  double sum = 0.0, sum_sq = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -min;
  for (const Shard& s : shards_) {
    count += s.count.load(std::memory_order_relaxed);
    sum += s.sum.load(std::memory_order_relaxed);
    sum_sq += s.sum_sq.load(std::memory_order_relaxed);
    min = std::min(min, s.min.load(std::memory_order_relaxed));
    max = std::max(max, s.max.load(std::memory_order_relaxed));
  }
  if (count == 0) return util::Summary();
  return util::Summary::from_moments(count, sum, sum_sq, min, max);
}

void TimerStats::refresh_quantiles() {
  if (hist.empty()) return;
  p50_s = hist.quantile(0.50);
  p90_s = hist.quantile(0.90);
  p99_s = hist.quantile(0.99);
  p999_s = hist.quantile(0.999);
}

void TimerStats::merge(const TimerStats& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min_s = std::min(min_s, other.min_s);
  max_s = std::max(max_s, other.max_s);
  count += other.count;
  sum_s += other.sum_s;
  mean_s = sum_s / static_cast<double>(count);
  // A side without a histogram (stats reconstructed from a legacy ad)
  // still contributed its count/sum above; remember its exported
  // quantiles so they widen the recomputed ones instead of being
  // silently dropped from the rollup.
  double legacy_p50 = 0.0, legacy_p90 = 0.0, legacy_p99 = 0.0,
         legacy_p999 = 0.0;
  if (hist.empty()) {
    legacy_p50 = p50_s;
    legacy_p90 = p90_s;
    legacy_p99 = p99_s;
    legacy_p999 = p999_s;
  }
  if (other.hist.empty()) {
    legacy_p50 = std::max(legacy_p50, other.p50_s);
    legacy_p90 = std::max(legacy_p90, other.p90_s);
    legacy_p99 = std::max(legacy_p99, other.p99_s);
    legacy_p999 = std::max(legacy_p999, other.p999_s);
  }
  hist.merge(other.hist);
  if (!hist.empty()) {
    refresh_quantiles();
    p50_s = std::max(p50_s, legacy_p50);
    p90_s = std::max(p90_s, legacy_p90);
    p99_s = std::max(p99_s, legacy_p99);
    p999_s = std::max(p999_s, legacy_p999);
  } else {
    // No histograms on either side: the worse of the exported quantiles.
    p50_s = legacy_p50;
    p90_s = legacy_p90;
    p99_s = legacy_p99;
    p999_s = legacy_p999;
  }
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  if (it == counters.end()) it = counters.find(attr_name(name));
  return it == counters.end() ? 0 : it->second;
}

std::int64_t MetricsSnapshot::gauge(const std::string& name) const {
  auto it = gauges.find(name);
  if (it == gauges.end()) it = gauges.find(attr_name(name));
  return it == gauges.end() ? 0 : it->second;
}

const TimerStats* MetricsSnapshot::timer_stats(const std::string& name) const {
  auto it = timers.find(name);
  if (it == timers.end()) it = timers.find(attr_name(name));
  return it == timers.end() ? nullptr : &it->second;
}

std::optional<double> MetricsSnapshot::ratio(
    const std::string& hit_counter, const std::string& miss_counter) const {
  const double hits = static_cast<double>(counter(hit_counter));
  const double misses = static_cast<double>(counter(miss_counter));
  if (hits + misses > 0.0) return hits / (hits + misses);
  // Pre-merged fleet snapshots may carry only the derived ratio.
  auto it =
      derived.find(attr_name(hit_counter) + "/" + attr_name(miss_counter));
  if (it != derived.end()) return it->second;
  return std::nullopt;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] += value;
  for (const auto& [name, stats] : other.timers) timers[name].merge(stats);
  for (const auto& [name, value] : other.derived) derived.emplace(name, value);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Timer* MetricsRegistry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = timers_[name];
  if (!slot) slot = std::make_unique<Timer>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, timer] : timers_) {
    const util::Summary s = timer->summary();
    TimerStats stats;
    stats.count = s.count();
    stats.sum_s = s.sum();
    stats.mean_s = s.mean();
    stats.min_s = s.min();
    stats.max_s = s.max();
    stats.hist = timer->quantile_histogram();
    stats.refresh_quantiles();
    snap.timers.emplace_hint(snap.timers.end(), name, std::move(stats));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Handed-out pointers must stay valid: reset in place by replacing the
  // pointees' state, not the slots.
  for (auto& [name, counter] : counters_) {
    counter->~Counter();
    new (counter.get()) Counter();
  }
  for (auto& [name, gauge] : gauges_) gauge->set(0);
  for (auto& [name, timer] : timers_) {
    timer->~Timer();
    new (timer.get()) Timer();
  }
}

std::string attr_name(const std::string& metric_name) {
  std::string out = metric_name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

std::string render_metrics_text(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  char line[256];
  if (!snapshot.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : snapshot.counters) {
      std::snprintf(line, sizeof(line), "  %-40s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out << line;
    }
  }
  if (!snapshot.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, value] : snapshot.gauges) {
      std::snprintf(line, sizeof(line), "  %-40s %12lld\n", name.c_str(),
                    static_cast<long long>(value));
      out << line;
    }
  }
  if (!snapshot.timers.empty()) {
    out << "timers:\n";
    for (const auto& [name, stats] : snapshot.timers) {
      std::snprintf(
          line, sizeof(line),
          "  %-40s n=%-8zu mean=%.6fs min=%.6fs max=%.6fs p50=%.6fs "
          "p99=%.6fs\n",
          name.c_str(), stats.count, stats.mean_s, stats.min_s, stats.max_s,
          stats.p50_s, stats.p99_s);
      out << line;
    }
  }
  return out.str();
}

}  // namespace vmp::obs
