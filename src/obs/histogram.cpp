#include "obs/histogram.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>

namespace vmp::obs {

std::uint64_t HistogramSnapshot::count(std::size_t bucket) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), bucket,
      [](const Entry& e, std::size_t b) { return e.bucket < b; });
  return it != entries.end() && it->bucket == bucket ? it->count : 0;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  std::vector<Entry> merged;
  merged.reserve(entries.size() + other.entries.size());
  auto a = entries.begin();
  auto b = other.entries.begin();
  while (a != entries.end() && b != other.entries.end()) {
    if (a->bucket < b->bucket) {
      merged.push_back(*a++);
    } else if (b->bucket < a->bucket) {
      merged.push_back(*b++);
    } else {
      merged.push_back({a->bucket, a->count + b->count});
      ++a;
      ++b;
    }
  }
  merged.insert(merged.end(), a, entries.end());
  merged.insert(merged.end(), b, other.entries.end());
  entries = std::move(merged);
  total += other.total;
}

double HistogramSnapshot::quantile(double q) const {
  if (empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (const Entry& e : entries) {
    seen += e.count;
    if (seen >= rank) return LogHistogram::bucket_mid(e.bucket);
  }
  // total disagreed with the counts (corrupt snapshot): fall back to the
  // highest occupied bucket.
  return entries.empty() ? 0.0
                         : LogHistogram::bucket_mid(entries.back().bucket);
}

std::string HistogramSnapshot::encode() const {
  std::string out;
  char digits[24];  // any uint64_t in decimal
  const auto append = [&](std::uint64_t v) {
    out.append(digits, std::to_chars(digits, digits + sizeof(digits), v).ptr);
  };
  for (const Entry& e : entries) {
    if (!out.empty()) out += ',';
    append(e.bucket);
    out += ':';
    append(e.count);
  }
  return out;
}

std::optional<HistogramSnapshot> HistogramSnapshot::decode(
    const std::string& text) {
  HistogramSnapshot snap;
  const char* pos = text.data();
  const char* const end = pos + text.size();
  while (pos != end) {
    if (!snap.entries.empty() && *pos++ != ',') return std::nullopt;
    std::uint64_t bucket = 0;
    std::uint64_t count = 0;
    const auto [colon, bucket_ec] = std::from_chars(pos, end, bucket);
    if (bucket_ec != std::errc() || colon == end || *colon != ':' ||
        bucket >= LogHistogram::kBucketCount ||
        (!snap.entries.empty() && bucket <= snap.entries.back().bucket)) {
      return std::nullopt;
    }
    const auto [next, count_ec] = std::from_chars(colon + 1, end, count);
    if (count_ec != std::errc() || count == 0 ||
        count > std::numeric_limits<std::uint64_t>::max() - snap.total) {
      return std::nullopt;
    }
    snap.entries.push_back({static_cast<std::uint32_t>(bucket), count});
    snap.total += count;
    pos = next;
  }
  return snap;
}

LogHistogram::~LogHistogram() {
  for (std::atomic<Page*>& page : pages_) {
    delete page.load(std::memory_order_relaxed);
  }
}

LogHistogram::Page* LogHistogram::allocate_page(std::size_t octave) {
  Page* fresh = new Page();
  Page* installed = nullptr;
  if (pages_[octave].compare_exchange_strong(installed, fresh,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh;
  return installed;
}

HistogramSnapshot LogHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.entries.reserve(page_count() * kSubBuckets + 2);
  const auto add = [&snap](std::size_t bucket, std::uint64_t count) {
    if (count == 0) return;
    snap.entries.push_back({static_cast<std::uint32_t>(bucket), count});
    snap.total += count;
  };
  add(0, underflow_.load(std::memory_order_relaxed));
  for (std::size_t octave = 0; octave < kOctaves; ++octave) {
    const Page* page = pages_[octave].load(std::memory_order_acquire);
    if (page == nullptr) continue;
    for (std::size_t sub = 0; sub < kSubBuckets; ++sub) {
      add(1 + octave * kSubBuckets + sub,
          (*page)[sub].load(std::memory_order_relaxed));
    }
  }
  add(kBucketCount - 1, overflow_.load(std::memory_order_relaxed));
  return snap;
}

std::uint64_t LogHistogram::total() const {
  std::uint64_t t = underflow_.load(std::memory_order_relaxed) +
                    overflow_.load(std::memory_order_relaxed);
  for (const std::atomic<Page*>& slot : pages_) {
    const Page* page = slot.load(std::memory_order_acquire);
    if (page == nullptr) continue;
    for (const auto& c : *page) t += c.load(std::memory_order_relaxed);
  }
  return t;
}

void LogHistogram::reset() {
  underflow_.store(0, std::memory_order_relaxed);
  overflow_.store(0, std::memory_order_relaxed);
  for (std::atomic<Page*>& slot : pages_) {
    Page* page = slot.load(std::memory_order_acquire);
    if (page == nullptr) continue;
    for (auto& c : *page) c.store(0, std::memory_order_relaxed);
  }
}

std::size_t LogHistogram::page_count() const {
  return static_cast<std::size_t>(
      std::count_if(std::begin(pages_), std::end(pages_),
                    [](const std::atomic<Page*>& slot) {
                      return slot.load(std::memory_order_relaxed) != nullptr;
                    }));
}

double LogHistogram::bucket_lower(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  if (bucket >= kBucketCount - 1) return std::ldexp(1.0, kMaxExp);
  const std::size_t linear = bucket - 1;
  const int octave = kMinExp + static_cast<int>(linear / kSubBuckets);
  const double sub = static_cast<double>(linear % kSubBuckets);
  return std::ldexp(1.0 + sub / static_cast<double>(kSubBuckets), octave);
}

double LogHistogram::bucket_upper(std::size_t bucket) {
  if (bucket >= kBucketCount - 1) return std::ldexp(1.0, kMaxExp);
  return bucket_lower(bucket + 1);
}

double LogHistogram::bucket_mid(std::size_t bucket) {
  return 0.5 * (bucket_lower(bucket) + bucket_upper(bucket));
}

}  // namespace vmp::obs
