#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vmp::obs {

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.empty()) return;
  if (counts.empty()) {
    counts = other.counts;
    total = other.total;
    return;
  }
  if (counts.size() < other.counts.size()) {
    counts.resize(other.counts.size(), 0);
  }
  for (std::size_t i = 0; i < other.counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  total += other.total;
}

double HistogramSnapshot::quantile(double q) const {
  if (empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) return LogHistogram::bucket_mid(i);
  }
  // total disagreed with the counts (corrupt snapshot): fall back to the
  // highest occupied bucket.
  for (std::size_t i = counts.size(); i-- > 0;) {
    if (counts[i] != 0) return LogHistogram::bucket_mid(i);
  }
  return 0.0;
}

std::string HistogramSnapshot::encode() const {
  std::string out;
  char item[48];
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    std::snprintf(item, sizeof(item), "%zu:%llu", i,
                  static_cast<unsigned long long>(counts[i]));
    if (!out.empty()) out += ',';
    out += item;
  }
  return out;
}

std::optional<HistogramSnapshot> HistogramSnapshot::decode(
    const std::string& text) {
  HistogramSnapshot snap;
  if (text.empty()) return snap;
  snap.counts.assign(LogHistogram::kBucketCount, 0);
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) return std::nullopt;
    char* end = nullptr;
    const unsigned long long bucket =
        std::strtoull(item.c_str(), &end, 10);
    if (end != item.c_str() + colon ||
        bucket >= LogHistogram::kBucketCount) {
      return std::nullopt;
    }
    const char* count_text = item.c_str() + colon + 1;
    const unsigned long long count = std::strtoull(count_text, &end, 10);
    if (end == count_text || *end != '\0') return std::nullopt;
    snap.counts[bucket] += count;
    snap.total += count;
    pos = comma + 1;
  }
  if (snap.total == 0) snap.counts.clear();
  return snap;
}

bool HistogramSnapshot::operator==(const HistogramSnapshot& other) const {
  if (total != other.total) return false;
  const std::size_t n = std::max(counts.size(), other.counts.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = i < counts.size() ? counts[i] : 0;
    const std::uint64_t b = i < other.counts.size() ? other.counts[i] : 0;
    if (a != b) return false;
  }
  return true;
}

HistogramSnapshot LogHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.counts.assign(kBucketCount, 0);
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    snap.counts[i] = c;
    snap.total += c;
  }
  if (snap.total == 0) snap.counts.clear();
  return snap;
}

std::uint64_t LogHistogram::total() const {
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    t += counts_[i].load(std::memory_order_relaxed);
  }
  return t;
}

void LogHistogram::reset() {
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
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
