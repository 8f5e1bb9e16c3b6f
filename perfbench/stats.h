// Statistics the create-path benchmark reports.  Kept header-only and free
// of program types so stats_test.cpp can check them without the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// Latency recorded for an operation that failed: it sorts after every
/// success, so a failure counts as missing any latency limit.
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// A percentile together with the samples it was taken over and the number
/// of samples strictly beyond the reported rank.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile (q in (0, 1]): the smallest sample with at least
/// q of the samples at or below it.  Failed samples (kFailed) take part and
/// sort last.  An empty input yields a zero value over zero samples.
inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  p.value = samples[index];
  p.beyond = samples.size() - 1 - index;
  return p;
}

/// Drift of a closed-loop run: median latency of the last tenth of the
/// samples (in request order) over the median of the first tenth.  1.0 means
/// no drift; 0 when there are fewer than ten samples.
inline double late_early_ratio(const std::vector<double>& in_order) {
  const std::size_t decile = in_order.size() / 10;
  if (decile == 0) return 0.0;
  const std::vector<double> early(in_order.begin(), in_order.begin() + decile);
  const std::vector<double> late(in_order.end() - decile, in_order.end());
  const double base = percentile(early, 0.5).value;
  return base > 0.0 ? percentile(late, 0.5).value / base : 0.0;
}

/// Share of the untraced mean create time that the per-layer ledger does
/// not account for: 1 - (sum of layer times per create) / mean create time.
/// Negative when the layers add up to more than the untraced create.
inline double unattributed_share(const std::vector<double>& layer_means,
                                 double untraced_mean) {
  if (!(untraced_mean > 0.0)) return 1.0;
  double sum = 0.0;
  for (const double t : layer_means) sum += t;
  return 1.0 - sum / untraced_mean;
}

/// Conventional median: the middle value, or the mean of the two middle
/// values of an even count.  Used across a run's blocks, where a nearest
/// rank of two blocks would always pick the lower one.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Host-speed scale of each of `cycles` consecutive cycles.  A probe's
/// position is the number of cycles completed when it ran; positions
/// ascend strictly from 0 to `cycles`.  Cycle i ran between the last probe
/// at or before position i and the first at or after i + 1, and its scale
/// is `nominal_ms` over the mean of those two probe times: 1.0 on a host
/// where the probe takes `nominal_ms`, 0.5 where it takes twice as long.
inline std::vector<double> cycle_scale(const std::vector<std::size_t>& positions,
                                       const std::vector<double>& probe_ms,
                                       std::size_t cycles, double nominal_ms) {
  std::vector<double> scale;
  std::size_t after = 0;
  for (std::size_t i = 0; i < cycles; ++i) {
    while (positions[after] < i + 1) ++after;
    scale.push_back(nominal_ms / ((probe_ms[after - 1] + probe_ms[after]) / 2.0));
  }
  return scale;
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

}  // namespace perfbench
