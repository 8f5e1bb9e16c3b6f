// Summary statistics and fixed-bin histograms.
//
// The paper reports its evaluation as normalized-frequency histograms
// (Figures 4 and 5) and a per-request series (Figure 6); Histogram mirrors
// the exact binning used there (bin centers 5,15,...,85 for Fig. 4 and
// 5,10,...,70 for Fig. 5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vmp::util {

/// Running summary of a sample set.
class Summary {
 public:
  /// The summary of `count` samples with these running moments, for
  /// accumulators that keep the moments elsewhere (obs::Timer's atomics).
  static Summary from_moments(std::size_t count, double sum, double sum_sq,
                              double min, double max);

  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  double variance() const;  // sample variance (n-1); 0 if count < 2
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile over a copy of the samples (p in [0,100], nearest-rank).
double percentile(std::vector<double> samples, double p);

/// Per-point counters of fired fault injections.  The fault registry keeps
/// one and hands out snapshots, so tests and benches can assert exactly
/// which injections fired ("store.write fired twice, bus.send never").
class FaultReport {
 public:
  void record(const std::string& point);

  /// Fired count for one injection point (0 when it never fired).
  std::uint64_t count(const std::string& point) const;
  std::uint64_t total() const { return total_; }
  bool empty() const { return total_ == 0; }
  const std::map<std::string, std::uint64_t>& by_point() const {
    return counts_;
  }

  /// "bus.send=1 store.write=2 (total 3)"; "no injections" when empty.
  std::string to_string() const;

 private:
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Fixed-width histogram with explicit bin edges [lo, lo+w), [lo+w, lo+2w)...
/// Out-of-range samples clamp into the first/last bin, matching how the
/// paper's plots fold tails into edge bins.
class Histogram {
 public:
  /// Bins cover [lo, hi) with the given width; hi-lo must be a positive
  /// multiple of width.
  Histogram(double lo, double hi, double width);

  void add(double x);
  /// The bin add(x) counts x in.
  std::size_t bin_of(double x) const;
  /// Count n samples in one bin (rebuilding a histogram kept elsewhere).
  void add_to_bin(std::size_t bin, std::size_t n);

  std::size_t bin_count() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  std::size_t count_at(std::size_t bin) const { return counts_.at(bin); }
  double bin_low(std::size_t bin) const { return lo_ + width_ * bin; }
  double bin_center(std::size_t bin) const {
    return lo_ + width_ * (bin + 0.5);
  }

  /// Normalized frequency of occurrence (the paper's y axis).
  double normalized(std::size_t bin) const;

  /// Render as "center count frequency" rows, one per bin.
  std::string to_table(const std::string& label) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace vmp::util
