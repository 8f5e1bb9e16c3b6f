#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace vmp::util {

Summary Summary::from_moments(std::size_t count, double sum, double sum_sq,
                              double min, double max) {
  Summary s;
  s.count_ = count;
  s.sum_ = sum;
  s.sum_sq_ = sum_sq;
  s.min_ = min;
  s.max_ = max;
  return s;
}

void Summary::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  sum_sq_ += x * x;
}

double Summary::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double Summary::variance() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
  return var > 0.0 ? var : 0.0;  // guard tiny negative from rounding
}

double Summary::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (p <= 0.0) return samples.front();
  if (p >= 100.0) return samples.back();
  const double rank = p / 100.0 * static_cast<double>(samples.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx == 0) idx = 1;
  if (idx > samples.size()) idx = samples.size();
  return samples[idx - 1];
}

Histogram::Histogram(double lo, double hi, double width) : lo_(lo), width_(width) {
  if (width <= 0.0 || hi <= lo) {
    throw std::invalid_argument("Histogram: bad bin specification");
  }
  const double span = (hi - lo) / width;
  const auto bins = static_cast<std::size_t>(std::llround(span));
  if (bins == 0 || std::abs(span - static_cast<double>(bins)) > 1e-9) {
    throw std::invalid_argument("Histogram: range not a multiple of width");
  }
  counts_.assign(bins, 0);
}

void Histogram::add(double x) { add_to_bin(bin_of(x), 1); }

std::size_t Histogram::bin_of(double x) const {
  double offset = (x - lo_) / width_;
  long bin = static_cast<long>(std::floor(offset));
  if (bin < 0) bin = 0;
  if (bin >= static_cast<long>(counts_.size())) {
    bin = static_cast<long>(counts_.size()) - 1;
  }
  return static_cast<std::size_t>(bin);
}

void Histogram::add_to_bin(std::size_t bin, std::size_t n) {
  counts_.at(bin) += n;
  total_ += n;
}

double Histogram::normalized(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(bin)) / static_cast<double>(total_);
}

std::string Histogram::to_table(const std::string& label) const {
  std::ostringstream out;
  out << "# " << label << "\n";
  out << "# bin_center count normalized_frequency\n";
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out << bin_center(i) << " " << counts_[i] << " " << normalized(i) << "\n";
  }
  return out.str();
}

void FaultReport::record(const std::string& point) {
  ++counts_[point];
  ++total_;
}

std::uint64_t FaultReport::count(const std::string& point) const {
  auto it = counts_.find(point);
  return it == counts_.end() ? 0 : it->second;
}

std::string FaultReport::to_string() const {
  if (total_ == 0) return "no injections";
  std::ostringstream out;
  for (const auto& [point, count] : counts_) {
    out << point << "=" << count << " ";
  }
  out << "(total " << total_ << ")";
  return out.str();
}

}  // namespace vmp::util
