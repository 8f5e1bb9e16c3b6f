// Self-test of the benchmark's statistics (stats.h).  Exits non-zero on the
// first failed check; run.py runs it after every build.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "stats_test: FAILED %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentile_with_sample_count() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  const perfbench::Percentile p50 = perfbench::percentile(v, 0.5);
  check(near(p50.value, 50.0), "p50 of 1..100 is 50 (nearest rank)");
  check(p50.samples == 100, "p50 reports its sample count");
  check(p50.beyond == 50, "50 samples lie beyond the p50 rank");
  const perfbench::Percentile p95 = perfbench::percentile(v, 0.95);
  check(near(p95.value, 95.0), "p95 of 1..100 is 95");
  check(p95.beyond == 5, "5 samples lie beyond the p95 rank");
  check(near(perfbench::percentile({7.0}, 0.95).value, 7.0),
        "a single sample is every percentile");
  const perfbench::Percentile empty = perfbench::percentile({}, 0.5);
  check(empty.samples == 0 && empty.value == 0.0, "empty input is 0 over 0");
  check(near(perfbench::percentile({1, 2, 3}, 1.0).value, 3.0),
        "q = 1 is the maximum");
}

void failed_operations_sort_as_infinity() {
  std::vector<double> v(100, 1.0);
  for (int i = 0; i < 5; ++i) v[i * 7] = perfbench::kFailed;
  check(near(perfbench::percentile(v, 0.95).value, 1.0),
        "five failures in 100 stay beyond p95");
  v[99] = perfbench::kFailed;
  check(std::isinf(perfbench::percentile(v, 0.95).value),
        "six failures in 100 push p95 to +inf");
  check(near(perfbench::percentile(v, 0.5).value, 1.0),
        "failures do not move the median of mostly successes");
}

void late_early_ratio() {
  std::vector<double> flat(200, 3.0);
  check(near(perfbench::late_early_ratio(flat), 1.0), "no drift reads 1.0");
  std::vector<double> rising;
  for (int i = 0; i < 100; ++i) rising.push_back(i < 10 ? 2.0 : i >= 90 ? 5.0 : 3.0);
  check(near(perfbench::late_early_ratio(rising), 2.5),
        "last-decile p50 over first-decile p50");
  check(perfbench::late_early_ratio({1, 2, 3}) == 0.0,
        "fewer than ten samples reads 0");
}

void unattributed_share_arithmetic() {
  check(near(perfbench::unattributed_share({1.0, 2.0, 6.0}, 10.0), 0.1),
        "layers summing to 9 of 10 leave 0.1");
  check(near(perfbench::unattributed_share({5.0, 6.0}, 10.0), -0.1),
        "over-attribution reads negative");
  check(near(perfbench::unattributed_share({}, 4.0), 1.0),
        "no layers leave everything unattributed");
  check(near(perfbench::unattributed_share({1.0}, 0.0), 1.0),
        "no untraced time is fully unattributed");
  check(near(perfbench::mean({1.0, 2.0, 6.0}), 3.0), "mean");
  check(near(perfbench::median({5.0, 1.0, 3.0}), 3.0), "odd-count median");
  check(near(perfbench::median({4.0, 1.0}), 2.5),
        "even-count median averages the middle pair");
}

void cycle_scale_brackets_each_cycle() {
  // Probes after 0, 1 and 3 cycles: cycle 0 lies between the first two,
  // cycles 1 and 2 both between the last two.
  const std::vector<double> scale =
      perfbench::cycle_scale({0, 1, 3}, {0.3, 0.5, 0.7}, 3, 0.3);
  check(scale.size() == 3, "one scale per cycle");
  check(near(scale[0], 0.3 / 0.4), "nominal over the bracketing mean");
  check(near(scale[1], 0.5) && near(scale[2], 0.5),
        "cycles between the same probes share a scale");
  const std::vector<double> steady =
      perfbench::cycle_scale({0, 2}, {0.3, 0.3}, 2, 0.3);
  check(near(steady[0], 1.0) && near(steady[1], 1.0),
        "a host at the nominal probe time scales by 1");
  check(perfbench::cycle_scale({0}, {0.4}, 0, 0.3).empty(),
        "no cycles, no scales");
}

}  // namespace

int main() {
  percentile_with_sample_count();
  failed_operations_sort_as_infinity();
  late_early_ratio();
  unattributed_share_arithmetic();
  cycle_scale_brackets_each_cycle();
  if (failures != 0) return 1;
  std::printf("stats_test: ok\n");
  return 0;
}
