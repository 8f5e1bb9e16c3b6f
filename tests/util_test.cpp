// Unit tests for src/util: errors, random streams, statistics, strings,
// identifiers, thread pool, sorted flat containers.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>
#include <thread>

#include "util/error.h"
#include "util/flat_map.h"
#include "util/ids.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace vmp::util {
namespace {

// -- Error / Result / Status --------------------------------------------------

TEST(ErrorTest, DefaultIsOk) {
  Error e;
  EXPECT_TRUE(e.ok());
  EXPECT_EQ(e.to_string(), "OK");
}

TEST(ErrorTest, ToStringIncludesCodeAndMessage) {
  Error e(ErrorCode::kNotFound, "no golden machine");
  EXPECT_EQ(e.to_string(), "NOT_FOUND: no golden machine");
}

TEST(ErrorTest, WrapPrependsContext) {
  Error e = Error(ErrorCode::kInternal, "disk full").wrap("while cloning vm1");
  EXPECT_EQ(e.message(), "while cloning vm1: disk full");
}

TEST(ErrorTest, EveryCodeHasAName) {
  for (std::uint32_t c = 0; c <= 14; ++c) {
    EXPECT_STRNE(error_code_name(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(ErrorCode::kTimeout, "too slow");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kTimeout);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, ValueAccessOnErrorThrows) {
  Result<int> r(ErrorCode::kInternal, "boom");
  EXPECT_THROW(r.value(), BadResultAccess);
}

TEST(ResultTest, ErrorAccessOnValueThrows) {
  Result<int> r(1);
  EXPECT_THROW(r.error(), BadResultAccess);
}

TEST(ResultTest, PropagateConvertsType) {
  Result<int> r(ErrorCode::kNotFound, "x");
  Result<std::string> s = r.propagate<std::string>();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kNotFound);
}

TEST(StatusTest, DefaultOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, CarriesError) {
  Status s(ErrorCode::kUnavailable, "down");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kUnavailable);
}

TEST(StatusTest, MoveOnlyValueTypesWork) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 5);
}

// -- Random -------------------------------------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RandomTest, NextBelowRespectsBound) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
  }
}

TEST(RandomTest, NextBelowOneIsZero) {
  SplitMix64 rng(7);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RandomTest, DoubleInUnitInterval) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomTest, UniformWithinRange) {
  SplitMix64 rng(11);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform(5.0, 6.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 6.0);
  }
}

TEST(RandomTest, NormalHasRoughlyRightMoments) {
  SplitMix64 rng(13);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RandomTest, ExponentialHasRoughlyRightMean) {
  SplitMix64 rng(17);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.15);
}

TEST(RandomTest, BernoulliEdgeCases) {
  SplitMix64 rng(19);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(RandomTest, BernoulliFrequency) {
  SplitMix64 rng(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RandomTest, DerivedSeedsAreStreamIndependent) {
  EXPECT_NE(derive_seed(1, "alpha"), derive_seed(1, "beta"));
  EXPECT_NE(derive_seed(1, "alpha"), derive_seed(2, "alpha"));
  EXPECT_EQ(derive_seed(1, "alpha"), derive_seed(1, "alpha"));
}

TEST(RandomTest, LognormalIsPositive) {
  SplitMix64 rng(29);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

// -- Stats ---------------------------------------------------------------------

TEST(SummaryTest, EmptySummaryIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(percentile(v, 50), 5.0);
  EXPECT_EQ(percentile(v, 100), 10.0);
  EXPECT_EQ(percentile(v, 0), 1.0);
  EXPECT_EQ(percentile(v, 90), 9.0);
}

TEST(PercentileTest, EmptyIsZero) {
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(HistogramTest, PaperFigure4Binning) {
  // Figure 4: bins of width 10 centered at 5,15,...,85 -> [0,90).
  Histogram h(0, 90, 10);
  EXPECT_EQ(h.bin_count(), 9u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_center(8), 85.0);
}

TEST(HistogramTest, CountsAndNormalization) {
  Histogram h(0, 30, 10);
  h.add(5);
  h.add(6);
  h.add(15);
  h.add(29);
  EXPECT_EQ(h.count_at(0), 2u);
  EXPECT_EQ(h.count_at(1), 1u);
  EXPECT_EQ(h.count_at(2), 1u);
  EXPECT_DOUBLE_EQ(h.normalized(0), 0.5);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, OutOfRangeClampsToEdgeBins) {
  Histogram h(0, 30, 10);
  h.add(-5);
  h.add(100);
  EXPECT_EQ(h.count_at(0), 1u);
  EXPECT_EQ(h.count_at(2), 1u);
}

TEST(HistogramTest, BadSpecThrows) {
  EXPECT_THROW(Histogram(0, 10, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(10, 0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0, 25, 10), std::invalid_argument);
}

TEST(HistogramTest, TableRendering) {
  Histogram h(0, 20, 10);
  h.add(5);
  const std::string table = h.to_table("test");
  EXPECT_NE(table.find("# test"), std::string::npos);
  EXPECT_NE(table.find("5 1 1"), std::string::npos);
}

// -- Strings -------------------------------------------------------------------

TEST(StringsTest, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitNoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(join({}, "-"), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("vmplant", "vm"));
  EXPECT_FALSE(starts_with("vm", "vmplant"));
  EXPECT_TRUE(ends_with("disk0.redo", ".redo"));
  EXPECT_FALSE(ends_with("redo", "disk0.redo"));
}

TEST(StringsTest, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("Requirements", "requirements"));
  EXPECT_FALSE(iequals("Rank", "Ran"));
}

TEST(StringsTest, ParseInt64) {
  long long v = 0;
  EXPECT_TRUE(parse_int64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parse_int64("4x", &v));
  EXPECT_FALSE(parse_int64("", &v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("4.5", &v));
  EXPECT_DOUBLE_EQ(v, 4.5);
  EXPECT_TRUE(parse_double("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_FALSE(parse_double("abc", &v));
}

TEST(StringsTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -4.5, 0.0625, 1e-9, 12345678.9}) {
    double parsed = 0;
    ASSERT_TRUE(parse_double(format_double(v), &parsed)) << format_double(v);
    EXPECT_DOUBLE_EQ(parsed, v);
  }
}

/// format_double as it was written on snprintf/strtod: the reference the
/// to_chars rewrite must match byte for byte.
std::string snprintf_format_double(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  for (int precision = 1; precision < 17; ++precision) {
    char probe[64];
    std::snprintf(probe, sizeof probe, "%.*g", precision, v);
    if (std::strtod(probe, nullptr) == v) return probe;
  }
  return buf;
}

TEST(StringsTest, FormatDoubleMatchesSnprintfSearch) {
  std::vector<double> cases = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0, 50.0, 4.5,
      1e15, -1e15, 1e15 - 1, 999999999999999.5, 1e16, 1e17, 1e21, 1e22,
      1e23, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
      1.7976931348623157e308, -1.7976931348623157e308, 9007199254740993.0,
      0.30000000000000004, 123456789012345678.0, 1e-7, 1e-5, 1e-4, 1e-3,
      std::ldexp(1.0, 1023), std::ldexp(1.0, -1022), std::ldexp(1.0, -1074),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  // Powers of two (the shortest string and "%.*g" can round apart there)
  // and their neighbours.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    cases.push_back(p);
    cases.push_back(std::nextafter(p, 0.0));
    cases.push_back(std::nextafter(p, HUGE_VAL));
  }
  SplitMix64 rng(20261017);
  for (int i = 0; i < 40'000; ++i) {
    // Any bit pattern: every exponent, subnormals, inf and NaN payloads.
    cases.push_back(std::bit_cast<double>(rng.next_u64()));
  }
  for (int i = 0; i < 30'000; ++i) {
    // Integers, large and small, of either sign.
    const auto magnitude = static_cast<std::int64_t>(
        rng.next_u64() >> (rng.next_below(64)));
    cases.push_back(static_cast<double>(i % 2 ? -magnitude : magnitude));
  }
  for (int i = 0; i < 30'000; ++i) {
    // Bid-like costs: short decimals and their float noise.
    cases.push_back(rng.uniform(-1e6, 1e6) / std::pow(10.0, rng.next_below(8)));
    cases.push_back(static_cast<double>(rng.next_below(100000)) / 100.0 +
                    10.0);
  }
  ASSERT_GE(cases.size(), 100'000u);
  for (double v : cases) {
    ASSERT_EQ(format_double(v), snprintf_format_double(v))
        << std::hexfloat << v;
  }
}

// -- Ids ------------------------------------------------------------------------

TEST(IdsTest, SequentialAndPrefixed) {
  IdGenerator gen("vm");
  EXPECT_EQ(gen.next(), "vm-0001");
  EXPECT_EQ(gen.next(), "vm-0002");
  EXPECT_EQ(gen.issued(), 2u);
}

TEST(IdsTest, ThreadSafeUniqueness) {
  IdGenerator gen("x", 6);
  std::set<std::string> ids;
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        const std::string id = gen.next();
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(id);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ids.size(), 1600u);
}

// -- ThreadPool -------------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, WaitIdleDrains) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      counter.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ExceptionsSurfaceThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("bad"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

// -- FlatSet / FlatMap ---------------------------------------------------------
//
// Differential: the same seeded operation stream applied to a flat
// container and to the std:: container it replaces must leave the same
// contents in the same order, and every lookup must agree.

/// `prefix` then `n`.
std::string numbered(char prefix, std::uint64_t n) {
  std::string out(1, prefix);
  out += std::to_string(n);
  return out;
}

std::string small_key(SplitMix64* rng) {
  // Few distinct keys, so inserts collide and erases hit.
  return numbered('k', rng->next_below(24));
}

TEST(FlatContainerTest, FlatSetMatchesStdSetOverASeededStream) {
  SplitMix64 rng(0xF1A7);
  FlatSet<std::string> flat;
  std::set<std::string> ref;
  for (int step = 0; step < 4000; ++step) {
    const std::string key = small_key(&rng);
    switch (rng.next_below(5)) {
      case 0:
      case 1: {
        const bool inserted = flat.insert(key).second;
        EXPECT_EQ(inserted, ref.insert(key).second) << step;
        break;
      }
      case 2:
        EXPECT_EQ(flat.erase(key), ref.erase(key)) << step;
        break;
      case 3:
        EXPECT_EQ(flat.count(key), ref.count(key)) << step;
        EXPECT_EQ(flat.find(key) == flat.end(), ref.find(key) == ref.end());
        break;
      default:
        if (rng.next_below(50) == 0) {
          flat.clear();
          ref.clear();
        }
    }
    ASSERT_EQ(flat.size(), ref.size()) << step;
    ASSERT_TRUE(std::equal(flat.begin(), flat.end(), ref.begin())) << step;
  }
}

TEST(FlatContainerTest, FlatMapMatchesStdMapOverASeededStream) {
  SplitMix64 rng(0xF1A8);
  FlatMap<std::string, std::string> flat;
  std::map<std::string, std::string> ref;
  for (int step = 0; step < 4000; ++step) {
    const std::string key = small_key(&rng);
    const std::string value = numbered('v', static_cast<std::uint64_t>(step));
    switch (rng.next_below(6)) {
      case 0:
        flat[key] = value;
        ref[key] = value;
        break;
      case 1: {
        const bool inserted = flat.insert({key, value}).second;
        EXPECT_EQ(inserted, ref.insert({key, value}).second) << step;
        break;
      }
      case 2:
        EXPECT_EQ(flat.erase(key), ref.erase(key)) << step;
        break;
      case 3:
        ASSERT_EQ(flat.count(key), ref.count(key)) << step;
        if (ref.count(key) != 0) EXPECT_EQ(flat.at(key), ref.at(key));
        else EXPECT_THROW((void)flat.at(key), std::out_of_range);
        break;
      case 4:
        // Read through operator[], which value-initialises a missing key.
        EXPECT_EQ(flat[key], ref[key]) << step;
        break;
      default:
        if (rng.next_below(50) == 0) {
          flat.clear();
          ref.clear();
        }
    }
    ASSERT_EQ(flat.size(), ref.size()) << step;
    ASSERT_TRUE(std::equal(flat.begin(), flat.end(), ref.begin(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first && a.second == b.second;
                           }))
        << step;
  }
}

TEST(FlatContainerTest, UnsortedInputSortsAndKeepsTheFirstOfARepeat) {
  // As the std:: containers' initializer lists and repeated inserts do.
  SplitMix64 rng(0xF1A9);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<std::string, std::string>> entries;
    const std::size_t n = rng.next_below(12);
    for (std::size_t i = 0; i < n; ++i) {
      entries.emplace_back(small_key(&rng), numbered('v', i));
    }
    std::map<std::string, std::string> ref_map;
    std::set<std::string> ref_set;
    std::vector<std::string> keys;
    for (const auto& entry : entries) {
      ref_map.insert(entry);
      ref_set.insert(entry.first);
      keys.push_back(entry.first);
    }
    const auto flat_map = FlatMap<std::string, std::string>::from_unsorted(entries);
    const auto flat_set = FlatSet<std::string>::from_unsorted(keys);
    ASSERT_EQ(flat_map.size(), ref_map.size()) << trial;
    EXPECT_TRUE(std::equal(flat_map.begin(), flat_map.end(), ref_map.begin(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first && a.second == b.second;
                           }))
        << trial;
    ASSERT_EQ(flat_set.size(), ref_set.size()) << trial;
    EXPECT_TRUE(std::equal(flat_set.begin(), flat_set.end(), ref_set.begin()))
        << trial;
  }
  const FlatMap<std::string, int> listed = {{"b", 1}, {"a", 2}, {"b", 3}};
  const std::map<std::string, int> ref = {{"b", 1}, {"a", 2}, {"b", 3}};
  EXPECT_TRUE(std::equal(listed.begin(), listed.end(), ref.begin(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
  EXPECT_EQ(listed.at("b"), 1);
}

}  // namespace
}  // namespace vmp::util
