// Fleet observability tests: log-linear histogram quantile accuracy and
// merge algebra, time-series rings, SLO burn/health arithmetic, metrics-ad
// round-tripping, the shop-side FleetAggregator (pull, rollup, stale
// age-out), obs ad lifecycle on monitor/aggregator stop, and health-aware
// bid selection in the shop.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "classad/classad.h"
#include "core/fleet.h"
#include "core/info_system.h"
#include "core/plant.h"
#include "core/shop.h"
#include "fault/fault.h"
#include "hypervisor/gsx.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/request_gen.h"

namespace vmp {
namespace {

using obs::HistogramSnapshot;
using obs::LogHistogram;

// -- Histogram quantile accuracy ---------------------------------------------

HistogramSnapshot fill(LogHistogram* hist, const std::vector<double>& samples) {
  for (double s : samples) hist->record(s);
  return hist->snapshot();
}

TEST(LogHistogramTest, QuantileWithinTenPercentOfExact) {
  // Log-normal latencies spanning ~3 decades — the clone/resume shape.
  util::SplitMix64 rng(20260806);
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(rng.lognormal(std::log(0.05), 1.2));
  }
  LogHistogram hist;
  const HistogramSnapshot snap = fill(&hist, samples);
  ASSERT_EQ(snap.total, samples.size());
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const double exact = util::percentile(samples, q * 100.0);
    const double approx = snap.quantile(q);
    EXPECT_NEAR(approx, exact, 0.10 * exact)
        << "quantile " << q << ": approx=" << approx << " exact=" << exact;
  }
}

TEST(LogHistogramTest, ClampsUnderflowAndOverflow) {
  LogHistogram hist;
  hist.record(0.0);
  hist.record(-1.0);
  hist.record(1e12);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, 3u);
  EXPECT_EQ(snap.count(0), 2u);
  EXPECT_EQ(snap.count(LogHistogram::kBucketCount - 1), 1u);
}

// -- Merge algebra (associativity / commutativity property test) -------------

HistogramSnapshot random_snapshot(std::uint64_t seed, int n) {
  util::SplitMix64 rng(seed);
  LogHistogram hist;
  for (int i = 0; i < n; ++i) hist.record(rng.lognormal(-3.0, 2.0));
  return hist.snapshot();
}

TEST(LogHistogramTest, MergeIsAssociativeAndCommutative) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const HistogramSnapshot a = random_snapshot(seed * 3 + 0, 500);
    const HistogramSnapshot b = random_snapshot(seed * 3 + 1, 900);
    const HistogramSnapshot c = random_snapshot(seed * 3 + 2, 50);

    HistogramSnapshot ab = a;
    ab.merge(b);
    HistogramSnapshot ba = b;
    ba.merge(a);
    EXPECT_TRUE(ab == ba) << "commutativity failed at seed " << seed;

    HistogramSnapshot ab_c = ab;
    ab_c.merge(c);
    HistogramSnapshot bc = b;
    bc.merge(c);
    HistogramSnapshot a_bc = a;
    a_bc.merge(bc);
    EXPECT_TRUE(ab_c == a_bc) << "associativity failed at seed " << seed;

    EXPECT_EQ(ab_c.total, a.total + b.total + c.total);
  }
}

TEST(LogHistogramTest, EncodeDecodeRoundTrips) {
  const HistogramSnapshot snap = random_snapshot(7, 1000);
  auto decoded = HistogramSnapshot::decode(snap.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == snap);

  const HistogramSnapshot empty;
  EXPECT_EQ(empty.encode(), "");
  auto decoded_empty = HistogramSnapshot::decode("");
  ASSERT_TRUE(decoded_empty.has_value());
  EXPECT_TRUE(decoded_empty->empty());

  EXPECT_FALSE(HistogramSnapshot::decode("garbage").has_value());
  EXPECT_FALSE(HistogramSnapshot::decode("5").has_value());
  EXPECT_FALSE(HistogramSnapshot::decode("999999:2").has_value());
  EXPECT_FALSE(HistogramSnapshot::decode("3:abc").has_value());
}

TEST(LogHistogramTest, DecodeRefusesSignsWhitespaceAndOverflow) {
  // A negative count once wrapped to 2^64 - 1 and a padded bucket parsed:
  // either poisons a fleet rollup's totals.
  for (const char* text :
       {"3:-1", " 3:+5", "+3:5", "-3:5", "3:+5", "3: 5", "3:5 ", "3 :5",
        "\t3:5", "3:5,\n4:1", ":5", "3:",
        "3:18446744073709551616", "3:18446744073709551615,4:1",
        "3:9223372036854775808,4:9223372036854775808"}) {
    EXPECT_FALSE(HistogramSnapshot::decode(text).has_value()) << text;
  }
  // The largest total that fits is accepted.
  auto full = HistogramSnapshot::decode("3:18446744073709551614,4:1");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->total, ~std::uint64_t{0});
}

TEST(LogHistogramTest, DecodeAcceptsOnlyWhatEncodeWrites) {
  auto decoded = HistogramSnapshot::decode("3:2,5:2,1601:4");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->total, 8u);
  const std::vector<HistogramSnapshot::Entry> expected = {
      {3, 2}, {5, 2}, {1601, 4}};
  EXPECT_EQ(decoded->entries, expected);
  // Unordered or repeated buckets, zero counts and stray commas would
  // break the sorted-entries form every merge and quantile relies on.
  for (const char* text : {"5:1,3:2", "3:1,3:1", "3:0", "3:2,7:0", "3:1,",
                           ",3:1", "3:1,,4:1"}) {
    EXPECT_FALSE(HistogramSnapshot::decode(text).has_value()) << text;
  }
}

// -- Sparse snapshots against a dense reference ------------------------------

/// One count per bucket of the geometry, built with bucket_index alone.
std::vector<std::uint64_t> dense_counts(const std::vector<double>& samples) {
  std::vector<std::uint64_t> dense(LogHistogram::kBucketCount, 0);
  for (double s : samples) ++dense[LogHistogram::bucket_index(s)];
  return dense;
}

/// Nearest-rank quantile over dense counts (the snapshot's documented rule).
double dense_quantile(const std::vector<std::uint64_t>& dense, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : dense) total += c;
  if (total == 0) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    seen += dense[i];
    if (seen >= rank) return LogHistogram::bucket_mid(i);
  }
  return 0.0;
}

/// Samples from below the covered range to above it, some non-positive.
std::vector<double> wide_samples(util::SplitMix64* rng, std::size_t n) {
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng->next_below(50) == 0) {
      out.push_back(-rng->next_double());
    } else {
      out.push_back(std::ldexp(rng->next_double() + 0.5,
                               static_cast<int>(rng->next_below(56)) - 33));
    }
  }
  return out;
}

TEST(LogHistogramTest, SparseMergeAndQuantileMatchDenseReference) {
  util::SplitMix64 rng(20261019);
  for (int round = 0; round < 40; ++round) {
    const std::vector<double> a = wide_samples(&rng, rng.next_below(400));
    const std::vector<double> b = wide_samples(&rng, rng.next_below(400));
    LogHistogram ha, hb;
    HistogramSnapshot merged = fill(&ha, a);
    merged.merge(fill(&hb, b));

    std::vector<std::uint64_t> dense = dense_counts(a);
    const std::vector<std::uint64_t> dense_b = dense_counts(b);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < dense.size(); ++i) {
      dense[i] += dense_b[i];
      total += dense[i];
      ASSERT_EQ(merged.count(i), dense[i]) << "bucket " << i;
    }
    ASSERT_EQ(merged.total, total);
    for (std::size_t i = 1; i < merged.entries.size(); ++i) {
      ASSERT_LT(merged.entries[i - 1].bucket, merged.entries[i].bucket);
    }
    for (const auto& e : merged.entries) ASSERT_NE(e.count, 0u);
    for (double q : {0.0, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      ASSERT_EQ(merged.quantile(q), dense_quantile(dense, q))
          << "round " << round << " q " << q;
    }
    auto decoded = HistogramSnapshot::decode(merged.encode());
    ASSERT_TRUE(decoded.has_value());
    ASSERT_TRUE(*decoded == merged);
  }
}

// -- Time-series ring ---------------------------------------------------------

TEST(TimeSeriesRingTest, WindowsSumAndOldBucketsOverwrite) {
  obs::TimeSeriesRing ring(4, 1.0);  // covers 4 seconds
  ring.add(0.5, 1.0);
  ring.add(1.5, 2.0);
  ring.add(2.5, 4.0);
  EXPECT_DOUBLE_EQ(ring.sum_over(2.5, 3.0), 7.0);
  EXPECT_DOUBLE_EQ(ring.sum_over(2.5, 1.0), 4.0);
  EXPECT_EQ(ring.samples_over(2.5, 3.0), 3u);
  EXPECT_DOUBLE_EQ(ring.rate_per_s(2.5, 2.0), 3.0);  // (2+4)/2

  // Advancing 4 epochs overwrites the slot that held t=0.5.
  ring.add(4.5, 8.0);
  EXPECT_DOUBLE_EQ(ring.sum_over(4.5, 5.0), 14.0);  // 2+4+8; 1.0 evicted

  // A write older than the ring's span is dropped.
  ring.add(0.5, 100.0);
  EXPECT_DOUBLE_EQ(ring.sum_over(4.5, 5.0), 14.0);
}

// -- SLO tracker --------------------------------------------------------------

TEST(SloTrackerTest, BurnRateAndMultiWindowHealth) {
  obs::SloPolicy policy;
  policy.error_budget = 0.10;
  policy.short_window_s = 10.0;
  policy.long_window_s = 60.0;
  policy.fast_burn = 11.0;
  obs::SloTracker tracker(policy, 128, 1.0);

  // 50% failures: burn = 0.5 / 0.1 = 5 in both windows.
  tracker.observe(5.0, 5, 5);
  EXPECT_NEAR(tracker.short_burn(5.0), 5.0, 1e-9);
  EXPECT_NEAR(tracker.long_burn(5.0), 5.0, 1e-9);
  // Budget term: 1 - (5-1)/(11-1) = 0.6.
  EXPECT_NEAR(tracker.health(5.0, std::nullopt), 0.6, 1e-9);

  // 30 s later the short window is clean (only good events) while the long
  // window still remembers the incident: multi-window AND keeps health 1.
  tracker.observe(35.0, 20, 0);
  EXPECT_NEAR(tracker.short_burn(35.0), 0.0, 1e-9);
  EXPECT_GT(tracker.long_burn(35.0), 1.0);
  EXPECT_NEAR(tracker.health(35.0, std::nullopt), 1.0, 1e-9);
}

TEST(SloTrackerTest, LatencyObjectiveDegradesHealth) {
  obs::SloPolicy policy;
  policy.latency_objective_s = 1.0;
  policy.latency_degraded_factor = 3.0;
  obs::SloTracker tracker(policy);
  tracker.observe(1.0, 10, 0);
  EXPECT_NEAR(tracker.health(1.0, 0.5), 1.0, 1e-9);   // under objective
  EXPECT_NEAR(tracker.health(1.0, 2.0), 0.5, 1e-9);   // halfway to 3x
  EXPECT_NEAR(tracker.health(1.0, 3.0), 0.0, 1e-9);   // fully degraded
  EXPECT_NEAR(tracker.health(1.0, std::nullopt), 1.0, 1e-9);
}

// -- TimerStats / MetricsSnapshot merge --------------------------------------

TEST(TimerStatsTest, MergeAddsCountsWidensExtremaRefreshesQuantiles) {
  obs::Timer fast, slow;
  for (int i = 0; i < 100; ++i) fast.record(0.010);
  for (int i = 0; i < 100; ++i) slow.record(1.0);

  obs::TimerStats a;
  a.count = 100;
  a.sum_s = 1.0;
  a.mean_s = 0.010;
  a.min_s = 0.010;
  a.max_s = 0.010;
  a.hist = fast.quantile_histogram();
  a.refresh_quantiles();

  obs::TimerStats b;
  b.count = 100;
  b.sum_s = 100.0;
  b.mean_s = 1.0;
  b.min_s = 1.0;
  b.max_s = 1.0;
  b.hist = slow.quantile_histogram();
  b.refresh_quantiles();

  obs::TimerStats merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count, 200u);
  EXPECT_DOUBLE_EQ(merged.min_s, 0.010);
  EXPECT_DOUBLE_EQ(merged.max_s, 1.0);
  EXPECT_NEAR(merged.mean_s, 101.0 / 200.0, 1e-9);
  // Half the samples are 10 ms, half 1 s: the median sits in the 10 ms
  // bucket, p99 in the 1 s bucket.
  EXPECT_NEAR(merged.p50_s, 0.010, 0.10 * 0.010);
  EXPECT_NEAR(merged.p99_s, 1.0, 0.10 * 1.0);
}

TEST(TimerStatsTest, MergeWidensQuantilesFromHistLessLegacyPeer) {
  obs::Timer fast;
  for (int i = 0; i < 100; ++i) fast.record(0.010);
  obs::TimerStats with_hist;
  with_hist.count = 100;
  with_hist.sum_s = 1.0;
  with_hist.mean_s = 0.010;
  with_hist.min_s = 0.010;
  with_hist.max_s = 0.010;
  with_hist.hist = fast.quantile_histogram();
  with_hist.refresh_quantiles();

  // A legacy plant's snapshot: exported quantiles only, no histogram.
  obs::TimerStats legacy;
  legacy.count = 100;
  legacy.sum_s = 100.0;
  legacy.mean_s = 1.0;
  legacy.min_s = 1.0;
  legacy.max_s = 1.0;
  legacy.p50_s = 1.0;
  legacy.p90_s = 1.0;
  legacy.p99_s = 1.0;
  legacy.p999_s = 1.0;

  // The legacy peer's worse quantiles must survive the histogram-driven
  // refresh in either merge direction, not just in the all-legacy branch.
  obs::TimerStats merged = with_hist;
  merged.merge(legacy);
  EXPECT_EQ(merged.count, 200u);
  EXPECT_GE(merged.p50_s, 1.0);
  EXPECT_GE(merged.p99_s, 1.0);

  obs::TimerStats reversed = legacy;
  reversed.merge(with_hist);
  EXPECT_EQ(reversed.count, 200u);
  EXPECT_GE(reversed.p50_s, 1.0);
  EXPECT_GE(reversed.p99_s, 1.0);
}

TEST(MetricsSnapshotTest, MergeSumsCountersAndRatioFallsBackToDerived) {
  obs::MetricsSnapshot a;
  a.counters["ppp.plan_hit.count"] = 3;
  a.counters["ppp.plan_miss.count"] = 1;
  obs::MetricsSnapshot b;
  b.counters["ppp.plan_hit.count"] = 1;
  b.counters["ppp.plan_miss.count"] = 3;
  a.merge(b);
  EXPECT_EQ(a.counter("ppp.plan_hit.count"), 4u);
  ASSERT_TRUE(a.ratio("ppp.plan_hit.count", "ppp.plan_miss.count").has_value());
  EXPECT_DOUBLE_EQ(*a.ratio("ppp.plan_hit.count", "ppp.plan_miss.count"), 0.5);

  // A pre-merged fleet snapshot carrying only the derived ratio still
  // answers ratio().
  obs::MetricsSnapshot premerged;
  premerged.derived["ppp_plan_hit_count/ppp_plan_miss_count"] = 0.75;
  auto ratio = premerged.ratio("ppp.plan_hit.count", "ppp.plan_miss.count");
  ASSERT_TRUE(ratio.has_value());
  EXPECT_DOUBLE_EQ(*ratio, 0.75);
}

TEST(MetricsSnapshotTest, AccessorsFallBackToFoldedNames) {
  obs::MetricsSnapshot snap;
  snap.counters["bus_call_count"] = 7;
  snap.gauges["vm_active_gauge"] = 3;
  snap.timers["plant_create_seconds"].count = 2;
  EXPECT_EQ(snap.counter("bus.call.count"), 7u);
  EXPECT_EQ(snap.gauge("vm.active.gauge"), 3);
  ASSERT_NE(snap.timer_stats("plant.create.seconds"), nullptr);
  EXPECT_EQ(snap.timer_stats("plant.create.seconds")->count, 2u);
}

// -- metrics_ad round trip ----------------------------------------------------

TEST(MetricsAdTest, SnapshotSurvivesAdRoundTrip) {
  obs::MetricsSnapshot snap;
  snap.counters["bus.call.count"] = 42;
  snap.gauges["vm.active.gauge"] = 5;
  obs::Timer t;
  for (int i = 0; i < 50; ++i) t.record(0.125);
  obs::TimerStats stats;
  stats.count = 50;
  stats.sum_s = 6.25;
  stats.mean_s = 0.125;
  stats.min_s = 0.125;
  stats.max_s = 0.125;
  stats.hist = t.quantile_histogram();
  stats.refresh_quantiles();
  snap.timers["plant.create.seconds"] = stats;
  snap.counters["ppp.plan_hit.count"] = 3;
  snap.counters["ppp.plan_miss.count"] = 1;

  const classad::ClassAd ad = obs::metrics_ad(snap, util::FaultReport{});
  const obs::MetricsSnapshot back = obs::metrics_snapshot_from_ad(ad);

  EXPECT_EQ(back.counter("bus.call.count"), 42u);
  EXPECT_EQ(back.gauge("vm.active.gauge"), 5);
  const obs::TimerStats* rt = back.timer_stats("plant.create.seconds");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->count, 50u);
  EXPECT_DOUBLE_EQ(rt->mean_s, 0.125);
  EXPECT_TRUE(rt->hist == stats.hist);
  EXPECT_DOUBLE_EQ(rt->p99_s, stats.p99_s);
  // WarehouseHitRatio lands in derived (both spellings).
  auto ratio = back.ratio("ppp.plan_hit.count", "ppp.plan_miss.count");
  ASSERT_TRUE(ratio.has_value());
  EXPECT_DOUBLE_EQ(*ratio, 0.75);
}

// -- Fleet aggregator end to end ---------------------------------------------

class FleetAggregatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-fleet-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    obs::MetricsRegistry::instance().reset();
    fault::FaultRegistry::instance().clear();
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ =
        std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
    ASSERT_TRUE(workload::publish_paper_goldens(warehouse_.get()).ok());
    for (const char* name : {"plant0", "plant1"}) {
      core::PlantConfig pc;
      pc.name = name;
      pc.obs_export = true;
      plants_.push_back(
          std::make_unique<core::VmPlant>(pc, store_.get(), warehouse_.get()));
      ASSERT_TRUE(plants_.back()->attach_to_bus(&bus_, &registry_).ok());
    }
    shop_ = std::make_unique<core::VmShop>(core::ShopConfig{}, &bus_,
                                           &registry_);
    ASSERT_TRUE(shop_->attach_to_bus().ok());
  }

  void TearDown() override {
    fault::FaultRegistry::instance().clear();
    shop_.reset();
    plants_.clear();
    warehouse_.reset();
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  core::FleetAggregatorConfig aggregator_config() {
    core::FleetAggregatorConfig fc;
    fc.stale_after_s = 10.0;
    fc.slo.error_budget = 0.10;
    fc.slo.short_window_s = 30.0;
    fc.slo.long_window_s = 120.0;
    return fc;
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  net::MessageBus bus_;
  net::ServiceRegistry registry_;
  std::vector<std::unique_ptr<core::VmPlant>> plants_;
  std::unique_ptr<core::VmShop> shop_;
};

TEST_F(FleetAggregatorTest, SweepPublishesHealthAndRollupAds) {
  core::VmInformationSystem shop_info;
  core::FleetAggregator agg(aggregator_config(), &bus_, &registry_,
                            &shop_info);
  double clock_s = 0.0;
  agg.set_clock([&clock_s] { return clock_s; });

  auto ad = shop_->create(workload::workspace_request(32, 0, "dom-a"));
  ASSERT_TRUE(ad.ok());

  EXPECT_EQ(agg.sweep(), 2u);
  EXPECT_TRUE(shop_info.contains(std::string(core::kObsHealthPrefix) +
                                 "plant0"));
  EXPECT_TRUE(shop_info.contains(std::string(core::kObsHealthPrefix) +
                                 "plant1"));
  auto rollup = shop_info.query(core::kObsFleetMetricsId);
  ASSERT_TRUE(rollup.ok());
  EXPECT_EQ(rollup.value().get_integer(core::fleet_attrs::kPlantCount), 2);
  // Exactly one creation happened somewhere in the fleet.
  EXPECT_EQ(rollup.value().get_integer("fleet_create_count"), 1);

  // The rollup carries a mergeable histogram for the fleet SLI.
  const obs::MetricsSnapshot fleet = agg.fleet_snapshot();
  const obs::TimerStats* sli = fleet.timer_stats("fleet.create.seconds");
  ASSERT_NE(sli, nullptr);
  EXPECT_EQ(sli->count, 1u);
  EXPECT_FALSE(sli->hist.empty());

  // Both plants healthy: neutral scores.
  EXPECT_DOUBLE_EQ(agg.health("plant0"), 1.0);
  EXPECT_DOUBLE_EQ(agg.health("plant1"), 1.0);
  EXPECT_DOUBLE_EQ(agg.health("no-such-plant"), 1.0);
}

TEST_F(FleetAggregatorTest, SweepRollsUpLifecycleHeadroom) {
  core::VmInformationSystem shop_info;
  core::FleetAggregator agg(aggregator_config(), &bus_, &registry_,
                            &shop_info);
  double clock_s = 0.0;
  agg.set_clock([&clock_s] { return clock_s; });

  // The plants in this rig share one process registry, so each reports the
  // same headroom gauge (a real deployment has one registry per plant).
  const std::int64_t headroom = 123ll << 20;
  obs::MetricsRegistry::instance()
      .gauge("lifecycle.headroom_bytes.gauge")
      ->set(headroom);
  EXPECT_EQ(agg.sweep(), 2u);

  auto health = shop_info.query(std::string(core::kObsHealthPrefix) +
                                "plant0");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().get_integer(core::fleet_attrs::kHeadroomBytes),
            headroom);
  auto verdict = agg.plant_health("plant1");
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->lifecycle_headroom_bytes, headroom);

  // The fleet rollup sums headroom over fresh plants.
  const obs::MetricsSnapshot fleet = agg.fleet_snapshot();
  EXPECT_EQ(fleet.gauge("fleet.lifecycle.headroom_bytes.gauge"),
            2 * headroom);
  auto rollup = shop_info.query(core::kObsFleetMetricsId);
  ASSERT_TRUE(rollup.ok());
  EXPECT_EQ(rollup.value().get_integer("fleet_lifecycle_headroom_bytes_gauge"),
            2 * headroom);
}

TEST_F(FleetAggregatorTest, FailingPlantBurnsBudgetAndLosesHealth) {
  core::VmInformationSystem shop_info;
  core::FleetAggregator agg(aggregator_config(), &bus_, &registry_,
                            &shop_info);
  double clock_s = 0.0;
  agg.set_clock([&clock_s] { return clock_s; });

  // Every resume on plant1's VMs fails: plant1 creations all fail (the
  // shop fails over to plant0), burning plant1's error budget.
  auto plan = fault::FaultPlan::parse("hypervisor.resume:target=plant1-vm");
  ASSERT_TRUE(plan.ok());
  fault::FaultRegistry::instance().install(plan.value());

  for (std::size_t i = 0; i < 6; ++i) {
    auto ad = shop_->create(workload::workspace_request(32, i, "dom-a"));
    ASSERT_TRUE(ad.ok());  // plant0 serves everything
    EXPECT_EQ(ad.value().get_string(core::attrs::kPlant).value_or(""),
              "plant0");
  }

  clock_s = 5.0;
  EXPECT_EQ(agg.sweep(), 2u);
  auto plant1 = agg.plant_health("plant1");
  ASSERT_TRUE(plant1.has_value());
  EXPECT_GT(plant1->bad_total, 0u);
  EXPECT_GT(plant1->short_burn, 1.0);
  EXPECT_LT(agg.health("plant1"), 1.0);
  EXPECT_DOUBLE_EQ(agg.health("plant0"), 1.0);
}

TEST_F(FleetAggregatorTest, SilentPlantAgesOutOfHealthAndRollup) {
  core::VmInformationSystem shop_info;
  core::FleetAggregator agg(aggregator_config(), &bus_, &registry_,
                            &shop_info);
  double clock_s = 0.0;
  agg.set_clock([&clock_s] { return clock_s; });

  EXPECT_EQ(agg.sweep(), 2u);
  const std::string plant1_ad =
      std::string(core::kObsHealthPrefix) + "plant1";
  EXPECT_TRUE(shop_info.contains(plant1_ad));

  // plant1 goes silent mid-sweep (detached from the bus).  Its verdict
  // survives until stale_after_s passes ...
  plants_[1]->detach_from_bus();
  clock_s = 5.0;
  EXPECT_EQ(agg.sweep(), 1u);
  EXPECT_TRUE(shop_info.contains(plant1_ad));
  EXPECT_DOUBLE_EQ(agg.health("plant1"), 1.0);

  // ... then ages out: the health ad is removed, the rollup forgets it.
  clock_s = 20.0;
  EXPECT_EQ(agg.sweep(), 1u);
  EXPECT_FALSE(shop_info.contains(plant1_ad));
  auto rollup = shop_info.query(core::kObsFleetMetricsId);
  ASSERT_TRUE(rollup.ok());
  EXPECT_EQ(rollup.value().get_integer(core::fleet_attrs::kPlantCount), 1);
  EXPECT_DOUBLE_EQ(agg.health("plant1"), 1.0);
}

TEST_F(FleetAggregatorTest, StopPeriodicRemovesPublishedAds) {
  core::VmInformationSystem shop_info;
  core::FleetAggregator agg(aggregator_config(), &bus_, &registry_,
                            &shop_info);
  agg.start_periodic(std::chrono::milliseconds(5));
  while (agg.sweeps() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(agg.periodic_running());
  agg.stop_periodic();
  EXPECT_FALSE(agg.periodic_running());
  EXPECT_FALSE(shop_info.contains(std::string(core::kObsHealthPrefix) +
                                  "plant0"));
  EXPECT_FALSE(shop_info.contains(core::kObsFleetMetricsId));
}

TEST_F(FleetAggregatorTest, ExportJsonlWritesHealthAndRollupLines) {
  core::VmInformationSystem shop_info;
  core::FleetAggregator agg(aggregator_config(), &bus_, &registry_,
                            &shop_info);
  ASSERT_TRUE(shop_->create(workload::workspace_request(32, 0, "dom-a")).ok());
  agg.sweep();
  const std::string path = (root_ / "fleet.jsonl").string();
  ASSERT_TRUE(agg.export_jsonl(path));
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0, health_lines = 0, rollup_lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (line.find("obs://health/") != std::string::npos) ++health_lines;
    if (line.find("obs://fleet/metrics") != std::string::npos) ++rollup_lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(health_lines, 2u);
  EXPECT_EQ(rollup_lines, 1u);
}

// -- Monitor lifecycle: obs:// ads leave no residue --------------------------

TEST(VmMonitorLifecycleTest, StopPeriodicRemovesHealthAndFleetAds) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("vmp-monitor-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  {
    storage::ArtifactStore store(root);
    hv::GsxHypervisor hypervisor(&store);
    core::VmInformationSystem info;
    core::VmMonitor monitor(&hypervisor, &info);
    monitor.enable_obs_export();
    monitor.start_periodic(std::chrono::milliseconds(5));
    while (monitor.sweeps() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(info.contains(core::kObsMetricsId));

    // Health and fleet ads published into the same store (an aggregator
    // co-located with the monitor) are cleaned up too: the whole obs://
    // namespace leaves with the monitor.
    classad::ClassAd health;
    health.set_real(core::fleet_attrs::kHealth, 0.5);
    info.store(std::string(core::kObsHealthPrefix) + "plant0", health);
    info.store(core::kObsFleetMetricsId, classad::ClassAd{});

    monitor.stop_periodic();
    EXPECT_FALSE(info.contains(core::kObsMetricsId));
    EXPECT_FALSE(
        info.contains(std::string(core::kObsHealthPrefix) + "plant0"));
    EXPECT_FALSE(info.contains(core::kObsFleetMetricsId));
  }
  std::filesystem::remove_all(root);
}

// -- Health-aware bid selection ----------------------------------------------

TEST_F(FleetAggregatorTest, HealthPenaltySteersTiedBidsToHealthyPlant) {
  core::ShopConfig sc;
  sc.health_penalty_weight = 1.0;
  core::VmShop shop(sc, &bus_, &registry_);
  shop.set_health_provider([](const std::string& plant) {
    return plant == "plant1" ? 0.2 : 1.0;
  });

  std::vector<core::Bid> bids{{"plant0", 10.0}, {"plant1", 10.0}};
  for (int i = 0; i < 16; ++i) {
    auto chosen = shop.select_bid(bids);
    ASSERT_TRUE(chosen.has_value());
    EXPECT_EQ(chosen->plant_address, "plant0");
  }
  // plant1's effective cost is 10 * (1 + 1.0 * 0.8) = 18: a healthy plant0
  // bidding just below it still wins, and just above it loses.
  bids[0].cost = 17.99;
  EXPECT_EQ(shop.select_bid(bids)->plant_address, "plant0");
  bids[0].cost = 18.01;
  EXPECT_EQ(shop.select_bid(bids)->plant_address, "plant1");
}

TEST_F(FleetAggregatorTest, ZeroWeightKeepsPaperSelectionAndRng) {
  // With the penalty off, selection must behave exactly like the seeded
  // paper path even when a provider is installed: both tied plants remain
  // candidates and the RNG stream is consumed identically.
  core::ShopConfig sc;  // health_penalty_weight = 0
  core::VmShop with_provider(sc, &bus_, &registry_);
  with_provider.set_health_provider(
      [](const std::string&) { return 0.0; });
  core::VmShop without_provider(sc, &bus_, &registry_);

  std::vector<core::Bid> bids{{"plant0", 10.0}, {"plant1", 10.0}};
  for (int i = 0; i < 64; ++i) {
    auto a = with_provider.select_bid(bids);
    auto b = without_provider.select_bid(bids);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->plant_address, b->plant_address);
  }
}

TEST_F(FleetAggregatorTest, SelectBidSnapshotsHealthOncePerPlant) {
  core::ShopConfig sc;
  sc.health_penalty_weight = 1.0;
  core::VmShop shop(sc, &bus_, &registry_);
  // Adversarial provider: health decays on every read, emulating the
  // aggregator's sweep thread mutating health mid-selection.  Selection
  // must read each plant exactly once and reuse the cached value — with
  // live re-reads the filter pass can disagree with the min pass and end
  // up with zero candidates.
  int calls = 0;
  shop.set_health_provider([&calls](const std::string&) {
    return 1.0 - 0.1 * static_cast<double>(calls++);
  });

  std::vector<core::Bid> bids{{"plant0", 10.0}, {"plant1", 10.0}};
  auto chosen = shop.select_bid(bids);
  ASSERT_TRUE(chosen.has_value());
  // First read wins: plant0 sampled at health 1.0 beats plant1 at 0.9.
  EXPECT_EQ(chosen->plant_address, "plant0");
  EXPECT_EQ(calls, 2);
}

TEST_F(FleetAggregatorTest, ShopRoutesAroundBurningPlantViaAggregator) {
  core::VmInformationSystem shop_info;
  core::FleetAggregator agg(aggregator_config(), &bus_, &registry_,
                            &shop_info);
  double clock_s = 0.0;
  agg.set_clock([&clock_s] { return clock_s; });

  core::ShopConfig sc;
  sc.health_penalty_weight = 4.0;
  core::VmShop shop(sc, &bus_, &registry_);
  shop.set_health_provider(
      [&agg](const std::string& plant) { return agg.health(plant); });

  // Phase 1: plant1's resumes fail; the shop discovers this the hard way
  // (failover) while the aggregator accumulates plant1's failures.
  auto plan = fault::FaultPlan::parse("hypervisor.resume:target=plant1-vm");
  ASSERT_TRUE(plan.ok());
  fault::FaultRegistry::instance().install(plan.value());
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(shop.create(workload::workspace_request(32, i, "dom-a")).ok());
  }
  clock_s = 5.0;
  agg.sweep();
  ASSERT_LT(agg.health("plant1"), 1.0);

  // Phase 2: faults cleared — plant1 would work again, but its burned
  // budget penalizes its bids, so fresh ties go to plant0 proactively.
  fault::FaultRegistry::instance().clear();
  const std::uint64_t failovers_before = shop.failovers();
  for (std::size_t i = 4; i < 8; ++i) {
    auto ad = shop.create(workload::workspace_request(32, i, "dom-a"));
    ASSERT_TRUE(ad.ok());
    EXPECT_EQ(ad.value().get_string(core::attrs::kPlant).value_or(""),
              "plant0");
  }
  EXPECT_EQ(shop.failovers(), failovers_before);
}

}  // namespace
}  // namespace vmp
