// Observability tests: metrics registry primitives, request tracing end to
// end through a shop->plant creation, the classad exporter and the monitor
// publishing obs:// ads into the VM Information System, trace propagation
// across a lost-then-retried bus message, and logger sinks/timestamps.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "classad/classad.h"
#include "core/info_system.h"
#include "core/plant.h"
#include "core/shop.h"
#include "dag/dag.h"
#include "fault/fault.h"
#include "net/bus.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/random.h"
#include "warehouse/warehouse.h"
#include "workload/request_gen.h"

namespace vmp {
namespace {

using obs::MetricsRegistry;
using obs::Tracer;

// -- Metrics primitives -------------------------------------------------------

TEST(MetricsTest, CounterAccumulatesAcrossThreads) {
  obs::Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10'000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 80'000u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  obs::Gauge g;
  g.set(7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(MetricsTest, TimerFoldsSummaryAndQuantileHistogram) {
  obs::Timer t;
  t.record(1.0);
  t.record(3.0);
  EXPECT_EQ(t.summary().count(), 2u);
  EXPECT_DOUBLE_EQ(t.summary().mean(), 2.0);
  EXPECT_EQ(t.quantile_histogram().total, 2u);

  t.record(0.5);
  EXPECT_EQ(t.summary().count(), 3u);
  EXPECT_EQ(t.quantile_histogram().total, 3u);
}

TEST(MetricsTest, TimerRecordsFromManyThreadsWithoutLoss) {
  // More recording threads than owned shards: the late ones share one.
  obs::Timer t;
  std::vector<std::thread> threads;
  for (int k = 0; k < 24; ++k) {
    threads.emplace_back([&t, k] {
      for (int i = 0; i < 2000; ++i) t.record(static_cast<double>(k) + 0.5);
    });
  }
  for (auto& th : threads) th.join();
  const util::Summary s = t.summary();
  EXPECT_EQ(s.count(), 48'000u);
  // Every sample is a multiple of 0.5 below 24: all sums are exact.
  EXPECT_DOUBLE_EQ(s.sum(), 2000.0 * (23.0 * 24.0 / 2.0 + 12.0));
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 23.5);
  EXPECT_EQ(t.quantile_histogram().total, 48'000u);
}

TEST(MetricsTest, TimerSummaryMatchesUtilSummary) {
  obs::Timer t;
  util::Summary expected;
  EXPECT_EQ(t.summary().count(), 0u);
  EXPECT_EQ(t.summary().min(), 0.0);
  for (double v : {0.25, 3.0, 1e-6, 7.5, 0.125}) {
    t.record(v);
    expected.add(v);
  }
  const util::Summary got = t.summary();
  EXPECT_EQ(got.count(), expected.count());
  EXPECT_EQ(got.sum(), expected.sum());
  EXPECT_EQ(got.min(), expected.min());
  EXPECT_EQ(got.max(), expected.max());
  EXPECT_EQ(got.variance(), expected.variance());
}

TEST(LogHistogramTest, BucketIndexMatchesFrexpArithmetic) {
  // The bucket index read off the IEEE-754 bits equals the frexp form.
  using obs::LogHistogram;
  const auto frexp_index = [](double v) -> std::size_t {
    if (!(v >= std::ldexp(1.0, LogHistogram::kMinExp))) return 0;
    if (v >= std::ldexp(1.0, LogHistogram::kMaxExp)) {
      return LogHistogram::kBucketCount - 1;
    }
    int exp = 0;
    const double frac = std::frexp(v, &exp);
    const auto sub = static_cast<std::size_t>(
        (frac * 2.0 - 1.0) * static_cast<double>(LogHistogram::kSubBuckets));
    return 1 +
           static_cast<std::size_t>(exp - 1 - LogHistogram::kMinExp) *
               LogHistogram::kSubBuckets +
           std::min(sub, LogHistogram::kSubBuckets - 1);
  };
  std::vector<double> cases = {0.0, -1.0, 1e-300, 1.0, 1e300,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()};
  for (int e = LogHistogram::kMinExp - 2; e <= LogHistogram::kMaxExp + 2;
       ++e) {
    const double p = std::ldexp(1.0, e);
    cases.insert(cases.end(), {p, std::nextafter(p, 0.0),
                               std::nextafter(p, HUGE_VAL), p * 1.03125,
                               p * 1.96875, p * 1.999999});
  }
  util::SplitMix64 rng(99);
  for (int i = 0; i < 100'000; ++i) {
    cases.push_back(std::ldexp(rng.next_double() + 0.5,
                               static_cast<int>(rng.next_below(60)) - 35));
  }
  for (double v : cases) {
    ASSERT_EQ(LogHistogram::bucket_index(v), frexp_index(v)) << v;
  }
}

// -- Paged histogram: first touch under contention ---------------------------

/// The underflow bucket, three values in every octave, the overflow bucket.
std::vector<double> every_octave_values() {
  using obs::LogHistogram;
  std::vector<double> values = {0.0, -1.0, 1e12};
  for (int e = LogHistogram::kMinExp; e < LogHistogram::kMaxExp; ++e) {
    for (double f : {1.0, 1.3, 1.99}) values.push_back(std::ldexp(f, e));
  }
  return values;
}

/// Run `record` on 8 threads released together, each over `values` from a
/// different starting point, so that every octave's first touch races.
template <typename Record>
void record_from_eight_threads(const std::vector<double>& values,
                               Record record) {
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::size_t i = 0; i < values.size(); ++i) {
        record(values[(i + static_cast<std::size_t>(k) * 7) % values.size()]);
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// The snapshot of `copies` recordings of `values`, built densely with
/// bucket_index.
obs::HistogramSnapshot dense_reference(const std::vector<double>& values,
                                       std::uint64_t copies) {
  std::vector<std::uint64_t> dense(obs::LogHistogram::kBucketCount, 0);
  for (double v : values) dense[obs::LogHistogram::bucket_index(v)] += copies;
  obs::HistogramSnapshot snap;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] == 0) continue;
    snap.entries.push_back({static_cast<std::uint32_t>(i), dense[i]});
    snap.total += dense[i];
  }
  return snap;
}

TEST(LogHistogramTest, FirstTouchFromEightThreadsIsExact) {
  using obs::LogHistogram;
  const std::vector<double> values = every_octave_values();
  const obs::HistogramSnapshot expected = dense_reference(values, 8);
  ASSERT_EQ(expected.total, 8 * values.size());
  for (int trial = 0; trial < 8; ++trial) {
    LogHistogram hist;
    record_from_eight_threads(values, [&hist](double v) { hist.record(v); });
    const obs::HistogramSnapshot snap = hist.snapshot();
    for (std::size_t b = 0; b < LogHistogram::kBucketCount; ++b) {
      ASSERT_EQ(snap.count(b), expected.count(b)) << "bucket " << b;
    }
    ASSERT_EQ(snap.total, expected.total);
    ASSERT_EQ(hist.total(), expected.total);
    ASSERT_TRUE(snap == expected);
    // One page per octave: every losing allocation was given back.
    ASSERT_EQ(hist.allocated_bytes(),
              LogHistogram::kOctaves * sizeof(LogHistogram::Page));
  }
  for (int trial = 0; trial < 4; ++trial) {
    obs::Timer timer;
    record_from_eight_threads(values, [&timer](double v) { timer.record(v); });
    EXPECT_EQ(timer.summary().count(), expected.total);
    EXPECT_TRUE(timer.quantile_histogram() == expected);
  }
}

TEST(LogHistogramTest, PagesFollowTheOctavesTouched) {
  using obs::LogHistogram;
  LogHistogram hist;
  EXPECT_EQ(hist.allocated_bytes(), 0u);
  hist.record(0.0);   // the edge counters are inline
  hist.record(1e12);
  EXPECT_EQ(hist.allocated_bytes(), 0u);
  // 1,000 samples inside [2^-7, 2^-6): one octave, one page.
  for (int i = 0; i < 1000; ++i) {
    hist.record(std::ldexp(1.0 + i / 1000.0, -7));
  }
  EXPECT_EQ(hist.allocated_bytes(), sizeof(LogHistogram::Page));
  EXPECT_EQ(hist.total(), 1002u);
  hist.record(0.5);
  EXPECT_EQ(hist.allocated_bytes(), 2 * sizeof(LogHistogram::Page));
  // reset() zeroes the counts and keeps the pages.
  hist.reset();
  EXPECT_EQ(hist.total(), 0u);
  EXPECT_TRUE(hist.snapshot().empty());
  EXPECT_EQ(hist.allocated_bytes(), 2 * sizeof(LogHistogram::Page));

  obs::Timer timer;
  for (int i = 0; i < 1000; ++i) timer.record(std::ldexp(1.0 + i / 1000.0, -7));
  EXPECT_EQ(timer.footprint_bytes(),
            sizeof(obs::Timer) + sizeof(LogHistogram::Page));
  EXPECT_LE(timer.footprint_bytes(), 4096u);
}

TEST(MetricsTest, RegistryHandsOutStablePointersAndSnapshots) {
  MetricsRegistry r;
  obs::Counter* c = r.counter("a.b.count");
  EXPECT_EQ(r.counter("a.b.count"), c);  // get-or-create is idempotent
  c->add(5);
  r.gauge("a.depth.gauge")->set(3);
  r.timer("a.lat.seconds")->record(0.25);

  obs::MetricsSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.counter("a.b.count"), 5u);
  EXPECT_EQ(snap.gauge("a.depth.gauge"), 3);
  EXPECT_EQ(snap.counter("missing"), 0u);
  ASSERT_EQ(snap.timers.count("a.lat.seconds"), 1u);
  EXPECT_DOUBLE_EQ(snap.timers.at("a.lat.seconds").mean_s, 0.25);

  // reset() zeroes values but keeps handed-out pointers usable.
  r.reset();
  EXPECT_EQ(r.snapshot().counter("a.b.count"), 0u);
  c->add(2);
  EXPECT_EQ(r.snapshot().counter("a.b.count"), 2u);
}

TEST(MetricsTest, RatioAndTextRender) {
  MetricsRegistry r;
  r.counter("w.hit.count")->add(3);
  r.counter("w.miss.count")->add(1);
  obs::MetricsSnapshot snap = r.snapshot();
  ASSERT_TRUE(snap.ratio("w.hit.count", "w.miss.count").has_value());
  EXPECT_DOUBLE_EQ(*snap.ratio("w.hit.count", "w.miss.count"), 0.75);
  EXPECT_FALSE(snap.ratio("none.a", "none.b").has_value());

  const std::string text = obs::render_metrics_text(snap);
  EXPECT_NE(text.find("w.hit.count"), std::string::npos);
  EXPECT_NE(text.find("3"), std::string::npos);
}

// -- Tracer primitives --------------------------------------------------------

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::instance().arm(); }
  void TearDown() override {
    Tracer::instance().disarm();
    Tracer::instance().set_clock(nullptr);
  }
};

TEST_F(TracerTest, DisarmedScopedSpanRecordsNothing) {
  Tracer::instance().disarm();
  {
    obs::ScopedSpan span("noop", "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(Tracer::instance().span_count(), 0u);
}

TEST_F(TracerTest, LazyDetailIsBuiltOnlyWhenArmed) {
  int built = 0;
  const auto make_detail = [&built] {
    ++built;
    return std::string("svc->p");
  };
  Tracer::instance().disarm();
  { obs::ScopedSpan span("lazy", "test", obs::TraceContext{}, make_detail); }
  EXPECT_EQ(built, 0);
  Tracer::instance().arm();
  { obs::ScopedSpan span("lazy", "test", obs::TraceContext{}, make_detail); }
  EXPECT_EQ(built, 1);
  auto spans = Tracer::instance().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].detail, "svc->p");
}

TEST_F(TracerTest, BusCallSpanKeepsItsDetailAndParent) {
  net::MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("p", [](const net::Message& m) {
                   return net::Message::response_to(m);
                 }).ok());
  obs::TraceContext caller;
  {
    obs::ScopedSpan root("root", "test");
    caller = root.context();
    ASSERT_TRUE(bus.call(net::Message::request("svc", "a", "p", "c")).ok());
  }
  bool found = false;
  for (const obs::Span& span : Tracer::instance().spans()) {
    if (span.name != "bus.call") continue;
    found = true;
    EXPECT_EQ(span.detail, "svc->p");
    EXPECT_EQ(span.component, "bus");
    EXPECT_EQ(span.trace_id, caller.trace_id);
    EXPECT_EQ(span.parent_id, caller.span_id);
  }
  EXPECT_TRUE(found);
}

TEST_F(TracerTest, NestedSpansFormOneTraceWithParentLinks) {
  {
    obs::ScopedSpan outer("outer", "test");
    obs::ScopedSpan inner("inner", "test");
    (void)outer;
    (void)inner;
  }
  auto spans = Tracer::instance().spans();
  ASSERT_EQ(spans.size(), 2u);  // inner finishes first
  const obs::Span& inner = spans[0];
  const obs::Span& outer = spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_EQ(Tracer::instance().trace_ids().size(), 1u);
}

TEST_F(TracerTest, SeparateRootsGetSeparateTraceIds) {
  { obs::ScopedSpan a("a", "test"); }
  { obs::ScopedSpan b("b", "test"); }
  EXPECT_EQ(Tracer::instance().trace_ids().size(), 2u);
}

TEST_F(TracerTest, ExplicitParentContextWins) {
  obs::TraceContext wire;
  {
    obs::ScopedSpan remote("remote", "test");
    wire = remote.context();
  }
  {
    obs::ScopedSpan local("local", "test");  // ambient span on this thread
    obs::ScopedSpan child("child", "test", "", wire);
    (void)local;
    (void)child;
  }
  auto spans = Tracer::instance().spans();
  const obs::Span* child = nullptr;
  for (const auto& s : spans) {
    if (s.name == "child") child = &s;
  }
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->trace_id, wire.trace_id);
  EXPECT_EQ(child->parent_id, wire.span_id);
}

TEST_F(TracerTest, ContextGuardAdoptsWireContext) {
  obs::TraceContext wire;
  {
    obs::ScopedSpan remote("remote", "test");
    wire = remote.context();
  }
  {
    obs::ContextGuard guard(wire);
    obs::ScopedSpan handler("handler", "test");
    (void)handler;
  }
  EXPECT_FALSE(obs::current_context().valid());  // guard restored
  const auto spans = Tracer::instance().spans();
  const obs::Span* handler = nullptr;
  for (const auto& s : spans) {
    if (s.name == "handler") handler = &s;
  }
  ASSERT_NE(handler, nullptr);
  EXPECT_EQ(handler->trace_id, wire.trace_id);
  EXPECT_EQ(handler->parent_id, wire.span_id);
}

TEST_F(TracerTest, InstantSpansAndStatusPropagate) {
  {
    obs::ScopedSpan op("op", "test");
    Tracer::instance().instant("op.retry", "test", "retry", "attempt 1");
    op.set_status("TIMEOUT");
  }
  auto spans = Tracer::instance().spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "op.retry");
  EXPECT_EQ(spans[0].status, "retry");
  EXPECT_TRUE(spans[0].ok());  // retries are not failures
  EXPECT_DOUBLE_EQ(spans[0].duration_s(), 0.0);
  EXPECT_EQ(spans[1].status, "TIMEOUT");
  EXPECT_FALSE(spans[1].ok());
}

TEST_F(TracerTest, PluggableClockStampsSpans) {
  double now = 100.0;
  Tracer::instance().set_clock([&now] { return now; });
  {
    obs::ScopedSpan op("op", "test");
    now = 103.5;
  }
  auto spans = Tracer::instance().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].start_s, 100.0);
  EXPECT_DOUBLE_EQ(spans[0].end_s, 103.5);
}

TEST_F(TracerTest, WriteJsonlEmitsOneObjectPerSpan) {
  {
    obs::ScopedSpan op("op\"quoted\"", "test", "detail");
  }
  const auto path = std::filesystem::temp_directory_path() /
                    "vmp-obs-test-trace.jsonl";
  std::filesystem::remove(path);
  ASSERT_TRUE(Tracer::instance().write_jsonl(path.string()));
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\\\"quoted\\\""), std::string::npos);
  }
  EXPECT_EQ(lines, 1u);
  std::filesystem::remove(path);
}

// -- Exporter -----------------------------------------------------------------

TEST(ExportTest, AttrNameFoldsMetricNames) {
  EXPECT_EQ(obs::attr_name("bus.call.count"), "bus_call_count");
  EXPECT_EQ(obs::attr_name("clone-full.seconds"), "clone_full_seconds");
}

TEST(ExportTest, MetricsAdCarriesCountersTimersAndHitRatio) {
  obs::MetricsSnapshot snap;
  snap.counters["ppp.plan_hit.count"] = 3;
  snap.counters["ppp.plan_miss.count"] = 1;
  snap.gauges["vm.active.gauge"] = 2;
  obs::TimerStats& call = snap.timers["bus.call.seconds"];
  call.count = 4;
  call.sum_s = 2.0;
  call.mean_s = 0.5;
  call.min_s = 0.1;
  call.max_s = 0.9;

  classad::ClassAd ad = obs::metrics_ad(snap, util::FaultReport{});
  EXPECT_EQ(ad.get_string(obs::export_attrs::kKind).value(), "metrics");
  EXPECT_EQ(ad.get_integer("ppp_plan_hit_count").value(), 3);
  EXPECT_EQ(ad.get_integer("vm_active_gauge").value(), 2);
  EXPECT_EQ(ad.get_integer("bus_call_seconds_count").value(), 4);
  EXPECT_DOUBLE_EQ(ad.get_number("bus_call_seconds_mean").value(), 0.5);
  EXPECT_DOUBLE_EQ(
      ad.get_number(obs::export_attrs::kWarehouseHitRatio).value(), 0.75);
}

TEST(ExportTest, TraceSummaryRollsUpPhasesErrorsAndRetries) {
  std::vector<obs::Span> spans;
  obs::Span root;
  root.trace_id = "t1";
  root.span_id = 1;
  root.name = "shop.create";
  root.vm_id = "vm-1";
  root.start_s = 0.0;
  root.end_s = 5.0;
  obs::Span clone;
  clone.trace_id = "t1";
  clone.span_id = 2;
  clone.parent_id = 1;
  clone.name = "plant.clone";
  clone.start_s = 1.0;
  clone.end_s = 3.0;
  obs::Span retry;
  retry.trace_id = "t1";
  retry.span_id = 3;
  retry.parent_id = 1;
  retry.name = "shop.retry";
  retry.status = "retry";
  spans = {clone, retry, root};

  auto summaries = obs::summarize_traces(spans);
  ASSERT_EQ(summaries.size(), 1u);
  const obs::TraceSummary& s = summaries[0];
  EXPECT_EQ(s.trace_id, "t1");
  EXPECT_EQ(s.root_name, "shop.create");
  EXPECT_EQ(s.vm_id, "vm-1");
  EXPECT_DOUBLE_EQ(s.duration_s, 5.0);
  EXPECT_EQ(s.span_count, 3u);
  EXPECT_EQ(s.retry_count, 1u);
  EXPECT_EQ(s.error_count, 0u);
  EXPECT_DOUBLE_EQ(s.phase_seconds.at("plant.clone"), 2.0);

  classad::ClassAd ad = obs::trace_summary_ad(s);
  EXPECT_EQ(ad.get_string(obs::export_attrs::kKind).value(), "trace");
  EXPECT_EQ(ad.get_string(obs::export_attrs::kVmId).value(), "vm-1");
  EXPECT_EQ(ad.get_integer(obs::export_attrs::kSpanCount).value(), 3);
  EXPECT_DOUBLE_EQ(ad.get_number("Phase_plant_clone").value(), 2.0);
}

// -- End-to-end: trace + metrics through a real shop->plant creation ----------

class ObsEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-obs-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ =
        std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
    ASSERT_TRUE(workload::publish_paper_goldens(warehouse_.get()).ok());
    core::PlantConfig pc;
    pc.name = "plant0";
    plant_ = std::make_unique<core::VmPlant>(pc, store_.get(), warehouse_.get());
    ASSERT_TRUE(plant_->attach_to_bus(&bus_, &registry_).ok());
    shop_ = std::make_unique<core::VmShop>(core::ShopConfig{}, &bus_, &registry_);
    ASSERT_TRUE(shop_->attach_to_bus().ok());
    MetricsRegistry::instance().reset();
    Tracer::instance().arm();
  }
  void TearDown() override {
    Tracer::instance().disarm();
    shop_.reset();
    plant_.reset();
    warehouse_.reset();
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  const obs::Span* find_span(const std::vector<obs::Span>& spans,
                             const std::string& name) {
    for (const auto& s : spans) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  net::MessageBus bus_;
  net::ServiceRegistry registry_;
  std::unique_ptr<core::VmPlant> plant_;
  std::unique_ptr<core::VmShop> shop_;
};

TEST_F(ObsEndToEndTest, CreateYieldsSpanTreeCoveringBidMatchCloneConfigureAttach) {
  auto ad = shop_->create(workload::workspace_request(32, 0, "ufl.edu"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();

  // Every span of the creation belongs to one trace.
  auto trace_ids = Tracer::instance().trace_ids();
  ASSERT_EQ(trace_ids.size(), 1u);
  auto spans = Tracer::instance().trace(trace_ids[0]);

  const obs::Span* root = obs::find_root(spans);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "shop.create");
  EXPECT_EQ(root->vm_id, vm_id);
  EXPECT_TRUE(root->ok());

  // The full creation pipeline shows up: bid -> match -> clone ->
  // configure -> attach.
  for (const char* phase :
       {"shop.bid", "bus.call", "ppp.match", "plant.create", "plant.clone",
        "storage.clone", "hypervisor.resume", "plant.configure",
        "configure.action", "vnet.attach"}) {
    EXPECT_NE(find_span(spans, phase), nullptr) << "missing span " << phase;
  }

  // Wire propagation: plant.create's parent is the shop-side context that
  // rode the message (the shop.create span), not the bus.call client span
  // that happened to be open on the same thread.
  const obs::Span* plant_create = find_span(spans, "plant.create");
  ASSERT_NE(plant_create, nullptr);
  EXPECT_EQ(plant_create->parent_id, root->span_id);
  EXPECT_EQ(plant_create->vm_id, vm_id);

  // The tree is connected: every non-root span's parent exists.
  std::set<std::uint64_t> ids;
  for (const auto& s : spans) ids.insert(s.span_id);
  for (const auto& s : spans) {
    if (s.parent_id != 0) {
      EXPECT_TRUE(ids.count(s.parent_id))
          << s.name << " has dangling parent " << s.parent_id;
    }
  }

  // Metrics: the creation incremented the whole pipeline's counters.
  obs::MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter("shop.create.count"), 1u);
  EXPECT_EQ(snap.counter("plant0.create.count"), 1u);
  EXPECT_EQ(snap.counter("plant0.create_fail.count"), 0u);
  ASSERT_NE(snap.timer_stats("plant0.create.seconds"), nullptr);
  EXPECT_EQ(snap.timer_stats("plant0.create.seconds")->count, 1u);
  ASSERT_NE(snap.timer_stats("plant.clone.seconds"), nullptr);
  EXPECT_EQ(snap.timer_stats("plant.clone.seconds")->count, 1u);
  ASSERT_NE(snap.timer_stats("plant.configure.seconds"), nullptr);
  EXPECT_EQ(snap.timer_stats("plant.configure.seconds")->count, 1u);
  // One series per measurement: no process-wide twin of the plant's SLI
  // and no plant-scoped copy of the production line's stage timers.
  EXPECT_EQ(snap.counters.count("plant.create.count"), 0u);
  EXPECT_EQ(snap.counters.count("plant.create_fail.count"), 0u);
  EXPECT_EQ(snap.timers.count("plant.create.seconds"), 0u);
  EXPECT_EQ(snap.timers.count("plant0.clone.seconds"), 0u);
  EXPECT_EQ(snap.timers.count("plant0.configure.seconds"), 0u);
  EXPECT_EQ(snap.counter("ppp.plan_hit.count"), 1u);
  EXPECT_GE(snap.counter("ppp.match_hit.count"), 1u);
  EXPECT_GE(snap.counter("bus.call.count"), 2u);  // estimate + create
  EXPECT_GE(snap.counter("storage.clone_linked.count"), 1u);
  EXPECT_GE(snap.counter("vnet.acquire.count"), 1u);
  EXPECT_GE(snap.counter("plant.configure_action.count"), 1u);
  EXPECT_EQ(snap.gauge("bus.inflight.gauge"), 0);
  ASSERT_EQ(snap.timers.count("bus.call.seconds"), 1u);
  EXPECT_GE(snap.timers.at("bus.call.seconds").count, 2u);
}

TEST_F(ObsEndToEndTest, MatchKindCountersClassifyNonMatchingGoldens) {
  // The 32 MB request hardware-matches only golden-32mb; the DAG prefix
  // matches it too.  A second request whose DAG diverges from every golden
  // image's performed prefix still plans (full configuration from scratch
  // is not an error) — but here we assert the per-kind classification by
  // sending a request whose config is a subset mismatch for the goldens
  // that pass the hardware filter.
  auto request = workload::workspace_request(32, 0, "ufl.edu");
  ASSERT_TRUE(shop_->create(request).ok());
  obs::MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  const std::uint64_t classified = snap.counter("ppp.match_hit.count") +
                                   snap.counter("ppp.match_subset_fail.count") +
                                   snap.counter("ppp.match_prefix_fail.count") +
                                   snap.counter("ppp.match_order_fail.count");
  EXPECT_GE(classified, 1u);
  EXPECT_EQ(snap.counter("ppp.plan_hit.count"), 1u);
  ASSERT_TRUE(
      snap.ratio("ppp.plan_hit.count", "ppp.plan_miss.count").has_value());
  EXPECT_DOUBLE_EQ(
      *snap.ratio("ppp.plan_hit.count", "ppp.plan_miss.count"), 1.0);
}

TEST_F(ObsEndToEndTest, MonitorSweepPublishesObsClassAds) {
  auto ad = shop_->create(workload::workspace_request(32, 0, "ufl.edu"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();

  core::VmInformationSystem& info = plant_->info_system();
  core::VmMonitor monitor(&plant_->hypervisor(), &info);
  monitor.enable_obs_export();
  monitor.refresh_all();

  // obs://metrics is queryable and carries pipeline counters + hit ratio.
  auto metrics = info.query(core::kObsMetricsId);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().get_string(obs::export_attrs::kKind).value(),
            "metrics");
  EXPECT_EQ(metrics.value().get_integer("shop_create_count").value(), 1);
  EXPECT_GE(metrics.value().get_integer("ppp_match_hit_count").value(), 1);
  EXPECT_DOUBLE_EQ(
      metrics.value().get_number(obs::export_attrs::kWarehouseHitRatio).value(),
      1.0);

  // obs://trace/<vm> summarizes the creation's span tree.
  auto trace = info.query(core::kObsTracePrefix + vm_id);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().get_string(obs::export_attrs::kRootSpan).value(),
            "shop.create");
  EXPECT_GE(trace.value().get_integer(obs::export_attrs::kSpanCount).value(), 5);
  EXPECT_TRUE(trace.value().has("Phase_plant_clone"));

  // The VM's own ad is untouched and still queryable.
  EXPECT_TRUE(info.query(vm_id).ok());
  // Gauges were refreshed from hypervisor power states during the sweep.
  EXPECT_EQ(MetricsRegistry::instance().snapshot().gauge("vm.active.gauge"), 1);
}

TEST_F(ObsEndToEndTest, PeriodicMonitorPublishesAndStopLeavesNoStaleAds) {
  ASSERT_TRUE(shop_->create(workload::workspace_request(32, 0, "ufl.edu")).ok());
  core::VmInformationSystem& info = plant_->info_system();
  core::VmMonitor monitor(&plant_->hypervisor(), &info);
  monitor.enable_obs_export();
  monitor.start_periodic(std::chrono::milliseconds(1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (monitor.sweeps() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(monitor.sweeps(), 2u);
  EXPECT_TRUE(info.contains(core::kObsMetricsId));

  monitor.stop_periodic();
  // No obs:// ad survives the stop; the VM ads do.
  for (const std::string& id : info.vm_ids()) {
    EXPECT_FALSE(id.starts_with(core::kObsAdPrefix)) << id;
  }
  EXPECT_EQ(info.size(), 1u);
}

TEST_F(ObsEndToEndTest, LostThenRetriedMessageKeepsOneTraceWithRetrySpan) {
  // One plant: call 1 is the estimate (passes), call 2 the create (lost).
  // The shop's transport retry resends to the same plant; the whole
  // request — including the retry — must stay a single trace.
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::parse("bus.send:after=1,times=1").value());
  auto ad = shop_->create(workload::workspace_request(32, 0, "ufl.edu"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(shop_->retries(), 1u);

  auto trace_ids = Tracer::instance().trace_ids();
  ASSERT_EQ(trace_ids.size(), 1u);
  auto spans = Tracer::instance().trace(trace_ids[0]);

  const obs::Span* retry = find_span(spans, "shop.retry");
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->status, "retry");
  EXPECT_TRUE(retry->ok());

  // Both bus.call legs (lost + retried) and the eventual plant.create all
  // hang off the same root.
  const obs::Span* root = obs::find_root(spans);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "shop.create");
  std::size_t bus_calls = 0;
  for (const auto& s : spans) {
    if (s.name == "bus.call" && s.parent_id == root->span_id) ++bus_calls;
  }
  EXPECT_GE(bus_calls, 2u);
  const obs::Span* plant_create = find_span(spans, "plant.create");
  ASSERT_NE(plant_create, nullptr);
  EXPECT_EQ(plant_create->parent_id, root->span_id);

  obs::MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter("shop.retry.count"), 1u);
  EXPECT_GE(snap.counter("bus.error.count"), 1u);

  // The exporter surfaces the retry in the per-VM trace summary.
  auto summaries = obs::summarize_traces(spans);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].retry_count, 1u);
}

// -- Logger satellites --------------------------------------------------------

class LogCaptureTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::set_log_sink(nullptr);
    util::set_log_clock(nullptr);
    util::set_log_level(util::LogLevel::kWarn);
  }
};

TEST_F(LogCaptureTest, SinkReceivesRecordsWithTimestamps) {
  std::vector<util::LogRecord> records;
  util::set_log_sink([&records](const util::LogRecord& r) {
    records.push_back(r);
  });
  util::Logger("obs-test").warn() << "hello " << 42;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].component, "obs-test");
  EXPECT_EQ(records[0].message, "hello 42");
  EXPECT_EQ(records[0].level, util::LogLevel::kWarn);
  EXPECT_GE(records[0].wall_time_s, 0.0);
  EXPECT_LT(records[0].sim_time_s, 0.0);  // no sim clock installed
}

TEST_F(LogCaptureTest, SimClockStampsRecords) {
  util::set_log_clock([] { return 12.5; });
  std::vector<util::LogRecord> records;
  util::set_log_sink([&records](const util::LogRecord& r) {
    records.push_back(r);
  });
  util::Logger("obs-test").error() << "boom";
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].sim_time_s, 12.5);
}

TEST_F(LogCaptureTest, LineOutlivesTemporaryLogger) {
  // The Line stores the component by value, so the idiomatic
  // Logger("x").warn() << ... stays safe even though the Logger temporary
  // dies before the Line flushes.
  util::set_log_level(util::LogLevel::kDebug);
  std::vector<util::LogRecord> records;
  util::set_log_sink([&records](const util::LogRecord& r) {
    records.push_back(r);
  });
  util::Logger(std::string("ephemeral-") + "component").debug()
      << "still " << "alive";
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].component, "ephemeral-component");
  EXPECT_EQ(records[0].message, "still alive");
}

/// Counts how often it is formatted into a log line.
struct FormatProbe {
  int* formatted;
};
std::ostream& operator<<(std::ostream& out, const FormatProbe& probe) {
  ++*probe.formatted;
  return out << "probe";
}

TEST_F(LogCaptureTest, LineBelowTheLevelNeverFormatsItsOperands) {
  std::vector<util::LogRecord> records;
  util::set_log_sink([&records](const util::LogRecord& r) {
    records.push_back(r);
  });
  int formatted = 0;
  util::set_log_level(util::LogLevel::kError);
  const util::Logger log("obs-test");
  log.info() << "skipped " << FormatProbe{&formatted};
  log.warn() << FormatProbe{&formatted};
  EXPECT_EQ(formatted, 0);
  EXPECT_TRUE(records.empty());
  log.error() << "kept " << FormatProbe{&formatted};
  EXPECT_EQ(formatted, 1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].message, "kept probe");
}

TEST_F(LogCaptureTest, TracerMirrorsSpanEndsIntoLogger) {
  util::set_log_level(util::LogLevel::kDebug);
  std::vector<util::LogRecord> records;
  util::set_log_sink([&records](const util::LogRecord& r) {
    records.push_back(r);
  });
  Tracer::instance().arm();
  Tracer::instance().set_log_spans(true);
  { obs::ScopedSpan op("mirrored.op", "test"); }
  Tracer::instance().set_log_spans(false);
  Tracer::instance().disarm();
  bool saw = false;
  for (const auto& r : records) {
    if (r.component == "trace" &&
        r.message.find("mirrored.op") != std::string::npos) {
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace vmp
