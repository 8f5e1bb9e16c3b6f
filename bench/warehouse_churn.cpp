// Warehouse churn under a disk budget — LRU vs GDSF eviction, plus the
// allocation cost of a PPP candidate scan.
//
// The paper's VM Warehouse (§3.2) never evicts; under a finite budget the
// lifecycle manager must, and the policy choice is measurable.  A Zipf-
// popular request mix over golden machines of widely varying sizes (96 MB
// to ~1.3 GB apparent) drives publish-on-miss / lease-on-hit churn through
// a budget that holds only a fraction of the working set.  LRU is blind to
// the fact that one huge cold image displaces a dozen small popular ones;
// GDSF (priority = clock + hits x rebuild_cost / size) keeps the small
// popular tail resident and wins on object hit rate at equal quota.
//
// Everything is seeded and wall-clock-free: hit rates are deterministic,
// so bench/baselines/warehouse_churn.json gates ABSOLUTE floors and the
// gdsf > lru ordering via tools/bench_gate.py "must_exceed".
//
// The second measurement counts heap allocations per warehouse candidate
// scan: match_candidates() returns lightweight CandidateViews (id +
// performed + fingerprint) instead of full GoldenImage copies; the
// list_backend() column is what every PPP scan used to pay.
//
// Beside it, two informational rows count the heap allocations of one
// store cycle each, the per-create and per-publish store calls: a linked
// clone + destroy of a 16-span golden with a 4 MiB checkpoint, and a
// publish + tree_footprint + removal of a golden of the same shape.  They
// repeat exactly and gate nothing.
//
// The third is crash-mid-churn: the same request stream, killed at 2/3 and
// restarted over the surviving store.  A journal-replayed warm_start()
// restores GDSF's hit/usage history and aging clock, so the final-third
// hit rate must stay within 2% of an uninterrupted run; a cold restart
// (descriptors only, no journal) is the baseline it beats.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "common.h"
#include "lifecycle/lifecycle.h"
#include "obs/journal.h"
#include "storage/clone_ops.h"
#include "util/random.h"
#include "warehouse/warehouse.h"

// -- Allocation counter -------------------------------------------------------
// Global operator new override, bench-binary only: counts every heap
// allocation so the scan comparison below is exact, not sampled.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace vmp;

constexpr std::size_t kImages = 64;
constexpr std::size_t kRequests = 3000;
constexpr double kZipfExponent = 0.9;
constexpr std::uint64_t kSeed = 20040621;

struct Catalog {
  std::vector<warehouse::GoldenImage> images;
  std::uint64_t total_estimate = 0;
};

/// 64 golden machines, sizes spread over ~14x, configuration depth 0-8.
/// Popularity rank == index (the Zipf draw below favours low indexes), and
/// sizes are assigned from a seeded stream so small/large images land at
/// BOTH popular and unpopular ranks.
Catalog build_catalog() {
  util::SplitMix64 rng(kSeed);
  Catalog catalog;
  for (std::size_t i = 0; i < kImages; ++i) {
    warehouse::GoldenImage image;
    image.id = "golden-" + std::to_string(i);
    image.backend = "vmware-gsx";
    image.spec.os = "linux-mandrake-8.1";
    image.spec.memory_bytes = (32ull + rng.next_below(225)) << 20;
    image.spec.suspended = true;
    image.spec.disk =
        storage::DiskSpec{"disk0", (64ull + rng.next_below(961)) << 20, 4,
                          storage::DiskMode::kNonPersistent};
    image.guest.os = image.spec.os;
    const std::size_t depth = rng.next_below(9);
    for (std::size_t d = 0; d < depth; ++d) {
      image.performed.push_back("action-" + std::to_string(d));
    }
    catalog.total_estimate +=
        lifecycle::LifecycleManager::estimate_publish_bytes(image.spec);
    catalog.images.push_back(std::move(image));
  }
  return catalog;
}

/// Rank-based Zipf sampler over [0, n): P(i) proportional to 1/(i+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s, std::uint64_t seed) : rng_(seed) {
    cumulative_.reserve(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cumulative_.push_back(total);
    }
    for (double& c : cumulative_) c /= total;
  }
  std::size_t next() {
    const double u = rng_.next_double();
    std::size_t lo = 0, hi = cumulative_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cumulative_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  util::SplitMix64 rng_;
  std::vector<double> cumulative_;
};

struct ChurnResult {
  double hit_rate = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t rejected_publishes = 0;
  std::uint64_t evictions_observed = 0;  // miss-publishes that displaced
};

ChurnResult run_churn(const std::string& policy, std::uint64_t budget) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("vmp-bench-churn-" + std::to_string(::getpid()) + "-" + policy);
  std::filesystem::remove_all(root);
  ChurnResult result;
  {
    storage::ArtifactStore store(root);
    warehouse::Warehouse wh(&store, "warehouse");
    lifecycle::LifecycleManager::Config config;
    config.disk_budget_bytes = budget;
    config.policy = policy;
    auto manager = lifecycle::LifecycleManager::create(&wh, config);
    if (!manager.ok()) {
      std::fprintf(stderr, "lifecycle create failed: %s\n",
                   manager.error().to_string().c_str());
      std::exit(2);
    }
    lifecycle::LifecycleManager& lifecycle = *manager.value();

    const Catalog catalog = build_catalog();
    ZipfSampler zipf(kImages, kZipfExponent, kSeed ^ 0x5eed);
    for (std::size_t r = 0; r < kRequests; ++r) {
      const warehouse::GoldenImage& want = catalog.images[zipf.next()];
      if (wh.contains(want.id)) {
        // Hit: a production order leases the base for its clone.
        if (lifecycle.acquire(want.id).ok()) {
          ++result.hits;
          lifecycle.release(want.id);
          continue;
        }
      }
      // Miss: the image must be (re)published before the order can run.
      ++result.misses;
      const std::size_t before = wh.size();
      auto published = lifecycle.publish(want);
      if (!published.ok()) {
        ++result.rejected_publishes;
      } else if (wh.size() <= before) {
        ++result.evictions_observed;
      }
    }
  }
  std::filesystem::remove_all(root);
  result.hit_rate = static_cast<double>(result.hits) /
                    static_cast<double>(kRequests);
  return result;
}

void report_churn(const std::string& policy, const ChurnResult& run) {
  std::printf("%-6s %10.4f %8llu %8llu %10llu %10llu\n", policy.c_str(),
              run.hit_rate, static_cast<unsigned long long>(run.hits),
              static_cast<unsigned long long>(run.misses),
              static_cast<unsigned long long>(run.evictions_observed),
              static_cast<unsigned long long>(run.rejected_publishes));
  std::printf("BENCH_JSON {\"name\": \"churn.%s\", \"hit_rate\": %.4f, "
              "\"hits\": %llu, \"misses\": %llu, \"failures\": %llu}\n",
              policy.c_str(), run.hit_rate,
              static_cast<unsigned long long>(run.hits),
              static_cast<unsigned long long>(run.misses),
              static_cast<unsigned long long>(run.rejected_publishes));
}

// -- Crash-mid-churn ----------------------------------------------------------

constexpr std::size_t kCrashAt = kRequests * 2 / 3;

enum class RestartMode {
  kUninterrupted,  // one continuous session, no crash
  kJournalReplay,  // crash at kCrashAt; warm_start folds the journal back in
  kColdRestart,    // crash at kCrashAt; warm_start from descriptors only
};

struct CrashChurnResult {
  double tail_hit_rate = 0.0;  // hit rate over requests [kCrashAt, kRequests)
  std::uint64_t tail_hits = 0;
};

/// GDSF churn with a crash at 2/3 of the request stream.  All three modes
/// serve the IDENTICAL seeded request sequence; only what survives the
/// restart differs.  flush_each_append makes the journal's on-disk state at
/// the crash point exactly what a killed process would leave (warehouse
/// descriptors are already written synchronously at publish).
CrashChurnResult run_crash_churn(RestartMode mode, const char* label,
                                 std::uint64_t budget) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("vmp-bench-churn-crash-" + std::to_string(::getpid()) + "-" + label);
  std::filesystem::remove_all(root);
  const Catalog catalog = build_catalog();
  ZipfSampler zipf(kImages, kZipfExponent, kSeed ^ 0x5eed);
  CrashChurnResult result;

  obs::JournalDurableConfig durable;
  durable.flush_each_append = true;

  const auto make_manager = [&](warehouse::Warehouse* wh,
                                obs::Journal* journal) {
    lifecycle::LifecycleManager::Config config;
    config.disk_budget_bytes = budget;
    config.policy = "gdsf";
    config.journal = journal;
    auto manager = lifecycle::LifecycleManager::create(wh, config);
    if (!manager.ok()) {
      std::fprintf(stderr, "lifecycle create failed: %s\n",
                   manager.error().to_string().c_str());
      std::exit(2);
    }
    return std::move(manager).value();
  };
  const auto serve = [&](lifecycle::LifecycleManager& lifecycle,
                         warehouse::Warehouse& wh, std::size_t r) {
    const warehouse::GoldenImage& want = catalog.images[zipf.next()];
    if (wh.contains(want.id) && lifecycle.acquire(want.id).ok()) {
      lifecycle.release(want.id);
      if (r >= kCrashAt) ++result.tail_hits;
      return;
    }
    (void)lifecycle.publish(want);
  };

  const std::size_t crash_at =
      mode == RestartMode::kUninterrupted ? kRequests : kCrashAt;
  {
    // Session 1 (the whole run when uninterrupted).  The journal outlives
    // the manager; scope exit without close_durable() IS the crash — with
    // per-append flushes there is nothing buffered left to lose.
    obs::Journal journal;
    if (!journal.open_durable(root / "journal", durable).ok()) {
      std::fprintf(stderr, "open_durable failed\n");
      std::exit(2);
    }
    storage::ArtifactStore store(root);
    warehouse::Warehouse wh(&store, "warehouse");
    auto manager = make_manager(&wh, &journal);
    for (std::size_t r = 0; r < crash_at; ++r) serve(*manager, wh, r);
  }
  if (mode != RestartMode::kUninterrupted) {
    // Session 2: restart over the surviving store.  Replay opens the
    // durable sink over the existing segments BEFORE warm_start(), which
    // then folds the recovered history in; cold gets a fresh journal and
    // rebuilds from descriptors alone.
    obs::Journal journal;
    if (mode == RestartMode::kJournalReplay &&
        !journal.open_durable(root / "journal", durable).ok()) {
      std::fprintf(stderr, "re-open_durable failed\n");
      std::exit(2);
    }
    storage::ArtifactStore store(root);
    warehouse::Warehouse wh(&store, "warehouse");
    auto manager = make_manager(&wh, &journal);
    if (auto warmed = manager->warm_start(); !warmed.ok()) {
      std::fprintf(stderr, "warm_start failed: %s\n",
                   warmed.to_string().c_str());
      std::exit(2);
    }
    for (std::size_t r = kCrashAt; r < kRequests; ++r) serve(*manager, wh, r);
  }
  std::filesystem::remove_all(root);
  result.tail_hit_rate = static_cast<double>(result.tail_hits) /
                         static_cast<double>(kRequests - kCrashAt);
  return result;
}

void report_crash(const char* label, const CrashChurnResult& run) {
  std::printf("%-14s %10.4f %8llu / %zu\n", label, run.tail_hit_rate,
              static_cast<unsigned long long>(run.tail_hits),
              kRequests - kCrashAt);
  std::printf("BENCH_JSON {\"name\": \"churn.crash.%s\", \"hit_rate\": %.4f, "
              "\"failures\": 0}\n",
              label, run.tail_hit_rate);
}

/// Allocations per candidate scan: CandidateViews vs full-image copies.
void run_scan_alloc_comparison() {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("vmp-bench-churn-scan-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  {
    storage::ArtifactStore store(root);
    warehouse::Warehouse wh(&store, "warehouse");
    const Catalog catalog = build_catalog();
    for (const warehouse::GoldenImage& image : catalog.images) {
      if (!wh.publish(image).ok()) {
        std::fprintf(stderr, "publish %s failed\n", image.id.c_str());
        std::exit(2);
      }
    }
    constexpr std::size_t kScans = 200;
    const auto hardware_ok = [](const warehouse::GoldenImage&) {
      return true;
    };

    std::uint64_t views_allocs = 0;
    std::uint64_t full_allocs = 0;
    std::size_t sink = 0;
    {
      const std::uint64_t start =
          g_allocations.load(std::memory_order_relaxed);
      for (std::size_t i = 0; i < kScans; ++i) {
        auto scan = wh.match_candidates("vmware-gsx", hardware_ok, ~0ull);
        sink += scan.candidates.size();
      }
      views_allocs = g_allocations.load(std::memory_order_relaxed) - start;
    }
    {
      const std::uint64_t start =
          g_allocations.load(std::memory_order_relaxed);
      for (std::size_t i = 0; i < kScans; ++i) {
        // What the PPP used to copy per scan: every candidate in full
        // (layout + spec + guest state), via the list path.
        auto scan = wh.list_backend("vmware-gsx");
        sink += scan.size();
      }
      full_allocs = g_allocations.load(std::memory_order_relaxed) - start;
    }
    if (sink == 0) std::printf("(empty scans?)\n");

    std::printf("\ncandidate-scan allocations over %zu scans x %zu images:\n",
                kScans, catalog.images.size());
    std::printf("  lightweight views: %10llu allocs\n",
                static_cast<unsigned long long>(views_allocs));
    std::printf("  full-image copies: %10llu allocs  (%.2fx)\n",
                static_cast<unsigned long long>(full_allocs),
                views_allocs
                    ? static_cast<double>(full_allocs) /
                          static_cast<double>(views_allocs)
                    : 0.0);
    std::printf("BENCH_JSON {\"name\": \"scan.alloc.views\", "
                "\"allocs\": %llu, \"failures\": 0}\n",
                static_cast<unsigned long long>(views_allocs));
    std::printf("BENCH_JSON {\"name\": \"scan.alloc.full\", "
                "\"allocs\": %llu, \"failures\": 0}\n",
                static_cast<unsigned long long>(full_allocs));
  }
  std::filesystem::remove_all(root);
}

/// Exact heap allocations of one steady-state run of `cycle`: the fewest
/// over eight runs.  The first runs fill first-use state (metric
/// registrations, the spare pool's slot), and a run whose latency lands in
/// a histogram octave no earlier run reached also allocates that octave's
/// page; the minimum leaves both out.  Exits when a run fails.
template <typename Cycle>
std::uint64_t allocations_of_cycle(const char* name, const Cycle& cycle) {
  std::uint64_t fewest = ~0ull;
  for (int run = 0; run < 8; ++run) {
    const std::uint64_t start = g_allocations.load(std::memory_order_relaxed);
    if (!cycle()) {
      std::fprintf(stderr, "%s cycle failed\n", name);
      std::exit(2);
    }
    fewest = std::min(fewest,
                      g_allocations.load(std::memory_order_relaxed) - start);
  }
  return fewest;
}

/// Allocations of one clone cycle and one publish cycle (informational).
void run_store_alloc_counts() {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("vmp-bench-churn-store-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  {
    storage::ArtifactStore store(root);
    storage::MachineSpec spec;
    spec.os = "linux-mandrake-8.1";
    spec.memory_bytes = 4ull << 20;
    spec.suspended = true;
    spec.disk = storage::DiskSpec{"disk0", 256ull << 20, 16,
                                  storage::DiskMode::kNonPersistent};

    // A written (not sparse) checkpoint: the clone copies it for real and
    // the destroy retires the copy to the spare pool, as on a create.
    const storage::ImageLayout golden{"golden"};
    if (!storage::materialize_image(&store, golden, spec).ok() ||
        !store.write_file(golden.memory_path(),
                          std::string(spec.memory_bytes, 'm'))
             .ok()) {
      std::fprintf(stderr, "golden materialization failed\n");
      std::exit(2);
    }
    const std::uint64_t clone_allocs =
        allocations_of_cycle("clone", [&] {
          return storage::clone_image(&store, golden, spec, "clones/vm",
                                      storage::CloneStrategy::kLinked)
                     .ok() &&
                 storage::destroy_clone(&store, "clones/vm").ok();
        });

    warehouse::Warehouse wh(&store, "warehouse");
    warehouse::GoldenImage image;
    image.id = "golden-cycle";
    image.backend = "vmware-gsx";
    image.spec = spec;
    image.guest.os = spec.os;
    image.performed.push_back("action-0");
    image.performed.push_back("action-1");
    const std::string image_dir = "warehouse/" + image.id;
    const std::uint64_t publish_allocs =
        allocations_of_cycle("publish", [&] {
          return wh.publish(image).ok() &&
                 store.tree_footprint(image_dir).ok() &&
                 wh.remove(image.id).ok();
        });

    std::printf("\nstore-cycle allocations (informational):\n");
    std::printf("  linked clone + destroy, 16 spans, 4 MiB: %6llu allocs\n",
                static_cast<unsigned long long>(clone_allocs));
    std::printf("  publish + footprint + removal:           %6llu allocs\n",
                static_cast<unsigned long long>(publish_allocs));
    std::printf("BENCH_JSON {\"name\": \"store.alloc.clone_cycle\", "
                "\"allocs\": %llu, \"failures\": 0}\n",
                static_cast<unsigned long long>(clone_allocs));
    std::printf("BENCH_JSON {\"name\": \"store.alloc.publish_cycle\", "
                "\"allocs\": %llu, \"failures\": 0}\n",
                static_cast<unsigned long long>(publish_allocs));
  }
  std::filesystem::remove_all(root);
}

}  // namespace

int main() {
  bench::print_header(
      "warehouse churn — eviction policy quality under a disk budget",
      "the paper's warehouse only grows; under a budget, cost/size-aware "
      "eviction (GDSF) must beat LRU on hit rate at equal quota");

  // Budget = ~22% of the catalog's apparent working set: small enough that
  // the policies must constantly choose victims, big enough that choosing
  // WELL keeps the popular tail resident.
  const Catalog catalog = build_catalog();
  const std::uint64_t budget = catalog.total_estimate / 9 * 2;
  std::printf("catalog: %zu images, ~%llu MB apparent; budget %llu MB\n\n",
              catalog.images.size(),
              static_cast<unsigned long long>(catalog.total_estimate >> 20),
              static_cast<unsigned long long>(budget >> 20));
  std::printf("%-6s %10s %8s %8s %10s %10s\n", "policy", "hit-rate", "hits",
              "misses", "evicted", "rejected");

  const ChurnResult lru = run_churn("lru", budget);
  report_churn("lru", lru);
  const ChurnResult gdsf = run_churn("gdsf", budget);
  report_churn("gdsf", gdsf);

  run_scan_alloc_comparison();
  run_store_alloc_counts();

  std::printf("\ncrash at request %zu of %zu; final-third hit rate "
              "(GDSF, same stream):\n",
              kCrashAt, kRequests);
  std::printf("%-14s %10s %s\n", "restart", "hit-rate", "tail hits");
  const CrashChurnResult uninterrupted =
      run_crash_churn(RestartMode::kUninterrupted, "uninterrupted", budget);
  report_crash("uninterrupted", uninterrupted);
  const CrashChurnResult replay =
      run_crash_churn(RestartMode::kJournalReplay, "replay", budget);
  report_crash("replay", replay);
  const CrashChurnResult cold =
      run_crash_churn(RestartMode::kColdRestart, "cold", budget);
  report_crash("cold", cold);

  bench::print_summary_row(
      "gdsf vs lru hit rate",
      "n/a (paper never evicts)",
      "gdsf " + std::to_string(gdsf.hit_rate) + " vs lru " +
          std::to_string(lru.hit_rate));
  return 0;
}
