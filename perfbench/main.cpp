// Create-path benchmark program.
//
// One process runs one workload.  It builds a site from the real modules
// (store, warehouse, optional lifecycle manager + durable journal, bus,
// registry, plants, shop) and drives a closed loop of create+destroy cycles
// through VmShop::create / VmShop::destroy.
//
// Every run performs a FIXED number of cycles (nominal rate x --seconds)
// and is never time-boxed: per-create latency drifts upward with the number
// of creates a plant has served (the hypervisor keeps every destroyed
// instance and scans them all on each create and bid), so a time-boxed run
// would charge a faster program more drift.  The cycles are split over
// kRounds rounds, each on a fresh site, which bounds the drift one plant
// accumulates; every end-to-end figure is taken over the cycles of all
// rounds, each cycle's times scaled to a nominal host speed by a host probe
// that runs between cycles (see kProbeNominalMs).
//
//   --trace 0  end-to-end metrics, measured with nothing but the client
//              clock around each call, then scaled.
//   --trace 1  per-layer metrics: each request is first replayed through
//              each layer's public functions, timed from outside with
//              steady_clock and per-thread CPU/sys clocks, then run untraced
//              through the shop for the untraced mean create time, the drift
//              and the exact counts.
//
// The last stdout line is one JSON object; run.py reduces it to the
// reported result and enforces the exact-count guard across runs.
// See README.md beside this file for the workloads and the layer map.
#include <fcntl.h>
#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/plant.h"
#include "core/ppp.h"
#include "core/production_line.h"
#include "core/shop.h"
#include "dag/matching.h"
#include "hypervisor/gsx.h"
#include "lifecycle/lifecycle.h"
#include "net/bus.h"
#include "net/registry.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "stats.h"
#include "storage/artifact_store.h"
#include "util/logging.h"
#include "util/random.h"
#include "vnet/allocator.h"
#include "warehouse/warehouse.h"
#include "workload/dag_library.h"
#include "workload/request_gen.h"
#include "xml/xml.h"

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define PERFBENCH_UNFIT_BUILD 1
#endif

namespace {

using namespace vmp;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMb = 1ull << 20;
constexpr std::uint64_t kDiskBytes = 2048 * kMb;
constexpr std::uint32_t kDiskSpans = 16;
constexpr std::uint32_t kCloneMemoryMb = 32;
constexpr std::size_t kCheckpointPayloadBytes = 4ull << 20;
const std::string kOs = "linux-mandrake-8.1";
const std::string kBackend = "vmware-gsx";
const std::string kDomain = "bench.grid";
const std::string kEchoAddress = "perfbench.echo";

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double thread_sys_ms() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_stime.tv_sec * 1e3 + ru.ru_stime.tv_usec / 1e3;
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

/// The host-speed probe: a fixed piece of work of the kinds the create path
/// is made of — building a small string map, as descriptor and classad
/// handling do, and small-file syscalls on the store's filesystem, as the
/// clone path does — that calls nothing of the program, so no change to the
/// program can move it.  Returns its wall time.
class HostProbe {
 public:
  explicit HostProbe(fs::path file) : file_(std::move(file)) {}

  double run_ms() const {
    static volatile std::size_t sink = 0;
    const auto t0 = Clock::now();
    std::map<std::string, std::string> map;
    for (int i = 0; i < 400; ++i) {
      std::string key = "probe-" + std::to_string(i * 7919 % 401) + "-key";
      map[key] = key + key;
    }
    std::size_t total = 0;
    for (const auto& [key, value] : map) total += value.size();
    const std::string block(4096, 'p');
    for (int i = 0; i < 20; ++i) {
      const int fd = ::open(file_.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0600);
      if (fd >= 0) {
        total += static_cast<std::size_t>(::write(fd, block.data(), block.size()));
        ::close(fd);
      }
      ::unlink(file_.c_str());
    }
    sink = sink + total;
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  }

 private:
  fs::path file_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fs_type_name(const fs::path& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x858458f6: return "ramfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// Put the store on a memory-backed filesystem without leaving the run's
/// own directory: a tmpfs mounted over `dir` inside a private mount
/// namespace, so nothing outside this process ever sees it and it vanishes
/// when the process exits.  On a disk filesystem the kernel's journal and
/// other tenants' I/O dominate the spread of the clone path.  Returns false
/// (and changes nothing) where namespaces or mounts are not permitted.
bool mount_private_tmpfs(const fs::path& dir) {
  if (unshare(CLONE_NEWNS) != 0) return false;
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return false;
  }
  return mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
               "size=2g,mode=0700") == 0;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kClonePipeline, kFlatBidding, kDeepDagCatalog, kPublishChurn };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Nominal cycle rate: a run performs round(cycles_per_s * --seconds)
  /// cycles whatever the program's speed.
  double cycles_per_s;
  /// Warm-up cycles run inside set-up, until caches are filled.
  std::size_t warmup;
  std::size_t plants;
  /// ActionsExecuted every create's classad must carry.
  std::int64_t expected_actions;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"clone_pipeline", Kind::kClonePipeline, 200.0, 96, 1, 6},
    {"flat_bidding", Kind::kFlatBidding, 40.0, 8, 256, 6},
    {"deep_dag_catalog", Kind::kDeepDagCatalog, 110.0, 24, 1, 4},
    {"publish_churn", Kind::kPublishChurn, 400.0, 96, 1, 6},
};

/// Closed-loop clients per workload.  With two, identical clone_pipeline
/// runs spread three times wider in throughput and six times in p95.
constexpr std::size_t kClients = 1;

/// Rounds per run, each on a fresh site with its own set-up; setup_s is
/// the median set-up.  Splitting the timed cycles over rounds bounds how
/// many destroyed instances one plant retains (see the file comment).
constexpr std::size_t kRounds = 3;

// deep_dag_catalog: one fixed 64-node DAG (its shape does not depend on the
// seed, so the seed moves only the uncached suffix's parameters).
constexpr std::uint64_t kDeepDagShapeSeed = 20040621;
constexpr std::size_t kDeepDagLayers = 8;
constexpr std::size_t kDeepDagWidth = 8;
constexpr std::size_t kDeepDagGoldens = 16;
constexpr std::size_t kDeepDagSuffix = 4;

// publish_churn: a catalog of goldens of distinct memory sizes, a disk
// budget holding about a third of it, Zipf popularity.  The popularity
// stream is fixed, so every seed makes the same hits, publishes and
// evictions; the seed moves only names, addresses and request indexes.
constexpr std::size_t kChurnImages = 24;
constexpr double kChurnZipf = 0.9;
constexpr std::uint64_t kChurnStreamSeed = 20040622;

/// One closed-loop cycle's input.
struct Cycle {
  core::CreateRequest request;
  /// publish_churn: the golden the client publishes first on a miss.
  const warehouse::GoldenImage* publish_on_miss = nullptr;
};

hv::GuestState golden_guest() {
  hv::GuestState guest;
  guest.os = kOs;
  guest.hostname = "golden";
  guest.packages = {"vnc-server", "web-file-manager"};
  return guest;
}

storage::MachineSpec golden_spec(std::uint32_t memory_mb) {
  storage::MachineSpec spec;
  spec.os = kOs;
  spec.memory_bytes = memory_mb * kMb;
  spec.suspended = true;
  spec.disk.name = "disk0";
  spec.disk.capacity_bytes = kDiskBytes;
  spec.disk.span_count = kDiskSpans;
  spec.disk.mode = storage::DiskMode::kNonPersistent;
  return spec;
}

/// Rank-based Zipf sampler over [0, n): P(i) proportional to 1/(i+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s, std::uint64_t seed) : rng_(seed) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t next() {
    const double u = rng_.next_double();
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  util::SplitMix64 rng_;
  std::vector<double> cdf_;
};

/// Everything a workload's inputs are made of, derived from the seed alone.
struct Inputs {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  std::string checkpoint_payload;                 // clone-path workloads
  std::vector<warehouse::GoldenImage> catalog;    // publish_churn
  dag::ConfigDag deep_dag;                        // deep_dag_catalog
  std::vector<std::string> deep_order;            // its topological order
  std::vector<Cycle> cycles;                      // warm-up, then timed
  std::size_t warmup = 0;
};

core::CreateRequest deep_dag_request(const Inputs& in, std::size_t i) {
  // The same DAG as every golden's history, with the uncached suffix's
  // parameters varied per request.
  dag::ConfigDag config;
  const std::size_t suffix_start = in.deep_order.size() - kDeepDagSuffix;
  const std::set<std::string> suffix(in.deep_order.begin() + suffix_start,
                                     in.deep_order.end());
  for (const std::string& id : in.deep_dag.node_ids()) {
    dag::Action action = *in.deep_dag.action(id);
    if (suffix.count(id) != 0) {
      action.set_param("package", "pkg-" + id + "-s" +
                                      std::to_string(in.seed) + "-r" +
                                      std::to_string(i));
    }
    (void)config.add_action(std::move(action));
  }
  for (const std::string& id : in.deep_dag.node_ids()) {
    for (const std::string& next : in.deep_dag.successors(id)) {
      (void)config.add_edge(id, next);
    }
  }
  core::CreateRequest request;
  request.request_id = "req-deep-" + std::to_string(i);
  request.client = "perfbench";
  request.domain = kDomain;
  request.proxy_address = "proxy." + kDomain + ":4096";
  request.backend = kBackend;
  request.hardware.os = kOs;
  request.hardware.memory_bytes = kCloneMemoryMb * kMb;
  request.hardware.min_disk_bytes = kDiskBytes;
  request.config = std::move(config);
  return request;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t timed_cycles) {
  Inputs in;
  in.spec = &spec;
  in.seed = seed;
  in.warmup = spec.warmup;
  const std::size_t total = spec.warmup + timed_cycles;
  // Request indexes differ per seed (user names, addresses, MACs).
  const std::size_t base_index = static_cast<std::size_t>(seed % 1000) * 100000;

  if (spec.kind == Kind::kClonePipeline || spec.kind == Kind::kFlatBidding) {
    util::SplitMix64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    in.checkpoint_payload.resize(kCheckpointPayloadBytes);
    for (std::size_t i = 0; i < in.checkpoint_payload.size(); i += 8) {
      const std::uint64_t word = rng.next_u64();
      for (std::size_t b = 0; b < 8; ++b) {
        in.checkpoint_payload[i + b] = static_cast<char>((word >> (8 * b)) & 0xff);
      }
    }
    for (std::size_t i = 0; i < total; ++i) {
      in.cycles.push_back(
          {workload::workspace_request(kCloneMemoryMb, base_index + i, kDomain),
           nullptr});
    }
  } else if (spec.kind == Kind::kDeepDagCatalog) {
    in.deep_dag = workload::random_layered_dag(
        kDeepDagShapeSeed, kDeepDagLayers, kDeepDagWidth, 0.25);
    in.deep_order = in.deep_dag.topological_sort().value();
    for (std::size_t i = 0; i < total; ++i) {
      in.cycles.push_back({deep_dag_request(in, base_index + i), nullptr});
    }
  } else {
    for (std::size_t k = 0; k < kChurnImages; ++k) {
      warehouse::GoldenImage image;
      image.id = "golden-churn-" + std::to_string(k);
      image.backend = kBackend;
      image.spec = golden_spec(32 + 8 * static_cast<std::uint32_t>(k));
      image.guest = golden_guest();
      image.performed = workload::invigo_golden_history();
      in.catalog.push_back(std::move(image));
    }
    Zipf zipf(kChurnImages, kChurnZipf, kChurnStreamSeed);
    for (std::size_t i = 0; i < total; ++i) {
      const warehouse::GoldenImage& image = in.catalog[zipf.next()];
      const auto memory_mb =
          static_cast<std::uint32_t>(image.spec.memory_bytes / kMb);
      in.cycles.push_back(
          {workload::workspace_request(memory_mb, base_index + i, kDomain),
           &image});
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Site
// ---------------------------------------------------------------------------

/// Members are declared in dependency order, so the default destruction
/// order (reverse) tears the shop down first and the store last.
struct Site {
  std::unique_ptr<storage::ArtifactStore> store;
  std::unique_ptr<warehouse::Warehouse> warehouse;
  std::unique_ptr<obs::Journal> journal;
  std::unique_ptr<lifecycle::LifecycleManager> lifecycle;
  std::unique_ptr<net::MessageBus> bus;
  std::unique_ptr<net::ServiceRegistry> registry;
  std::vector<std::unique_ptr<core::VmPlant>> plants;
  std::unique_ptr<core::VmShop> shop;
};

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <class R>
void check_ok(const R& status, const std::string& what) {
  if (!status.ok()) die(what + ": " + status.error().to_string());
}

std::unique_ptr<Site> build_site(const Inputs& in, const fs::path& root) {
  const WorkloadSpec& spec = *in.spec;
  fs::remove_all(root);
  auto site = std::make_unique<Site>();
  site->store = std::make_unique<storage::ArtifactStore>(root);
  site->warehouse =
      std::make_unique<warehouse::Warehouse>(site->store.get(), "warehouse");

  switch (spec.kind) {
    case Kind::kClonePipeline:
    case Kind::kFlatBidding:
      check_ok(workload::publish_paper_goldens(site->warehouse.get(),
                                               {kCloneMemoryMb}),
               "publish golden");
      // Defeat the sparse-file fast path: every clone copies these bytes.
      check_ok(site->store
                   ->write_file("warehouse/golden-" +
                                    std::to_string(kCloneMemoryMb) +
                                    "mb/memory.vmss",
                                in.checkpoint_payload),
               "write checkpoint payload");
      break;
    case Kind::kDeepDagCatalog: {
      const std::size_t step =
          (in.deep_order.size() - kDeepDagSuffix) / (kDeepDagGoldens - 1);
      for (std::size_t k = 0; k < kDeepDagGoldens; ++k) {
        std::vector<std::string> performed;
        for (std::size_t n = 0; n < k * step; ++n) {
          performed.push_back(in.deep_dag.action(in.deep_order[n])->signature());
        }
        char id[32];
        std::snprintf(id, sizeof id, "golden-deep-%02zu", k);
        check_ok(site->warehouse
                     ->publish_new(id, kBackend, golden_spec(kCloneMemoryMb),
                                   golden_guest(), performed),
                 "publish deep golden");
      }
      break;
    }
    case Kind::kPublishChurn: {
      site->journal = std::make_unique<obs::Journal>();
      check_ok(site->journal->open_durable(root / "journal"), "open journal");
      std::uint64_t catalog_bytes = 0;
      for (const auto& image : in.catalog) {
        catalog_bytes +=
            lifecycle::LifecycleManager::estimate_publish_bytes(image.spec);
      }
      lifecycle::LifecycleManager::Config config;
      config.disk_budget_bytes = catalog_bytes / 3;
      config.policy = "gdsf";
      config.journal = site->journal.get();
      auto manager =
          lifecycle::LifecycleManager::create(site->warehouse.get(), config);
      if (!manager.ok()) die("lifecycle: " + manager.error().to_string());
      site->lifecycle = std::move(manager).value();
      break;
    }
  }

  site->bus = std::make_unique<net::MessageBus>();
  site->registry = std::make_unique<net::ServiceRegistry>();
  for (std::size_t p = 0; p < spec.plants; ++p) {
    core::PlantConfig config;
    char name[32];
    std::snprintf(name, sizeof name, "plant%03zu", p);
    config.name = name;
    // Creates arrive over the bus on the client's thread; the async pool
    // is idle in this benchmark, so keep it at its minimum.
    config.worker_threads = 1;
    auto plant = std::make_unique<core::VmPlant>(config, site->store.get(),
                                                 site->warehouse.get());
    if (site->lifecycle) plant->hypervisor().set_lease_hook(site->lifecycle.get());
    check_ok(plant->attach_to_bus(site->bus.get(), site->registry.get()),
             "attach plant");
    site->plants.push_back(std::move(plant));
  }
  core::ShopConfig shop_config;
  shop_config.tie_break_seed = in.seed;  // which of equal bids wins
  site->shop = std::make_unique<core::VmShop>(shop_config, site->bus.get(),
                                              site->registry.get());
  site->shop->set_lifecycle(site->lifecycle.get());
  check_ok(site->shop->attach_to_bus(), "attach shop");
  return site;
}

// ---------------------------------------------------------------------------
// Closed loop through VmShop
// ---------------------------------------------------------------------------

/// Per-create counts every create of a workload must repeat exactly.
struct CreateShape {
  std::int64_t actions = -1;
  std::int64_t isos = -1;
  std::int64_t links = -1;
};

struct LoopResult {
  std::vector<double> create_ms;   // by cycle index; kFailed on failure
  std::vector<double> destroy_ms;  // by cycle index; kFailed on failure
  std::vector<double> cycle_ms;      // by cycle index: wall time, probes out
  std::vector<double> cycle_cpu_ms;  // by cycle index: process CPU, probes out
  std::vector<std::size_t> probe_pos;  // cycles completed when a probe ran
  std::vector<double> probe_ms;        // that probe's wall time
  double probe_total_ms = 0.0;         // wall time spent in probes
  std::vector<double> publish_ms;
  std::vector<std::size_t> publish_cycle;  // cycle index of each publish
  std::size_t creates_failed = 0, destroys_attempted = 0, destroys_failed = 0;
  std::size_t bad_ads = 0;  // creates that succeeded with a wrong classad
  std::size_t publishes_attempted = 0, publishes_failed = 0;
  std::size_t hits = 0, requests = 0, evictions = 0;
  std::size_t violations = 0;
  std::vector<std::string> violation_notes;
  CreateShape shape;
  std::uint64_t clone_bytes = 0;  // summed: goldens may differ in size
  std::uint64_t bus_calls = 0;
  std::uint64_t journal_records = 0;
};

/// Host-speed normalisation.  On a shared host the machine's speed moves
/// by up to 1.9x for seconds to minutes at a time, more than any bound a
/// benchmark could hold (README.md, "Machine speed").  The host probe runs
/// before the first cycle, after the last and between cycles about every
/// kProbeEveryMs; each cycle's times are scaled by kProbeNominalMs over the
/// mean of the probes just before and just after it.  A figure therefore
/// reads as it would on a host where the probe takes kProbeNominalMs (the
/// fast state of the 4-vCPU VM the benchmark was tuned on).  The probe
/// calls nothing of the program, so a change to the program moves every
/// figure in full.
constexpr double kProbeEveryMs = 10.0;
constexpr double kProbeNominalMs = 0.30;

/// Runs cycles [begin, end) through the shop, one client in a closed loop;
/// `before_cycle`, when set, runs first in each cycle.
LoopResult run_loop(const Inputs& in, Site& site, const HostProbe& probe,
                    std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& before_cycle = {}) {
  const WorkloadSpec& spec = *in.spec;
  LoopResult r;
  const auto violation = [&](const std::string& note) {
    ++r.violations;
    if (r.violation_notes.size() < 5) r.violation_notes.push_back(note);
  };

  const std::uint64_t calls_before = site.bus->calls_total();
  const std::uint64_t records_before =
      site.journal ? site.journal->appended() : 0;

  // One cycle: publish on a miss, create, check the classad, destroy.
  // Returns the create and destroy latencies (kFailed on failure).
  const auto cycle_body = [&](const Cycle& cycle) -> std::pair<double, double> {
    if (cycle.publish_on_miss != nullptr) {
      ++r.requests;
      if (site.warehouse->contains(cycle.publish_on_miss->id)) {
        ++r.hits;
      } else {
        const std::size_t size_before = site.warehouse->size();
        const auto t0 = Clock::now();
        const util::Status published =
            site.shop->publish_image(*cycle.publish_on_miss);
        const double publish_ms = ms_since(t0);
        ++r.publishes_attempted;
        r.publish_ms.push_back(published.ok() ? publish_ms : perfbench::kFailed);
        r.publish_cycle.push_back(r.create_ms.size());
        if (published.ok()) {
          r.evictions += size_before + 1 - site.warehouse->size();
        } else {
          ++r.publishes_failed;
        }
      }
    }

    const auto t0 = Clock::now();
    auto ad = site.shop->create(cycle.request);
    const double create_ms = ms_since(t0);
    if (!ad.ok()) {
      ++r.creates_failed;
      violation("create " + cycle.request.request_id + ": " +
                ad.error().to_string());
      return {perfbench::kFailed, perfbench::kFailed};
    }
    const auto vm_id = ad.value().get_string(core::attrs::kVmId);
    const auto plant = ad.value().get_string(core::attrs::kPlant);
    const auto actions = ad.value().get_integer(core::attrs::kActionsExecuted);
    const CreateShape shape{
        actions.value_or(-1),
        ad.value().get_integer(core::attrs::kIsosConnected).value_or(-1),
        ad.value().get_integer(core::attrs::kCloneLinks).value_or(-1)};
    if (r.shape.actions < 0) r.shape = shape;
    r.clone_bytes += static_cast<std::uint64_t>(
        ad.value().get_integer(core::attrs::kCloneBytesCopied).value_or(0));
    const bool good = vm_id.has_value() && !vm_id->empty() &&
                      plant.has_value() && !plant->empty() &&
                      actions == spec.expected_actions &&
                      shape.isos == r.shape.isos && shape.links == r.shape.links;
    if (!good) {
      ++r.bad_ads;
      violation("create " + cycle.request.request_id +
                ": classad lacks VMID/Plant or ActionsExecuted=" +
                std::to_string(actions.value_or(-1)) + " (expected " +
                std::to_string(spec.expected_actions) + ") or shape differs");
    }
    if (!vm_id.has_value()) return {perfbench::kFailed, perfbench::kFailed};

    const auto t1 = Clock::now();
    const util::Status destroyed = site.shop->destroy(*vm_id);
    const double destroy_ms = ms_since(t1);
    ++r.destroys_attempted;
    if (!destroyed.ok()) {
      ++r.destroys_failed;
      violation("destroy " + *vm_id + ": " + destroyed.error().to_string());
    }
    return {good ? create_ms : perfbench::kFailed,
            destroyed.ok() ? destroy_ms : perfbench::kFailed};
  };

  // The probe's own time is left out of the cycles' wall and CPU times.
  auto last_probe = Clock::now();
  const auto run_probe = [&] {
    const auto t0 = Clock::now();
    r.probe_ms.push_back(probe.run_ms());
    r.probe_pos.push_back(r.create_ms.size());
    last_probe = Clock::now();
    r.probe_total_ms +=
        std::chrono::duration<double, std::milli>(last_probe - t0).count();
  };
  run_probe();
  for (std::size_t i = begin; i < end; ++i) {
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_ms();
    if (before_cycle) before_cycle(i);
    const auto [create_ms, destroy_ms] = cycle_body(in.cycles[i]);
    r.create_ms.push_back(create_ms);
    r.destroy_ms.push_back(destroy_ms);
    r.cycle_ms.push_back(ms_since(t0));
    r.cycle_cpu_ms.push_back(process_cpu_ms() - cpu0);
    if (i + 1 == end || ms_since(last_probe) >= kProbeEveryMs) run_probe();
  }

  r.bus_calls = site.bus->calls_total() - calls_before;
  r.journal_records =
      (site.journal ? site.journal->appended() : 0) - records_before;
  return r;
}

/// Post-run invariants: clone directories empty, every host-only network
/// free, and on a lifecycle site the ledger equals the warehouse footprint.
std::vector<std::string> check_site(Site& site) {
  std::vector<std::string> problems;
  for (const auto& plant : site.plants) {
    auto entries = site.store->list_dir(plant->config().clone_base_dir);
    if (!entries.ok() || !entries.value().empty()) {
      problems.push_back(plant->name() + ": clone directory not empty");
    }
    if (plant->allocator().free_networks() !=
        plant->allocator().total_networks()) {
      problems.push_back(plant->name() + ": host-only network still held");
    }
  }
  if (site.lifecycle) {
    std::uint64_t total = 0;
    for (const lifecycle::ImageStats& st : site.lifecycle->stats()) {
      total += st.physical_bytes;
      auto footprint = site.store->tree_footprint("warehouse/" + st.id);
      if (st.zombie || !footprint.ok() ||
          footprint.value().physical_bytes != st.physical_bytes) {
        problems.push_back("ledger entry " + st.id +
                           " differs from its warehouse tree");
      }
    }
    if (total != site.lifecycle->used_bytes()) {
      problems.push_back("ledger total differs from used_bytes");
    }
  }
  return problems;
}

// ---------------------------------------------------------------------------
// Traced replay: the same requests through each layer's public functions
// ---------------------------------------------------------------------------

struct Acc {
  double sum = 0.0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

using Ledger = std::map<std::string, Acc>;

/// The create path's blocking layers, in create order; their means add up
/// to the ledger's account of one untraced create.
const char* const kCreateLayers[] = {
    "core.shop.bid_ms",        "net.roundtrip_us",
    "xml.request_render_us",   "xml.request_parse_us",
    "core.ppp.plan_ms",        "vnet.acquire_us",
    "hypervisor.load_scan_us", "hypervisor.clone_ms",
    "hypervisor.start_ms",     "core.production_line.configure_ms",
    "core.info_system.publish_us", "classad.roundtrip_us",
};

double layer_ms(const Ledger& ledger, const std::string& name) {
  auto it = ledger.find(name);
  if (it == ledger.end()) return 0.0;
  const double mean = it->second.mean();
  return name.ends_with("_us") ? mean / 1e3 : mean;
}

/// Hardware candidates the process's planners have classified so far: the
/// sum of the planner's match-kind counters.
std::uint64_t ppp_classified() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::instance();
  return r.counter("ppp.match_hit.count")->value() +
         r.counter("ppp.match_subset_fail.count")->value() +
         r.counter("ppp.match_prefix_fail.count")->value() +
         r.counter("ppp.match_order_fail.count")->value();
}

struct ReplayLayers {
  explicit ReplayLayers(Site& site)
      : hypervisor(site.store.get()),
        line(&hypervisor, "perfbench-replay/clones"),
        planner(site.warehouse.get()),
        allocator("perfbench-replay", core::PlantConfig{}.host_only_networks) {
    (void)site.store->make_dir("perfbench-replay/clones");
    if (site.lifecycle) hypervisor.set_lease_hook(site.lifecycle.get());
  }
  hv::GsxHypervisor hypervisor;
  core::ProductionLine line;
  core::ProductionProcessPlanner planner;
  vnet::NetworkAllocator allocator;
  core::VmInformationSystem info;
  core::VmMonitor monitor{&hypervisor, &info};
};

struct ReplayResult {
  Ledger ledger;
  std::size_t creates = 0, failures = 0;
  std::size_t requests = 0, hits = 0, publishes = 0, evictions = 0;
  std::uint64_t bus_calls = 0;  // the replay's own bids and echo calls
  std::vector<std::string> notes;
};

/// Replays cycle `i` through the layers.  In a traced run it precedes the
/// untraced shop cycle of the same request, so both see the same moment of
/// the run and the same site state.
void replay_cycle(const Inputs& in, Site& site, ReplayLayers& layers,
                  std::size_t i, ReplayResult& out) {
  Ledger& L = out.ledger;
  std::string failure;
  const Cycle& cycle = in.cycles[i];
  const core::CreateRequest& request = cycle.request;
  bool hit = true;
  std::size_t evicted = 0;
  std::uint64_t bus_calls = 0;
  [&] {
    if (cycle.publish_on_miss != nullptr &&
        !site.warehouse->contains(cycle.publish_on_miss->id)) {
      hit = false;
      const std::size_t size_before = site.warehouse->size();
      const auto t0 = Clock::now();
      const util::Status s = site.lifecycle->publish(*cycle.publish_on_miss);
      L["lifecycle.publish_ms"].add(ms_since(t0));
      if (!s.ok()) return void(failure = "publish: " + s.error().to_string());
      evicted = size_before + 1 - site.warehouse->size();
    }

    auto t0 = Clock::now();
    const std::vector<core::Bid> bids = site.shop->collect_bids(request);
    bus_calls += site.plants.size();
    L["core.shop.bid_ms"].add(ms_since(t0));
    if (bids.size() != site.plants.size()) {
      return void(failure = "bid: " + std::to_string(bids.size()) + " of " +
                            std::to_string(site.plants.size()) + " plants");
    }
    t0 = Clock::now();
    const auto cost = site.plants.front()->estimate(request);
    L["core.plant.estimate_us"].add(ms_since(t0) * 1e3);
    if (!cost.ok()) return void(failure = "estimate");

    // The create leg on the wire: render, round trip, plant-side parse.
    t0 = Clock::now();
    const std::string text = request.to_xml_string();
    L["xml.request_render_us"].add(ms_since(t0) * 1e3);
    net::Message m = net::Message::request("vmplant.estimate", "perfbench",
                                           kEchoAddress, request.request_id);
    request.to_xml(&m.body());
    t0 = Clock::now();
    const auto echoed = site.bus->call(m);
    L["net.roundtrip_us"].add(ms_since(t0) * 1e3);
    ++bus_calls;
    if (!echoed.ok()) return void(failure = "echo round trip");
    t0 = Clock::now();
    const auto parsed = core::CreateRequest::from_xml_string(text);
    L["xml.request_parse_us"].add(ms_since(t0) * 1e3);
    if (!parsed.ok()) return void(failure = "request parse");

    const std::uint64_t classified_before = ppp_classified();
    t0 = Clock::now();
    auto plan = layers.planner.plan(request);
    L["core.ppp.plan_ms"].add(ms_since(t0));
    const std::uint64_t classified = ppp_classified() - classified_before;
    if (!plan.ok()) return void(failure = "plan: " + plan.error().to_string());

    // Inside the plan (not summed): the warehouse's candidate scan, through
    // its public call with the request's action mask, and the DAG tests.
    // The planner classifies every hardware candidate once; a mask-pruned
    // one without a DAG evaluation, so the rest are its evaluations.
    {
      std::vector<std::string> signatures;
      for (const std::string& id : request.config.node_ids()) {
        signatures.push_back(request.config.action(id)->signature());
      }
      const std::uint64_t mask = request.config.signature_index().ok()
                                     ? warehouse::action_mask(signatures)
                                     : ~0ull;
      const auto scan = site.warehouse->match_candidates(
          kBackend,
          [&request](const warehouse::GoldenImage& image) {
            return request.hardware.satisfied_by(
                image.spec.os, image.spec.memory_bytes,
                image.spec.disk.capacity_bytes);
          },
          mask);
      L["warehouse.candidates_per_plan"].add(
          static_cast<double>(scan.candidates.size()));
      L["dag.matches_per_plan"].add(
          static_cast<double>(classified - scan.mask_rejected));
      // dag.match_us is timed by this loop, in candidate id order; it is
      // the benchmark's probe order, not the planner's.
      for (const warehouse::CandidateView& c : scan.candidates) {
        t0 = Clock::now();
        (void)dag::evaluate_match(request.config, c.performed);
        L["dag.match_us"].add(ms_since(t0) * 1e3);
      }
    }

    t0 = Clock::now();
    const auto network = layers.allocator.acquire(request.domain);
    L["vnet.acquire_us"].add(ms_since(t0) * 1e3);
    if (!network.ok()) return void(failure = "acquire");

    // The plant's load snapshot and capacity check before every clone:
    // two scans of active instances and one of resident memory.
    t0 = Clock::now();
    const std::size_t active = layers.hypervisor.active_instances();
    const std::uint64_t resident = layers.hypervisor.resident_memory_bytes();
    const bool at_capacity = layers.hypervisor.active_instances() >=
                             core::PlantConfig{}.max_vms;
    L["hypervisor.load_scan_us"].add(ms_since(t0) * 1e3);
    if (active != 0 || resident != 0 || at_capacity) {
      return void(failure = "replay hypervisor still holds a live VM");
    }

    const std::string vm_id = "replay-vm-" + std::to_string(i);
    hv::CloneSource source;
    source.layout = plan.value().golden.layout;
    source.spec = plan.value().golden.spec;
    source.guest = plan.value().golden.guest;
    source.golden_id = plan.value().golden.id;
    double sys0 = thread_sys_ms();
    t0 = Clock::now();
    const auto cloned = layers.hypervisor.clone_vm(
        source, "perfbench-replay/clones/" + vm_id, vm_id);
    L["hypervisor.clone_ms"].add(ms_since(t0));
    L["storage.clone_sys_ms"].add(thread_sys_ms() - sys0);
    if (!cloned.ok()) {
      (void)layers.allocator.release(request.domain);
      return void(failure = "clone: " + cloned.error().to_string());
    }
    const storage::IoAccounting io =
        layers.hypervisor.find(vm_id)->clone_report.total();
    L["storage.clone_bytes"].add(static_cast<double>(io.bytes_written));
    L["storage.clone_links"].add(static_cast<double>(io.links_created));

    t0 = Clock::now();
    const util::Status started = layers.hypervisor.start_vm(vm_id);
    L["hypervisor.start_ms"].add(ms_since(t0));

    sys0 = thread_sys_ms();
    t0 = Clock::now();
    auto produced =
        started.ok() ? layers.line.configure(plan.value(), request, vm_id,
                                             network.value())
                     : util::Result<core::ProductionResult>(started.error());
    L["core.production_line.configure_ms"].add(ms_since(t0));
    L["core.production_line.configure_sys_ms"].add(thread_sys_ms() - sys0);
    if (!produced.ok()) {
      (void)layers.hypervisor.destroy_vm(vm_id);
      (void)layers.allocator.release(request.domain);
      return void(failure = "configure: " + produced.error().to_string());
    }
    const core::ProductionResult& result = produced.value();
    L["core.production_line.isos_per_create"].add(
        static_cast<double>(result.isos_connected));
    L["core.production_line.guest_actions_per_create"].add(
        static_cast<double>(result.guest_actions_executed));

    // The response classad as the plant returns it, rendered and parsed.
    classad::ClassAd ad = result.ad;
    ad.set_string(core::attrs::kVmId, vm_id);
    ad.set_string(core::attrs::kPlant, "perfbench-replay");
    ad.set_string(core::attrs::kRequestId, request.request_id);
    ad.set_integer(core::attrs::kActionsExecuted,
                   static_cast<std::int64_t>(result.guest_actions_executed +
                                             result.host_actions_executed));
    // The plant records the ad in its information system and refreshes
    // its dynamic attributes before answering.
    t0 = Clock::now();
    layers.info.store(vm_id, ad);
    (void)layers.monitor.refresh(vm_id);
    const auto stored = layers.info.query(vm_id);
    L["core.info_system.publish_us"].add(ms_since(t0) * 1e3);
    if (!stored.ok()) failure = "information system lost " + vm_id;

    t0 = Clock::now();
    xml::Element body("body");
    ad.to_xml(&body);
    const auto root = xml::parse(body.to_string());
    const auto back = root.ok() ? classad::ClassAd::from_xml(*root.value())
                                : util::Result<classad::ClassAd>(root.error());
    L["classad.roundtrip_us"].add(ms_since(t0) * 1e3);
    if (!back.ok() ||
        back.value().get_integer(core::attrs::kActionsExecuted) !=
            in.spec->expected_actions) {
      failure = "classad round trip or ActionsExecuted";
    }

    sys0 = thread_sys_ms();
    t0 = Clock::now();
    const util::Status destroyed = layers.hypervisor.destroy_vm(vm_id);
    L["hypervisor.destroy_ms"].add(ms_since(t0));
    L["storage.destroy_sys_ms"].add(thread_sys_ms() - sys0);
    (void)layers.info.remove(vm_id);
    if (!destroyed.ok()) failure = "destroy: " + destroyed.error().to_string();
    if (!layers.allocator.release(request.domain).ok()) failure = "release";
  }();

  ++out.creates;
  out.bus_calls += bus_calls;
  if (cycle.publish_on_miss != nullptr) {
    ++out.requests;
    if (hit) {
      ++out.hits;
    } else {
      ++out.publishes;
      out.evictions += evicted;
    }
  }
  if (!failure.empty()) {
    ++out.failures;
    if (out.notes.size() < 5) out.notes.push_back(failure);
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string map_json(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : values) {
    if (!first) out += ", ";
    first = false;
    out += json_string(k) + ": " + json_number(v);
  }
  return out + "}";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  fs::path work_dir = ".bench_build/perfbench-run";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stoi(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else {
      die("unknown argument " + key);
    }
  }
  if (o.seconds < 1) die("--seconds must be at least 1");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_UNFIT_BUILD
  std::fprintf(stderr,
               "perfbench: refusing to report from an unoptimised or "
               "sanitizer build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  util::set_log_level(util::LogLevel::kError);
  const Options opt = parse_options(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) spec = &w;
  }
  if (spec == nullptr) die("unknown workload '" + opt.workload + "'");

  const auto timed_cycles = static_cast<std::size_t>(
      std::llround(spec->cycles_per_s * opt.seconds));
  const Inputs in = make_inputs(*spec, opt.seed, timed_cycles);

  const fs::path work_dir = fs::absolute(opt.work_dir);
  fs::create_directories(work_dir);
  (void)mount_private_tmpfs(work_dir);
  const std::string store_fs = fs_type_name(work_dir);
  // Figures from a disk-backed store are several times slower and far
  // noisier; they must never be compared with memory-backed ones.
  if (store_fs != "tmpfs" && store_fs != "ramfs") {
    die("refusing to report: the store at " + work_dir.string() + " is on " +
        store_fs + ", not a memory-backed filesystem (mounting a private "
        "tmpfs there needs CAP_SYS_ADMIN, or place the checkout on tmpfs)");
  }
  const fs::path run_root =
      work_dir / (opt.workload + "-" + std::to_string(::getpid()));
  fs::create_directories(run_root);
  const HostProbe probe(run_root / "host-probe");

  // kRounds rounds, each on a fresh site: set-up (build the site, publish
  // goldens, warm up until caches are filled; timed for setup_s), then the
  // round's share of the timed cycles.  In a traced run each request is
  // replayed through the layers just before its untraced shop cycle.
  std::vector<double> setup_s, late_early, scan_us, appends_us;
  std::vector<double> create_ms;  // untraced wall times, for the ledger
  std::vector<double> scaled_create_ms, scaled_destroy_ms, scaled_publish_ms,
      host_scale;
  double scaled_wall_ms = 0.0, scaled_cpu_ms = 0.0;
  std::vector<std::string> problems;
  std::size_t attempted = 0, failed = 0, retained = 0;
  std::size_t requests = 0, hits = 0, publishes = 0, evictions = 0;
  std::uint64_t bus_calls = 0, journal_records = 0, clone_bytes = 0;
  CreateShape shape;
  ReplayResult rep;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Set-up is scaled by the median of a probe just before it and the
    // probes of its warm-up cycles.
    std::vector<double> setup_probes = {probe.run_ms()};
    const auto t0 = Clock::now();
    auto site = build_site(in, run_root / "store");
    const LoopResult warm = run_loop(in, *site, probe, 0, in.warmup);
    const double setup_ms = ms_since(t0) - warm.probe_total_ms;
    setup_probes.insert(setup_probes.end(), warm.probe_ms.begin(),
                        warm.probe_ms.end());
    setup_s.push_back(setup_ms / 1e3 * kProbeNominalMs /
                      perfbench::median(setup_probes));
    if (warm.violations != 0) problems.push_back("warm-up cycles failed");

    std::unique_ptr<ReplayLayers> layers;
    std::function<void(std::size_t)> before_cycle;
    if (opt.trace) {
      check_ok(site->bus->register_endpoint(
                   kEchoAddress,
                   [](const net::Message& m) {
                     net::Message response = net::Message::response_to(m);
                     response.body().add_child("bid").set_attr("cost", "1");
                     return response;
                   }),
               "register echo endpoint");
      layers = std::make_unique<ReplayLayers>(*site);
      before_cycle = [&](std::size_t i) {
        replay_cycle(in, *site, *layers, i, rep);
      };
    }
    const std::size_t begin = in.warmup + round * timed_cycles / kRounds;
    const std::size_t end = in.warmup + (round + 1) * timed_cycles / kRounds;
    const LoopResult loop = run_loop(in, *site, probe, begin, end, before_cycle);

    for (const std::string& p : check_site(*site)) problems.push_back(p);
    for (const std::string& note : loop.violation_notes) problems.push_back(note);
    if (layers) {
      auto clones = site->store->list_dir("perfbench-replay/clones");
      if (!clones.ok() || !clones.value().empty()) {
        problems.push_back("replay clone directory not empty");
      }
      if (layers->allocator.free_networks() !=
          layers->allocator.total_networks()) {
        problems.push_back("replay host-only network still held");
      }
    }

    const std::vector<double> scale = perfbench::cycle_scale(
        loop.probe_pos, loop.probe_ms, loop.create_ms.size(), kProbeNominalMs);
    std::vector<double> round_create_ms;
    for (std::size_t i = 0; i < scale.size(); ++i) {
      round_create_ms.push_back(loop.create_ms[i] * scale[i]);
      scaled_destroy_ms.push_back(loop.destroy_ms[i] * scale[i]);
      scaled_wall_ms += loop.cycle_ms[i] * scale[i];
      scaled_cpu_ms += loop.cycle_cpu_ms[i] * scale[i];
    }
    for (std::size_t k = 0; k < loop.publish_ms.size(); ++k) {
      scaled_publish_ms.push_back(loop.publish_ms[k] *
                                  scale[loop.publish_cycle[k]]);
    }
    late_early.push_back(perfbench::late_early_ratio(round_create_ms));
    scaled_create_ms.insert(scaled_create_ms.end(), round_create_ms.begin(),
                            round_create_ms.end());
    host_scale.insert(host_scale.end(), scale.begin(), scale.end());
    create_ms.insert(create_ms.end(), loop.create_ms.begin(), loop.create_ms.end());

    attempted += (end - begin) + loop.destroys_attempted +
                 loop.publishes_attempted;
    failed += loop.creates_failed + loop.bad_ads + loop.destroys_failed +
              loop.publishes_failed;
    requests += loop.requests;
    hits += loop.hits;
    publishes += loop.publishes_attempted;
    evictions += loop.evictions;
    bus_calls += loop.bus_calls;
    journal_records += loop.journal_records;
    clone_bytes += loop.clone_bytes;
    if (shape.actions < 0) shape = loop.shape;
    if (loop.shape.actions != shape.actions || loop.shape.isos != shape.isos ||
        loop.shape.links != shape.links) {
      problems.push_back("create shape differs between rounds");
    }

    core::VmPlant* busiest = site->plants.front().get();
    for (const auto& plant : site->plants) {
      retained += plant->hypervisor().instance_count() -
                  plant->hypervisor().active_instances();
      if (plant->hypervisor().instance_count() >
          busiest->hypervisor().instance_count()) {
        busiest = plant.get();
      }
    }
    if (opt.trace) {
      for (int k = 0; k < 101; ++k) {
        const auto s0 = Clock::now();
        (void)busiest->hypervisor().active_instances();
        scan_us.push_back(ms_since(s0) * 1e3);
      }
      for (int k = 0; site->journal && k < 1000; ++k) {
        const auto a0 = Clock::now();
        site->journal->append(obs::JournalEvent::kLeaseRelease,
                              "perfbench-probe");
        appends_us.push_back(ms_since(a0) * 1e3);
      }
    }
    layers.reset();
  }
  attempted += rep.creates + rep.publishes;
  failed += rep.failures;
  for (const std::string& note : rep.notes) problems.push_back("replay: " + note);

  const double cycles = static_cast<double>(timed_cycles);
  const bool lifecycle_site = spec->kind == Kind::kPublishChurn;
  // In a traced run the replay publishes first, so the lifecycle counts are
  // the replay's.
  if (opt.trace) {
    requests = rep.requests;
    hits = rep.hits;
    publishes = rep.publishes;
    evictions = rep.evictions;
  }

  // Counts that must repeat exactly across runs of one seed; run.py keeps
  // them per workload, seed, --seconds, trace mode and program build.
  std::map<std::string, double> exact;
  exact["net.calls_per_cycle"] =
      static_cast<double>(bus_calls - rep.bus_calls) / cycles;
  exact["create.actions_executed"] = static_cast<double>(shape.actions);
  exact["create.isos_connected"] = static_cast<double>(shape.isos);
  exact["create.clone_links"] = static_cast<double>(shape.links);
  exact["create.clone_bytes"] = static_cast<double>(clone_bytes) / cycles;
  exact["hypervisor.retained_instances"] = static_cast<double>(retained);
  if (lifecycle_site) {
    exact["lifecycle.hit_ratio"] =
        static_cast<double>(hits) / static_cast<double>(requests);
    exact["lifecycle.evictions"] = static_cast<double>(evictions);
    exact["obs.journal.records_per_create"] =
        static_cast<double>(journal_records) /
        (cycles + static_cast<double>(rep.creates));
  }

  std::vector<Metric> metrics;
  std::map<std::string, double> detail;
  if (!opt.trace) {
    const auto create_p95 = perfbench::percentile(scaled_create_ms, 0.95);
    const auto publish_p50 = perfbench::percentile(scaled_publish_ms, 0.5);
    metrics = {
        {"creates_per_s", cycles / (scaled_wall_ms / 1e3), "1/s"},
        {"create_p50_ms", perfbench::percentile(scaled_create_ms, 0.5).value,
         "ms"},
        {"create_p95_ms", create_p95.value, "ms"},
        {"destroy_p50_ms", perfbench::percentile(scaled_destroy_ms, 0.5).value,
         "ms"},
        {"cpu_ms_per_create", scaled_cpu_ms / cycles, "ms"},
        {"setup_s", perfbench::median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    detail["create_p95_samples"] = static_cast<double>(create_p95.samples);
    detail["create_p95_beyond"] = static_cast<double>(create_p95.beyond);
    detail["publish_p50_ms"] = publish_p50.value;
    detail["publish_samples"] = static_cast<double>(publish_p50.samples);
    for (std::size_t r = 0; r < setup_s.size(); ++r) {
      detail["setup_s." + std::to_string(r)] = setup_s[r];
    }
    detail["host_scale_median"] = perfbench::median(host_scale);
  } else {
    const Ledger& L = rep.ledger;
    const auto mean_of = [&](const std::string& name) {
      auto it = L.find(name);
      return it == L.end() ? 0.0 : it->second.mean();
    };
    std::vector<double> layer_means;
    for (const char* name : kCreateLayers) layer_means.push_back(layer_ms(L, name));
    std::vector<double> successes;
    for (const double v : create_ms) {
      if (std::isfinite(v)) successes.push_back(v);
    }
    const double untraced_mean = perfbench::mean(successes);

    metrics = {
        {"core.shop.bid_ms", mean_of("core.shop.bid_ms"), "ms"},
        {"net.calls_per_create", exact["net.calls_per_cycle"], "count"},
        {"net.roundtrip_us", mean_of("net.roundtrip_us"), "us"},
        {"xml.request_render_us", mean_of("xml.request_render_us"), "us"},
        {"xml.request_parse_us", mean_of("xml.request_parse_us"), "us"},
        {"core.plant.estimate_us", mean_of("core.plant.estimate_us"), "us"},
        {"core.ppp.plan_ms", mean_of("core.ppp.plan_ms"), "ms"},
        {"warehouse.candidates_per_plan",
         mean_of("warehouse.candidates_per_plan"), "count"},
        {"dag.match_us", mean_of("dag.match_us"), "us"},
        {"dag.matches_per_plan", mean_of("dag.matches_per_plan"), "count"},
        {"vnet.acquire_us", mean_of("vnet.acquire_us"), "us"},
        {"hypervisor.load_scan_us", mean_of("hypervisor.load_scan_us"), "us"},
        {"hypervisor.clone_ms", mean_of("hypervisor.clone_ms"), "ms"},
        {"hypervisor.start_ms", mean_of("hypervisor.start_ms"), "ms"},
        {"hypervisor.destroy_ms", mean_of("hypervisor.destroy_ms"), "ms"},
        {"storage.clone_bytes", mean_of("storage.clone_bytes"), "bytes"},
        {"storage.clone_links", mean_of("storage.clone_links"), "count"},
        {"storage.clone_sys_ms", mean_of("storage.clone_sys_ms"), "ms"},
        {"storage.destroy_sys_ms", mean_of("storage.destroy_sys_ms"), "ms"},
        {"core.production_line.configure_ms",
         mean_of("core.production_line.configure_ms"), "ms"},
        {"core.production_line.isos_per_create",
         mean_of("core.production_line.isos_per_create"), "count"},
        {"core.production_line.guest_actions_per_create",
         mean_of("core.production_line.guest_actions_per_create"), "count"},
        {"core.production_line.configure_sys_ms",
         mean_of("core.production_line.configure_sys_ms"), "ms"},
        {"core.info_system.publish_us", mean_of("core.info_system.publish_us"),
         "us"},
        {"hypervisor.retained_instances", static_cast<double>(retained),
         "count"},
        {"hypervisor.active_scan_us", perfbench::median(scan_us), "us"},
        {"core.plant.late_early_ratio", perfbench::median(late_early),
         "ratio"},
        {"classad.roundtrip_us", mean_of("classad.roundtrip_us"), "us"},
        {"lifecycle.publish_ms", mean_of("lifecycle.publish_ms"), "ms"},
        {"lifecycle.evictions_per_publish",
         publishes > 0 ? static_cast<double>(evictions) /
                             static_cast<double>(publishes)
                       : 0.0,
         "ratio"},
        {"lifecycle.hit_ratio",
         lifecycle_site ? exact["lifecycle.hit_ratio"] : 0.0, "ratio"},
        {"obs.journal.append_us", perfbench::mean(appends_us), "us"},
        {"obs.journal.records_per_create",
         lifecycle_site ? exact["obs.journal.records_per_create"] : 0.0,
         "count"},
        {"trace.unattributed_share",
         perfbench::unattributed_share(layer_means, untraced_mean), "share"},
    };
    exact["replay.isos_per_create"] =
        mean_of("core.production_line.isos_per_create");
    exact["replay.guest_actions_per_create"] =
        mean_of("core.production_line.guest_actions_per_create");
    exact["replay.clone_links"] = mean_of("storage.clone_links");
    exact["replay.clone_bytes"] = mean_of("storage.clone_bytes");
    exact["replay.candidates_per_plan"] =
        mean_of("warehouse.candidates_per_plan");
    exact["replay.matches_per_plan"] = mean_of("dag.matches_per_plan");
    detail["untraced_mean_create_ms"] = untraced_mean;
    for (std::size_t k = 0; k < std::size(kCreateLayers); ++k) {
      detail[std::string("ledger.") + kCreateLayers[k]] = layer_means[k];
    }
  }

  // Post-run invariant breaches count as failed operations too.
  for (const std::string& p : problems) {
    if (p.starts_with("create ") || p.starts_with("destroy ") ||
        p.starts_with("replay: ")) {
      continue;  // already counted with their operation
    }
    ++failed;
  }
  const bool correct = problems.empty() && failed == 0;
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: correctness: %s\n", p.c_str());
  }
  std::error_code ec;
  fs::remove_all(run_root, ec);

  std::map<std::string, double> env_numbers = {
      {"nproc", static_cast<double>(std::thread::hardware_concurrency())},
      {"seed", static_cast<double>(opt.seed)},
      {"clients", static_cast<double>(kClients)},
      {"cycles", cycles},
      {"rounds", static_cast<double>(kRounds)},
      {"warmup_cycles", static_cast<double>(in.warmup)},
  };
  std::string env = map_json(env_numbers);
  env.pop_back();
  env += ", \"workload\": " + json_string(spec->name) +
         ", \"store_fs\": " + json_string(store_fs) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) + "}";

  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s, \"exact\": %s, \"detail\": %s, \"env\": %s}\n",
      correct ? "true" : "false", attempted, failed,
      metrics_json(metrics).c_str(), map_json(exact).c_str(),
      map_json(detail).c_str(), env.c_str());
  return correct ? 0 : 1;
}
