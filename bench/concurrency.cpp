// Concurrent VM creation — the DES projection and the real pipeline.
//
// The paper's experiments are strictly sequential and §4.3 closes with
// "latency-hiding optimizations such as speculative pre-creation of VMs
// can be conceived, but have not yet been investigated."  Two measurements
// here:
//
//   1. The DES projection: a burst of real creations through the paper's
//      8-plant SimulatedDeployment with a window of them in flight.  They
//      share the warehouse's NFS uplink (processor sharing) and queue for
//      their plant's resume, showing throughput gains flattening as the
//      shared link saturates while individual clones stretch.
//
//   2. The real thing: N client threads drive shop.create end to end
//      (bid, clone, resume, configure, destroy) against one plant, once
//      with the pre-§10 serialized production line and once with the
//      concurrent pipeline (DESIGN.md §10).  The golden image's memory
//      checkpoint is rewritten with incompressible bytes so every clone
//      pays a real copy, not a sparse-file fast path.
//
// Each pipeline measurement emits one machine-readable line
//   BENCH_JSON {"name": "create.pipeline.c16", "throughput_vm_s": ..., ...}
// consumed by tools/bench_gate.py, which fails CI when throughput regresses
// against bench/baselines/concurrency.json or the 16-client speedup over
// the serialized baseline drops below 2x (on hosts with >= 4 cores).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cluster/deployment.h"
#include "common.h"
#include "core/plant.h"
#include "core/shop.h"
#include "net/bus.h"
#include "obs/tail.h"
#include "workload/request_gen.h"

namespace {

using namespace vmp;

constexpr std::size_t kTotalCreates = 64;  // per run, split across clients
constexpr std::size_t kMemoryPayloadBytes = 4ull << 20;

struct RunResult {
  double throughput_vm_s = 0.0;
  std::size_t failures = 0;
};

/// Drive `clients` threads of create+destroy through a one-plant shop.
/// `serialize` selects the pre-§10 baseline (one production order at a
/// time); otherwise the concurrent pipeline runs with a 16-worker pool.
/// `wire` selects the bus encoding — XML (paper default) or the binary
/// codec (net/codec.h), so the end-to-end impact of the wire format is a
/// measured row, not an extrapolation from the microbenchmark.
RunResult run_pipeline(bool serialize, std::size_t clients,
                       net::WireFormat wire = net::WireFormat::kXml) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("vmp-bench-conc-" + std::to_string(::getpid()) + "-" +
       (serialize ? std::string("serial") : std::string("pipeline")) + "-" +
       net::wire_format_name(wire) + "-c" + std::to_string(clients));
  std::filesystem::remove_all(root);

  RunResult result;
  {
    storage::ArtifactStore store(root);
    warehouse::Warehouse wh(&store, "warehouse");
    if (!workload::publish_paper_goldens(&wh, {32}).ok()) {
      result.failures = kTotalCreates;
      return result;
    }
    // Defeat the sparse-file fast path: every clone must copy these bytes.
    std::string payload(kMemoryPayloadBytes, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<char>((i * 31 + 7) & 0xff);
    }
    (void)store.write_file("warehouse/golden-32mb/memory.vmss", payload);

    // Bus and registry outlive the plant (its destructor detaches).
    net::MessageBus bus{net::BusConfig{wire}};
    net::ServiceRegistry registry;
    core::PlantConfig plant_config;
    plant_config.name = "plant0";
    plant_config.serialize_creates = serialize;
    plant_config.worker_threads = serialize ? 1 : 16;
    core::VmPlant plant(plant_config, &store, &wh);
    if (!plant.attach_to_bus(&bus, &registry).ok()) {
      result.failures = kTotalCreates;
      return result;
    }
    core::VmShop shop(core::ShopConfig{}, &bus, &registry);
    (void)shop.attach_to_bus();

    const std::size_t per_client = kTotalCreates / clients;
    std::atomic<std::size_t> failures{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (std::size_t k = 0; k < per_client; ++k) {
          const std::size_t index = c * per_client + k;
          auto ad = shop.create(
              workload::workspace_request(32, index, "bench.grid"));
          if (!ad.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          const auto vm_id = ad.value().get_string(core::attrs::kVmId);
          if (!vm_id.has_value() || !shop.destroy(*vm_id).ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    const auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    result.throughput_vm_s =
        elapsed > 0.0 ? static_cast<double>(per_client * clients) / elapsed
                      : 0.0;
    result.failures = failures.load();
  }
  std::filesystem::remove_all(root);
  return result;
}

void report_pipeline(const char* mode, std::size_t clients,
                     const RunResult& run) {
  std::printf("%-10s %8zu %18.1f %10zu\n", mode, clients,
              run.throughput_vm_s, run.failures);
  std::printf("BENCH_JSON {\"name\": \"create.%s.c%zu\", "
              "\"throughput_vm_s\": %.2f, \"clients\": %zu, "
              "\"failures\": %zu, \"cores\": %u}\n",
              mode, clients, run.throughput_vm_s, clients, run.failures,
              std::thread::hardware_concurrency());
}

}  // namespace

int main() {
  // Forensics hook for the CI bench gate: with VMP_TAIL_EXEMPLAR_DIR set,
  // tail-sample the real-pipeline creates and leave the retained slow-tail
  // span trees on disk, so a failed gate run uploads the traces that
  // explain its own regression (DESIGN.md §14).
  const char* exemplar_dir = std::getenv("VMP_TAIL_EXEMPLAR_DIR");
  if (exemplar_dir != nullptr) obs::TailSampler::instance().arm();

  bench::print_header(
      "concurrent creation — DES projection and the real pipeline",
      "future work in the paper: quantify the shared-NFS bottleneck, then "
      "measure the §10 concurrent create path against the serialized one");

  // ---- 1. DES projection ----------------------------------------------------
  // A burst of 64 MB workspace creations through the real shop and plants,
  // timed by the same TimingModel as Figs 4-6; a fresh deployment per
  // window so every row starts from empty plants.
  const auto burst = workload::workspace_requests(64, 64, "bench.grid");

  std::printf("%-8s %12s %14s %16s %14s\n", "window", "makespan_s",
              "mean_clone_s", "throughput_vm_s", "nfs_util_%");

  std::size_t total_failures = 0;
  double serial_makespan = 0.0;
  double best_makespan = 1e18;
  for (const std::size_t window : {1, 2, 4, 8, 16, 32, 64}) {
    cluster::DeploymentConfig config;
    config.seed = 11;
    cluster::SimulatedDeployment site(config);
    if (!workload::publish_paper_goldens(&site.warehouse(), {64}).ok()) {
      total_failures += burst.size();
      continue;
    }
    const auto samples = site.run_sequence(burst, false, window);
    total_failures += burst.size() - samples.size();

    util::Summary clone;
    for (const auto& sample : samples) clone.add(sample.timing.clone_sec);
    const double makespan = site.sim_now();
    const double throughput = samples.size() / makespan;
    const double nfs_util = site.nfs_bytes_moved() /
                            (config.timing.nfs_copy_bytes_per_sec * makespan);

    std::printf("%-8zu %12.0f %14.1f %16.3f %14.1f\n", window, makespan,
                clone.mean(), throughput, nfs_util * 100.0);
    if (window == 1) serial_makespan = makespan;
    best_makespan = std::min(best_makespan, makespan);
  }

  // ---- 2. Real pipeline: serialized vs concurrent ---------------------------
  std::printf("\n%-10s %8s %18s %10s\n", "mode", "clients", "throughput_vm_s",
              "failures");

  double serial_c16 = 0.0;
  double pipeline_c16 = 0.0;
  for (const bool serialize : {true, false}) {
    for (const std::size_t clients : {1, 4, 16}) {
      const RunResult run = run_pipeline(serialize, clients);
      report_pipeline(serialize ? "serial" : "pipeline", clients, run);
      total_failures += run.failures;
      if (clients == 16) {
        (serialize ? serial_c16 : pipeline_c16) = run.throughput_vm_s;
      }
    }
  }

  // Binary-bus ablation: the same concurrent pipeline with every bus hop
  // on the compact binary codec.  Reported but not throughput-gated — the
  // end-to-end number is clone-I/O dominated; the wire-level speedup gate
  // lives in micro_core's codec rows.
  const RunResult binbus = run_pipeline(false, 16, net::WireFormat::kBinary);
  report_pipeline("pipeline-binbus", 16, binbus);
  total_failures += binbus.failures;

  const double speedup = serial_c16 > 0.0 ? pipeline_c16 / serial_c16 : 0.0;
  std::printf("BENCH_JSON {\"name\": \"create.speedup.c16\", "
              "\"speedup\": %.2f, \"cores\": %u}\n",
              speedup, std::thread::hardware_concurrency());

  std::printf("\n");
  char measured[96];
  std::snprintf(measured, sizeof measured, "%.1fx makespan reduction",
                serial_makespan / best_makespan);
  bench::print_summary_row("concurrency.speedup(des)",
                           "untested in the paper (future work)", measured);
  std::snprintf(measured, sizeof measured, "%.2fx at 16 clients", speedup);
  bench::print_summary_row("concurrency.speedup(real)",
                           "concurrent pipeline vs serialized baseline",
                           measured);
  bench::print_summary_row(
      "concurrency.bottleneck",
      "NFS uplink saturates; per-clone latency grows with window",
      "see nfs_util column");

  if (exemplar_dir != nullptr) {
    const std::size_t written =
        obs::TailSampler::instance().dump(exemplar_dir);
    std::printf("tail exemplars: %zu dumped to %s\n", written, exemplar_dir);
    obs::TailSampler::instance().disarm();
  }

  if (total_failures != 0) {
    std::printf("FAILED: %zu creations failed\n", total_failures);
    return 1;
  }
  return 0;
}
