// Observability tour: arm the tracer, create a VM through the shop, and
// inspect everything the observability plane captured —
//   * the span tree of the creation (bid -> match -> clone -> configure ->
//     attach), printed as an indented tree with per-span latencies,
//   * the metrics registry dump (counters / gauges / timers),
//   * the obs:// classads a monitor sweep publishes into the VM
//     Information System,
//   * a JSONL trace file for `vmp_inspect trace`.
//
// Build & run:  ./build/examples/observability_tour
#include <cstdio>
#include <filesystem>

#include "core/info_system.h"
#include "core/plant.h"
#include "core/shop.h"
#include "dag/dag.h"
#include "net/bus.h"
#include "net/registry.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/artifact_store.h"
#include "warehouse/warehouse.h"
#include "workload/request_gen.h"

namespace {

void print_tree(const std::vector<vmp::obs::Span>& spans,
                const std::map<std::uint64_t,
                               std::vector<const vmp::obs::Span*>>& children,
                const vmp::obs::Span& span, int depth) {
  std::printf("  %*s%-20s %-16s %8.3f ms  %s\n", depth * 2, "",
              span.name.c_str(), span.component.c_str(),
              span.duration_s() * 1e3, span.status.c_str());
  auto it = children.find(span.span_id);
  if (it == children.end()) return;
  for (const vmp::obs::Span* child : it->second) {
    print_tree(spans, children, *child, depth + 1);
  }
}

}  // namespace

int main() {
  using namespace vmp;

  const auto sandbox =
      std::filesystem::temp_directory_path() / "vmplants-obs-tour";
  std::filesystem::remove_all(sandbox);
  storage::ArtifactStore store(sandbox);
  warehouse::Warehouse wh(&store, "warehouse");
  if (!workload::publish_paper_goldens(&wh).ok()) return 1;

  net::MessageBus bus;
  net::ServiceRegistry registry;
  core::PlantConfig plant_config;
  plant_config.name = "plant0";
  core::VmPlant plant(plant_config, &store, &wh);
  (void)plant.attach_to_bus(&bus, &registry);
  core::VmShop shop(core::ShopConfig{}, &bus, &registry);
  (void)shop.attach_to_bus();

  // 1. Arm the tracer (clears any previous spans) and create a VM.  Every
  //    hop of the request — shop, bus, planner, production line, vnet —
  //    contributes spans to one trace.  A virtual clock (each read advances
  //    0.1 ms, the same mechanism the DES engine uses) keeps the printed
  //    latencies identical across runs.
  obs::Tracer::instance().set_clock([] {
    static double t = 0.0;
    return t += 0.0001;
  });
  obs::Tracer::instance().arm();
  auto ad = shop.create(workload::workspace_request(64, 0, "example.org"));
  if (!ad.ok()) {
    std::fprintf(stderr, "create failed: %s\n", ad.error().to_string().c_str());
    return 1;
  }
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();
  std::printf("created %s\n\n", vm_id.c_str());

  // 2. The span tree of the creation.
  const auto trace_ids = obs::Tracer::instance().trace_ids();
  for (const std::string& trace_id : trace_ids) {
    auto spans = obs::Tracer::instance().trace(trace_id);
    std::printf("trace %s (%zu spans):\n", trace_id.c_str(), spans.size());
    const auto children = obs::span_children(spans);
    if (const obs::Span* root = obs::find_root(spans)) {
      print_tree(spans, children, *root, 0);
    }
  }

  // 3. The metrics dump: what the whole pipeline counted along the way.
  //    Timers are listed by sample count only — their latencies are wall
  //    time and would differ from run to run.
  auto snapshot = obs::MetricsRegistry::instance().snapshot();
  auto counts_only = snapshot;
  counts_only.timers.clear();
  std::printf("\nmetrics:\n%s", obs::render_metrics_text(counts_only).c_str());
  std::printf("timers (wall latencies vary; sample counts shown):\n");
  for (const auto& [name, stats] : snapshot.timers) {
    std::printf("  %-40s n=%zu\n", name.c_str(), stats.count);
  }

  // 4. A monitor sweep publishes the same data as classads under reserved
  //    obs:// ids in the plant's VM Information System.
  core::VmMonitor monitor(&plant.hypervisor(), &plant.info_system());
  monitor.enable_obs_export();
  monitor.refresh_all();
  auto metrics_ad = plant.info_system().query(core::kObsMetricsId);
  auto trace_ad = plant.info_system().query(core::kObsTracePrefix + vm_id);
  if (metrics_ad.ok() && trace_ad.ok()) {
    std::printf("\nobs://metrics has %zu attributes; obs://trace/%s:\n%s\n",
                metrics_ad.value().size(), vm_id.c_str(),
                trace_ad.value().to_string().c_str());
  }

  // 5. Drain the trace to JSONL for offline analysis:
  //    build/tools/vmp_inspect trace /tmp/vmplants-obs-tour-trace.jsonl
  const auto jsonl = std::filesystem::temp_directory_path() /
                     "vmplants-obs-tour-trace.jsonl";
  std::filesystem::remove(jsonl);
  if (obs::Tracer::instance().write_jsonl(jsonl.string())) {
    std::printf("wrote %zu spans to %s\n",
                obs::Tracer::instance().span_count(), jsonl.string().c_str());
  }

  (void)shop.destroy(vm_id);
  obs::Tracer::instance().disarm();
  std::filesystem::remove_all(sandbox);
  return 0;
}
