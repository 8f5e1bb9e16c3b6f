#include "common.h"

#include <sys/vfs.h>

#include <cstdio>

#include "net/bus.h"

namespace vmp::bench {

util::Summary SeriesResult::creation_summary() const {
  util::Summary s;
  for (const auto& sample : samples) s.add(sample.timing.total_sec);
  return s;
}

util::Summary SeriesResult::cloning_summary() const {
  util::Summary s;
  for (const auto& sample : samples) s.add(sample.timing.clone_sec);
  return s;
}

std::vector<SeriesResult> run_paper_experiment(
    const PaperExperimentConfig& config) {
  std::vector<SeriesResult> results;
  for (const auto& [memory_mb, count] : config.series) {
    cluster::DeploymentConfig dc;
    dc.plant_count = config.plant_count;
    dc.seed = config.seed ^ memory_mb;
    cluster::SimulatedDeployment site(dc);
    if (!workload::publish_paper_goldens(&site.warehouse()).ok()) continue;

    SeriesResult series;
    series.memory_mb = memory_mb;
    series.samples = site.run_sequence(
        workload::workspace_requests(memory_mb, count, "acis.ufl.edu"));
    results.push_back(std::move(series));
  }
  return results;
}

void print_histogram(const std::string& label, const util::Histogram& h) {
  std::printf("# %s\n", label.c_str());
  std::printf("%-12s %8s %12s\n", "bin_center_s", "count", "normalized");
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    std::printf("%-12.0f %8zu %12.3f\n", h.bin_center(i), h.count_at(i),
                h.normalized(i));
  }
  std::printf("\n");
}

void print_header(const std::string& artefact, const std::string& paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artefact.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================\n\n");
}

void print_summary_row(const std::string& name, const std::string& paper,
                       const std::string& measured) {
  std::printf("SUMMARY %-32s paper=[%s] measured=[%s]\n", name.c_str(),
              paper.c_str(), measured.c_str());
}

std::string fs_type_name(const std::filesystem::path& path) {
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

void print_store_fs(const std::filesystem::path& store) {
  std::printf("BENCH_JSON {\"name\": \"store.fs\", \"fs\": \"%s\"}\n",
              fs_type_name(store).c_str());
}

void print_fan_out_helpers(const std::string& row, std::size_t legs) {
  const std::size_t pool = net::MessageBus::helper_threads();
  std::printf("BENCH_JSON {\"name\": \"%s.helpers\", \"helpers\": %zu, "
              "\"pool\": %zu}\n",
              row.c_str(), net::MessageBus::helpers_to_wake(legs, pool), pool);
}

}  // namespace vmp::bench
