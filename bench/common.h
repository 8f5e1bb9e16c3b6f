// Shared machinery for the figure/table reproduction benches.
//
// Every bench binary prints:
//   * a header naming the paper artefact it regenerates,
//   * the same rows/series the paper reports,
//   * a "paper vs measured" summary for EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/deployment.h"
#include "util/stats.h"
#include "workload/request_gen.h"

namespace vmp::bench {

/// The paper's §4.2 experiment: an 8-plant site serving sequential In-VIGO
/// workspace requests from one client domain.
struct PaperExperimentConfig {
  std::size_t plant_count = 8;
  std::uint64_t seed = 2004;
  /// (memory_mb, request_count) series; defaults to the paper's
  /// 128x32MB, 128x64MB, 40x256MB.
  std::vector<std::pair<std::uint32_t, std::size_t>> series = {
      {32, 128}, {64, 128}, {256, 40}};
};

struct SeriesResult {
  std::uint32_t memory_mb = 0;
  std::vector<cluster::CreationSample> samples;

  util::Summary creation_summary() const;
  util::Summary cloning_summary() const;
};

/// Run the full experiment.  Each memory series runs against a FRESH site
/// (as the paper did: separate experiment runs), with golden machines
/// published from workload::publish_paper_goldens.
std::vector<SeriesResult> run_paper_experiment(const PaperExperimentConfig& config);

/// Print a normalized-frequency histogram in the paper's format.
void print_histogram(const std::string& label, const util::Histogram& h);

/// Standard bench header/footer.
void print_header(const std::string& artefact, const std::string& paper_claim);
void print_summary_row(const std::string& name, const std::string& paper,
                       const std::string& measured);

/// The type of the file system holding `path`, from its statfs magic
/// number: "tmpfs", "ramfs", "ext4", ...; "0x<magic>" for others and
/// "unknown" when statfs fails.
std::string fs_type_name(const std::filesystem::path& path);

/// Prints the BENCH_JSON row naming the file system of the bench's
/// artefact store (`name` "store.fs"); tools/bench_gate.py refuses a
/// result whose store is not memory-backed, since a disk-backed one
/// measures the disk rather than the program.
void print_store_fs(const std::filesystem::path& store);

/// Prints the BENCH_JSON row naming the helper threads a fan-out to `legs`
/// destinations woke for the measurement `row` (`name` "<row>.helpers",
/// with the bus's pool size): the figure depends on the host's cores.
void print_fan_out_helpers(const std::string& row, std::size_t legs);

}  // namespace vmp::bench
