// On-disk layout of a VM image (golden or clone).
//
// Mirrors the prototype's warehouse layout (paper Section 4.1): "Golden
// machines are stored as files in sub-directories of the VM Warehouse; each
// golden machine is specified by a configuration file, and virtual disk and
// memory files."  A suspended image additionally has a memory-state file
// (VMware's .vmss) whose size equals the VM's configured memory — this is
// the file the production line must physically copy per clone, and the
// reason larger-memory VMs clone slower (Figures 4-6).
//
//   <dir>/
//     machine.cfg        -- config file (key=value, VMX-like)
//     memory.vmss        -- suspended memory state (sparse, mem_bytes)
//     disk0-s001.vmdk .. -- base disk spans (sparse)
//     disk0.redo         -- base redo log (small)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/artifact_store.h"
#include "storage/disk.h"
#include "util/error.h"

namespace vmp::storage {

/// Hardware-level description of an image (what the PPP matches before
/// looking at DAG actions).
struct MachineSpec {
  std::string os;                  // "linux-mandrake-8.1"
  std::uint64_t memory_bytes = 0;  // suspended state size == this
  DiskSpec disk;
  /// True when the image is a suspended checkpoint (resume instead of boot).
  bool suspended = true;

  util::Status validate() const;
};

/// Artefact paths of one image directory (all relative to an ArtifactStore).
struct ImageLayout {
  /// File name of the suspended memory state inside an image directory.
  static constexpr const char* kMemoryFile = "memory.vmss";

  std::string dir;  // e.g. "warehouse/golden-32mb"

  std::string config_path() const { return dir + "/machine.cfg"; }
  std::string memory_path() const { return dir + "/" + kMemoryFile; }
  std::string base_redo_path(const DiskSpec& disk) const {
    return dir + "/" + disk.redo_file_name();
  }
  std::vector<std::string> span_paths(const DiskSpec& disk) const;
};

/// Materialize a fresh image directory: config file, sparse memory state
/// (when suspended), sparse disk spans, empty base redo log.  Returns the
/// total accounting (dominated by the sparse sizes, which the simulation
/// charges as if they were real).
util::Result<IoAccounting> materialize_image(ArtifactStore* store,
                                             const ImageLayout& layout,
                                             const MachineSpec& spec);

/// Serialize/parse the config file (key=value lines).
std::string render_machine_config(const MachineSpec& spec);
util::Result<MachineSpec> parse_machine_config(const std::string& text);

}  // namespace vmp::storage
