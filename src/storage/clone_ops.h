// Cloning mechanics: link-based clone vs full copy.
//
// Paper, Section 4.1: "the Production Line uses soft links for the virtual
// hard disk, and replicates the VM configuration file, memory state, and
// base redo log for each clone."  Section 4.3 quantifies the alternative:
// fully copying the 2 GB / 16-file golden disk takes 210 s, about 4x the
// average cloning time of even the largest (256 MB) VM.
//
// Both strategies are implemented here against the ArtifactStore; the
// returned accounting feeds the cluster timing model, which is what turns
// "bytes copied vs links created" into the paper's latency gap.
#pragma once

#include "storage/artifact_store.h"
#include "storage/image_layout.h"
#include "util/error.h"

namespace vmp::storage {

enum class CloneStrategy {
  kLinked,    // symlink disk spans; copy config + memory + base redo
  kFullCopy,  // copy every artefact (the paper's slow baseline)
};

const char* clone_strategy_name(CloneStrategy strategy) noexcept;

/// Breakdown of one clone operation, for benches and the timing model.
struct CloneReport {
  IoAccounting config;  // machine.cfg replica
  IoAccounting memory;  // memory.vmss copy (empty for booted images)
  IoAccounting disk;    // spans: links or copies
  IoAccounting redo;    // base redo log replica

  IoAccounting total() const;
};

/// Clone `golden` into `clone_dir`.  The golden image directory must have
/// been materialized (materialize_image) or published by a plant.
/// Persistent-mode disks refuse the linked strategy: their base files would
/// be written by the clone, corrupting the golden image.
util::Result<CloneReport> clone_image(ArtifactStore* store,
                                      const ImageLayout& golden,
                                      const MachineSpec& spec,
                                      const std::string& clone_dir,
                                      CloneStrategy strategy);

/// Remove a clone directory (collecting a VM).  Returns the removal
/// accounting (symlink-aware bytes freed — a linked clone frees only its
/// private replicas, never the golden spans its links point at).  Whether a
/// directory contains non-symlink disk spans that other clones link to is
/// not tracked here; plants only ever pass their own clone directories.
/// The clone's private memory.vmss retires into the store's spare pool
/// when it qualifies (ArtifactStore::remove_tree); it counts as freed.
util::Result<IoAccounting> destroy_clone(ArtifactStore* store,
                                         const std::string& clone_dir);

}  // namespace vmp::storage
