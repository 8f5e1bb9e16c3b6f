// Hypervisor control interface (the "Production Line" substrate).
//
// Paper, Section 2: "while different VM technologies present different
// interfaces for their configuration and control, core mechanisms on top of
// which middleware services can be layered are identifiable.  First, VM
// environments can be encapsulated as data ... Second, instantiation can be
// implemented by a control process."
//
// Hypervisor captures exactly those two mechanisms: state-as-files (clone,
// destroy) and a control process (start/suspend/stop, virtual CD-ROM
// attach, guest script execution).  Two backends implement it:
//   * GsxHypervisor — "classic" hosted VMM: clones resume from a suspended
//     memory checkpoint; non-persistent disks share golden spans via links.
//   * UmlHypervisor — user-mode-Linux style: clones boot from scratch on a
//     copy-on-write file system; no memory state exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "hypervisor/guest.h"
#include "storage/artifact_store.h"
#include "storage/clone_ops.h"
#include "storage/image_layout.h"
#include "util/error.h"

namespace vmp::hv {

enum class PowerState { kStopped, kSuspended, kRunning };
const char* power_state_name(PowerState state) noexcept;

/// One hosted VM instance.
struct VmInstance {
  std::string id;
  storage::ImageLayout layout;  // its clone directory
  storage::MachineSpec spec;
  PowerState power = PowerState::kStopped;
  GuestState guest;
  /// Paths (store-relative) of connected virtual CD-ROM ISOs, attach order.
  std::vector<std::string> connected_isos;
  /// ISOs written so far; the next one is config-cd-<iso_sequence + 1>.iso.
  std::uint32_t iso_sequence = 0;
  /// Accounting from the clone that created this instance.
  storage::CloneReport clone_report;
  /// Golden image this instance was cloned from ("" when unknown, e.g. a
  /// test-built instance).  While non-empty AND a lease hook is installed,
  /// this instance holds a lease on that image (released on destroy).
  std::string golden_id;
};

/// The fields of one instance the VM monitor publishes, read together
/// under the hypervisor lock (snapshot_vm would copy the whole instance).
struct VmStatus {
  PowerState power = PowerState::kStopped;
  std::uint64_t memory_bytes = 0;
  std::size_t connected_isos = 0;
  std::string ip;
  std::string mac;
};

/// Description of a clone source (a golden image already on disk).
struct CloneSource {
  storage::ImageLayout layout;
  storage::MachineSpec spec;
  GuestState guest;  // guest state captured when the golden was published
  /// Warehouse id of the golden image ("" disables lease acquisition).
  std::string golden_id;
};

/// Lease protocol between the hypervisor and the warehouse lifecycle
/// manager (lifecycle/lifecycle.h implements it).  A linked clone's
/// non-persistent disks are symlinks into the golden image's directory, so
/// the base must outlive every clone: the hypervisor acquires a lease
/// before the clone I/O and releases it when the clone directory is gone.
/// Defined here (not in lifecycle/) so the hypervisor does not depend on
/// the warehouse stack.
class GoldenLeaseHook {
 public:
  virtual ~GoldenLeaseHook() = default;
  /// Fails when the image is unknown or already evicted — the clone must
  /// not proceed against a base that can vanish.
  virtual util::Status acquire(const std::string& golden_id) = 0;
  /// Releases one lease.  Must tolerate ids it never leased (noexcept:
  /// called from cleanup paths).
  virtual void release(const std::string& golden_id) noexcept = 0;
};

class Hypervisor {
 public:
  explicit Hypervisor(storage::ArtifactStore* store) : store_(store) {}
  virtual ~Hypervisor() = default;

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  /// Backend identifier ("vmware-gsx", "uml").
  virtual std::string type() const = 0;

  /// True when this backend resumes clones from a memory checkpoint
  /// (false: clones boot).  Drives both semantics and the timing model.
  virtual bool resumes_from_checkpoint() const = 0;

  /// Clone a golden image into `clone_dir` and register the instance.
  /// The instance starts Stopped (GSX: suspended-on-disk; UML: powered off).
  util::Result<std::string> clone_vm(const CloneSource& source,
                                     const std::string& clone_dir,
                                     const std::string& vm_id);

  /// Register an instance over an EXISTING clone directory (no cloning).
  /// Used by VM migration: the target plant copies a suspended clone
  /// directory into its clone area and adopts it.  `suspended` instances
  /// require a memory checkpoint on disk and resume on start.
  /// `golden_id` re-establishes lease protection for the adopted clone's
  /// golden base (a migrated linked clone still points its disk symlinks at
  /// the golden tree on the shared store); "" adopts without a lease.
  util::Result<std::string> import_vm(const std::string& clone_dir,
                                      const storage::MachineSpec& spec,
                                      const GuestState& guest,
                                      const std::string& vm_id,
                                      bool suspended,
                                      const std::string& golden_id = "");

  /// Start the instance: resume (GSX) or boot (UML).
  util::Status start_vm(const std::string& vm_id);

  /// Suspend a running instance back to a checkpoint (GSX only).
  virtual util::Status suspend_vm(const std::string& vm_id);

  /// Power off a running instance (non-persistent disk changes discarded:
  /// the redo log is truncated, mirroring VMware's end-of-session discard).
  util::Status power_off(const std::string& vm_id);

  /// Destroy: delete the clone directory and forget the instance.  Once it
  /// succeeds, every per-VM record is gone and the id is unknown here.
  util::Status destroy_vm(const std::string& vm_id);

  /// Write `script` to a new ISO file in the clone dir and connect it as a
  /// virtual CD-ROM.  Returns the store-relative ISO path.
  util::Result<std::string> connect_script_iso(const std::string& vm_id,
                                               const std::string& script);

  /// The guest daemon mounts the most recently connected ISO and executes
  /// its script.  Instance must be Running.
  util::Result<GuestOutput> execute_connected_script(const std::string& vm_id);

  /// Direct script execution (used by tests and by golden-image authoring).
  util::Result<GuestOutput> execute_on_guest(const std::string& vm_id,
                                             const std::string& script);

  // -- Introspection --------------------------------------------------------
  /// Borrowed pointer into the instance table, valid until that VM is
  /// destroyed (the table is node-based, so other VMs' registrations and
  /// destroys leave it alone).  The pointed-to instance is only safe to
  /// read/mutate from the thread that owns the VM (its creating request,
  /// or its collector).  Cross-owner readers (monitors) must use
  /// snapshot_vm() or vm_status() instead.
  const VmInstance* find(const std::string& vm_id) const;
  /// Consistent copy of one instance taken under the hypervisor lock (safe
  /// from any thread, e.g. the VM monitor refreshing during creates).
  std::optional<VmInstance> snapshot_vm(const std::string& vm_id) const;
  /// The monitor's fields of one instance, consistent like snapshot_vm().
  std::optional<VmStatus> vm_status(const std::string& vm_id) const;
  std::vector<std::string> instance_ids() const;
  /// Registered instances (the plant's capacity unit): the table's size,
  /// since destroy erases.  O(1).
  std::size_t active_instances() const;
  /// Same as active_instances().
  std::size_t instance_count() const;
  /// Sum of configured memory of Running and Suspended instances (bytes).
  /// O(1): a counter kept in step with every power transition.
  std::uint64_t resident_memory_bytes() const;

  /// Install the golden-image lease provider (nullptr disables leasing —
  /// the default, so tests and plants without a lifecycle manager run
  /// unchanged).  Not synchronised: wire it up before serving requests.
  void set_lease_hook(GoldenLeaseHook* hook) { lease_hook_ = hook; }
  GoldenLeaseHook* lease_hook() const { return lease_hook_; }

  storage::ArtifactStore* store() { return store_; }

 protected:
  /// Backend-specific start semantics.
  virtual util::Status do_start(VmInstance* vm) = 0;
  /// Backend-specific clone validation (e.g. GSX requires a checkpoint).
  virtual util::Status validate_clone_source(const CloneSource& source) const = 0;
  /// Clone strategy used by this backend.
  virtual storage::CloneStrategy clone_strategy() const {
    return storage::CloneStrategy::kLinked;
  }

  /// Must be called with mutex_ held.
  util::Result<VmInstance*> find_mutable(const std::string& vm_id);
  /// Moves `vm` to `next` and updates resident_bytes_.  Every power
  /// change of a registered instance goes through here.  Must be called
  /// with mutex_ held.
  void set_power(VmInstance* vm, PowerState next);
  /// Registers a new instance (its power as set by the caller) and counts
  /// its resident memory.  Returns false when a live instance has the id.
  /// Must be called with mutex_ held.
  bool register_instance(VmInstance vm);

  storage::ArtifactStore* store_;
  /// Guards the instance table and every registered instance's fields.
  /// Public operations hold it for their whole body EXCEPT the
  /// size-proportional clone/destroy I/O, which runs unlocked against a
  /// directory no other request touches — that is what lets independent
  /// creations overlap on one plant (DESIGN.md §10).
  mutable std::mutex mutex_;
  /// Live instances only: destroy_vm erases.
  std::map<std::string, VmInstance> instances_;
  /// Resident memory over instances_ (see resident_memory_bytes()), kept
  /// by set_power(), register_instance() and destroy_vm().
  std::uint64_t resident_bytes_ = 0;
  GuestAgent agent_;
  /// Lease calls run OUTSIDE mutex_ (the hook takes the lifecycle lock,
  /// which in turn takes the warehouse lock — holding mutex_ across that
  /// chain would invert against destroy paths).
  GoldenLeaseHook* lease_hook_ = nullptr;
};

}  // namespace vmp::hv
