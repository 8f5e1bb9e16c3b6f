// The VMPlant daemon.
//
// Paper, Figure 2: a plant combines the Production Process Planner, the
// Production Line, the VM Information System (+ monitor), and access to the
// VM Warehouse.  Deployed one per physical resource, it answers four
// services — Create, Collect, Query, Estimate — used by VMShop (paper,
// Figure 1: plants "are not directly accessible by clients").
//
// The plant owns the host's finite resources: a VM-count capacity, the host
// memory that resumed clones occupy, and the small pool of host-only
// networks rationed per client domain (vnet::NetworkAllocator).
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>

#include "classad/classad.h"
#include "core/cost.h"
#include "core/info_system.h"
#include "core/ppp.h"
#include "core/production_line.h"
#include "core/request.h"
#include "net/bus.h"
#include "net/registry.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/ids.h"
#include "util/retry.h"
#include "util/thread_pool.h"
#include "vnet/allocator.h"

namespace vmp::core {

struct PlantConfig {
  std::string name = "plant0";
  std::string backend = "vmware-gsx";     // production line type
  std::uint64_t host_memory_bytes = 1536ull << 20;  // paper: 1.5 GB nodes
  std::size_t max_vms = 32;               // paper §3.4 example
  std::size_t host_only_networks = 4;     // paper §3.4 example
  std::string clone_base_dir;             // store-relative; default <name>/clones
  std::string cost_model = "network-compute";
  /// Plant-local retry for the clone+resume phase, applied only to
  /// transient failures (unavailable / timeout / internal).  Disabled by
  /// default (one attempt): the shop's next-best-bid failover is the
  /// primary recovery path, and double-retrying underneath it would
  /// inflate creation latency.
  util::RetryPolicy clone_retry = util::RetryPolicy{.max_attempts = 1};
  /// Publish obs:// classads (metrics snapshot, per-VM traces) into this
  /// plant's information system so a fleet aggregator can pull them over
  /// the bus (vmplant.query of "obs://metrics").  Off by default.
  bool obs_export = false;
  /// Size of the create_async() worker pool, started by the first
  /// create_async() call; a plant that never calls it starts no thread
  /// (0 = auto: hardware concurrency, at least 2 so the pipeline is
  /// exercised even on one-core hosts).
  std::size_t worker_threads = 0;
  /// Re-serialize creations through one plant-wide lock (the pre-§10
  /// behavior: one production order at a time per host).  Kept as the
  /// benchmark baseline and as an escape hatch.
  bool serialize_creates = false;
};

/// Snapshot of plant state captured before a creation (consumed by the
/// cluster timing model and exported in the response classad).
struct PlantSnapshot {
  std::size_t active_vms = 0;
  std::uint64_t resident_memory_bytes = 0;
};

class VmPlant {
 public:
  /// The plant builds its own hypervisor of the configured backend over
  /// `store` and reads golden machines from `warehouse`.
  VmPlant(PlantConfig config, storage::ArtifactStore* store,
          warehouse::Warehouse* warehouse);
  ~VmPlant();

  const std::string& name() const { return config_.name; }
  const PlantConfig& config() const { return config_; }

  // -- Direct (in-process) service interface --------------------------------
  /// Estimate the cost of serving `request` (the bid).  Prices from the
  /// header alone: `request.config` is neither read nor validated.
  util::Result<double> estimate(const CreateRequest& request) const;

  /// Create a VM; returns its classad.  Independent creations overlap:
  /// the plant only serializes instance-table bookkeeping, not the
  /// clone -> resume -> configure pipeline (DESIGN.md §10).
  util::Result<classad::ClassAd> create(const CreateRequest& request);

  /// Create on the plant's worker pool (started by the first call, sized
  /// by PlantConfig::worker_threads); the caller's trace context is
  /// propagated to the worker so spans keep their parent.  After the
  /// plant starts shutting down the future holds ThreadPool::Stopped.
  std::future<util::Result<classad::ClassAd>> create_async(
      const CreateRequest& request);

  /// Query an active VM's classad (refreshed by the monitor first).
  util::Result<classad::ClassAd> query(const std::string& vm_id) const;

  /// Collect (destroy) an active VM.
  util::Status collect(const std::string& vm_id);

  // -- Speculative pre-creation (paper §6 future work) -----------------------
  /// Clone and resume `count` instances of a golden image ahead of demand.
  /// A later create() whose PPP plan selects this golden image adopts a
  /// parked instance instead of cloning — the expensive phase has already
  /// happened off the critical path.
  util::Status pre_create(const std::string& golden_id, std::size_t count);

  /// Parked instances for a golden image ("" = all).
  std::size_t speculative_pool_size(const std::string& golden_id = "") const;

  /// Destroy all parked instances (frees their memory and clone dirs).
  void discard_speculative();

  // -- Migration (paper §6 future work) --------------------------------------
  /// Everything a target plant needs to adopt a live VM.
  struct MigrationBundle {
    std::string source_vm_id;
    std::string source_dir;  // suspended clone directory (store-relative)
    storage::MachineSpec spec;
    hv::GuestState guest;
    std::string domain;
    /// Golden base the clone's disk symlinks point at ("" when unleased);
    /// the target plant re-takes the lease on import.
    std::string golden_id;
  };

  /// Suspend a running VM and export its state for migration.  The VM
  /// stays registered (suspended) at this plant until collect() removes it
  /// after the target has imported — or resume_after_failed_migration()
  /// brings it back.
  util::Result<MigrationBundle> migrate_out(const std::string& vm_id);

  /// Adopt a suspended VM exported by another plant: copy its state into
  /// this plant's clone area, resume it, and return its new classad (with
  /// a fresh VMID assigned by this plant).
  util::Result<classad::ClassAd> migrate_in(const MigrationBundle& bundle);

  /// Undo migrate_out when the target failed: resume the VM in place.
  util::Status resume_after_failed_migration(const std::string& vm_id);

  // -- Introspection ---------------------------------------------------------
  std::size_t active_vms() const;
  std::uint64_t resident_memory_bytes() const;
  /// Creations admitted but not yet finished (capacity slots held).
  std::size_t inflight_creates() const;
  /// Clone+resume attempts retried locally under config().clone_retry.
  std::uint64_t clone_retries() const {
    return clone_retries_.load(std::memory_order_relaxed);
  }
  vnet::NetworkAllocator& allocator() { return allocator_; }
  hv::Hypervisor& hypervisor() { return *hypervisor_; }
  VmInformationSystem& info_system() { return info_; }
  VmMonitor& monitor() { return *monitor_; }

  // -- Bus integration --------------------------------------------------------
  /// Register this plant's endpoint and publish it in the registry.
  /// Service names on the wire: vmplant.estimate / estimate_batch / create
  /// / query / collect.
  util::Status attach_to_bus(net::MessageBus* bus,
                             net::ServiceRegistry* registry);
  void detach_from_bus();
  const std::string& bus_address() const { return config_.name; }

 private:
  net::Message handle_message(const net::Message& request_msg);
  util::Result<classad::ClassAd> create_impl(const CreateRequest& request);
  /// The create_async() pool, started on first use.
  util::ThreadPool* workers();
  PlantSnapshot snapshot() const;
  PlantLoad load_for(const CreateRequest& request) const;

  PlantConfig config_;
  storage::ArtifactStore* store_;
  warehouse::Warehouse* warehouse_;
  std::unique_ptr<hv::Hypervisor> hypervisor_;
  ProductionProcessPlanner ppp_;
  std::unique_ptr<ProductionLine> production_;
  VmInformationSystem info_;
  std::unique_ptr<VmMonitor> monitor_;
  vnet::NetworkAllocator allocator_;
  std::unique_ptr<CostModel> cost_model_;
  util::IdGenerator vm_ids_;
  /// Plant-name-scoped SLI metrics ("<name>.create.seconds" etc.), the one
  /// record of each create.  The process-wide registry is shared by every
  /// in-process plant, so the fleet aggregator needs per-plant names to
  /// attribute latency and failures to the right plant (DESIGN.md §9).
  obs::Timer* sli_create_seconds_;
  obs::Counter* sli_create_ok_;
  obs::Counter* sli_create_fail_;
  /// Guards ONLY the plant's own bookkeeping: vm_domains_, speculative_,
  /// and the in-flight admission count.  The hypervisor, warehouse, info
  /// system, and network allocator each lock internally, so the expensive
  /// clone/configure pipeline runs with no plant-wide lock held.  Lock
  /// order when nesting is needed: state_mutex_ before the hypervisor's
  /// internal mutex (never the reverse).
  mutable std::mutex state_mutex_;
  /// Taken for the whole creation when config_.serialize_creates is set.
  std::mutex serialize_mutex_;
  std::size_t inflight_creates_ = 0;  // guarded by state_mutex_
  net::MessageBus* bus_ = nullptr;
  net::ServiceRegistry* registry_ = nullptr;
  /// vm_id -> domain, for releasing the network on collect.
  std::map<std::string, std::string> vm_domains_;
  /// golden_id -> parked pre-created instances (speculative pool).
  std::map<std::string, std::vector<std::string>> speculative_;
  std::atomic<std::uint64_t> clone_retries_{0};
  /// Declared last: destroyed first, so in-flight create_async tasks
  /// finish (and stop touching the members above) before they go away.
  /// Started by the first create_async() (workers()).
  std::once_flag workers_once_;
  std::unique_ptr<util::ThreadPool> workers_;
};

}  // namespace vmp::core
