// The per-plant VM Information System and VM monitor.
//
// Paper, Figure 2: "The VM information system maintains state about
// currently active machines (including dynamic information gathered by a VM
// monitor)."  And Section 3.1: "The classad of an active virtual machine is
// maintained by its corresponding VMPlant, but it is not part of the state
// that needs to be maintained by VMShop, thus facilitating service
// restoration in the presence of failures."
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <string>
#include <vector>

#include "classad/classad.h"
#include "hypervisor/hypervisor.h"
#include "util/error.h"

namespace vmp::core {

/// Reserved id prefix for observability classads published by the monitor
/// (DESIGN.md §8): "obs://metrics" holds the process-wide metrics snapshot,
/// "obs://trace/<vm_id>" a per-VM span summary, "obs://tail/<trace_id>" a
/// retained tail exemplar (DESIGN.md §14).  The fleet aggregator
/// (core/fleet.h, DESIGN.md §9) additionally publishes
/// "obs://health/<plant>" per-plant SLO verdicts and "obs://fleet/metrics",
/// the cross-plant rollup, into the shop-side store.  These are not VMs:
/// vm_ids() still lists them (they live in the same store), but monitor
/// refreshes skip them.
inline constexpr char kObsAdPrefix[] = "obs://";
inline constexpr char kObsMetricsId[] = "obs://metrics";
inline constexpr char kObsTracePrefix[] = "obs://trace/";
inline constexpr char kObsTailPrefix[] = "obs://tail/";
inline constexpr char kObsHealthPrefix[] = "obs://health/";
inline constexpr char kObsBrokerPrefix[] = "obs://broker/";
inline constexpr char kObsFleetMetricsId[] = "obs://fleet/metrics";

class VmInformationSystem {
 public:
  /// Store (or replace) the classad for a VM.
  void store(const std::string& vm_id, classad::ClassAd ad);

  util::Result<classad::ClassAd> query(const std::string& vm_id) const;
  bool contains(const std::string& vm_id) const;
  util::Status remove(const std::string& vm_id);

  /// Merge attribute updates into an existing ad (monitor refresh); the
  /// stored ad shares the updates' expressions.
  util::Status update(const std::string& vm_id,
                      const classad::ClassAd& updates);

  std::vector<std::string> vm_ids() const;
  std::size_t size() const;

  /// Remove every ad whose id starts with `prefix`; returns how many.
  std::size_t remove_prefixed(const std::string& prefix);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, classad::ClassAd> ads_;
};

/// The VM monitor: polls the hypervisor and refreshes dynamic attributes
/// (power state, resident memory, connected ISOs) in the information
/// system.  Deployments may invoke it explicitly per query, or run it
/// continuously on a background thread (start_periodic), like the paper's
/// "dynamic information gathered by a VM monitor" in Figure 2.
class VmMonitor {
 public:
  VmMonitor(hv::Hypervisor* hypervisor, VmInformationSystem* info)
      : hypervisor_(hypervisor), info_(info) {}
  ~VmMonitor() { stop_periodic(); }

  VmMonitor(const VmMonitor&) = delete;
  VmMonitor& operator=(const VmMonitor&) = delete;

  /// Refresh one VM; kNotFound if the hypervisor no longer knows it.
  util::Status refresh(const std::string& vm_id);

  /// Refresh every VM the info system tracks; returns how many succeeded.
  std::size_t refresh_all();

  /// Run refresh_all() on a background thread every `interval`.
  /// Idempotent; stop with stop_periodic().  The monitor only ever reads
  /// vm_status() copies taken under the hypervisor's internal lock, so
  /// sweeps are safe against concurrent creates/collects (DESIGN.md §10).
  void start_periodic(std::chrono::milliseconds interval);
  void stop_periodic();
  bool periodic_running() const { return thread_.joinable(); }
  /// Completed refresh sweeps since start_periodic.
  std::uint64_t sweeps() const { return sweeps_.load(); }

  /// Publish observability classads (obs://metrics + obs://trace/<vm_id>)
  /// into the information system on every sweep.  Off by default; each
  /// explicit refresh_all() and every periodic sweep republishes while
  /// enabled.  stop_periodic() removes the obs:// ads so a stopped monitor
  /// leaves no stale observability state behind.
  void enable_obs_export();

  /// Publish the obs:// ads immediately (no-op unless export is enabled).
  /// VmPlant calls this before serving an obs:// query so a remote puller
  /// (the fleet aggregator) always sees a fresh snapshot, even between
  /// sweeps.
  void publish_obs_ads();

 private:
  hv::Hypervisor* hypervisor_;
  VmInformationSystem* info_;
  std::thread thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<bool> obs_export_{false};
};

}  // namespace vmp::core
