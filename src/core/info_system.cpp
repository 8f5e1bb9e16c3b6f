#include "core/info_system.h"

#include "core/request.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vmp::core {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

void VmInformationSystem::store(const std::string& vm_id,
                                classad::ClassAd ad) {
  std::lock_guard<std::mutex> lock(mutex_);
  ads_[vm_id] = std::move(ad);
}

Result<classad::ClassAd> VmInformationSystem::query(
    const std::string& vm_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ads_.find(vm_id);
  if (it == ads_.end()) {
    return Result<classad::ClassAd>(
        Error(ErrorCode::kNotFound, "info system: no VM " + vm_id));
  }
  return it->second;
}

bool VmInformationSystem::contains(const std::string& vm_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ads_.count(vm_id) != 0;
}

Status VmInformationSystem::remove(const std::string& vm_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ads_.erase(vm_id) == 0) {
    return Status(ErrorCode::kNotFound, "info system: no VM " + vm_id);
  }
  return Status();
}

Status VmInformationSystem::update(const std::string& vm_id,
                                   const classad::ClassAd& updates) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ads_.find(vm_id);
  if (it == ads_.end()) {
    return Status(ErrorCode::kNotFound, "info system: no VM " + vm_id);
  }
  it->second.merge(updates);
  return Status();
}

std::vector<std::string> VmInformationSystem::vm_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(ads_.size());
  for (const auto& [id, ad] : ads_) out.push_back(id);
  return out;
}

std::size_t VmInformationSystem::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ads_.size();
}

std::size_t VmInformationSystem::remove_prefixed(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t removed = 0;
  for (auto it = ads_.begin(); it != ads_.end();) {
    if (it->first.starts_with(prefix)) {
      it = ads_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

namespace {

/// The monitor's update for one VM.
classad::ClassAd status_ad(const hv::VmStatus& vm) {
  classad::ClassAd updates;
  updates.set_string(attrs::kState, hv::power_state_name(vm.power));
  updates.set_integer(attrs::kMemoryBytes,
                      static_cast<std::int64_t>(vm.memory_bytes));
  updates.set_integer(attrs::kIsosConnected,
                      static_cast<std::int64_t>(vm.connected_isos));
  if (!vm.ip.empty()) updates.set_string(attrs::kIp, vm.ip);
  if (!vm.mac.empty()) updates.set_string(attrs::kMac, vm.mac);
  return updates;
}

}  // namespace

Status VmMonitor::refresh(const std::string& vm_id) {
  // The monitor runs on its own thread while creates are in flight, so it
  // reads the published fields under the hypervisor lock rather than
  // borrowing a pointer into the instance table.
  const std::optional<hv::VmStatus> vm = hypervisor_->vm_status(vm_id);
  if (!vm.has_value()) {
    return Status(ErrorCode::kNotFound, "monitor: hypervisor lost VM " + vm_id);
  }
  return info_->update(vm_id, status_ad(*vm));
}

std::size_t VmMonitor::refresh_all() {
  std::size_t ok = 0;
  std::size_t active = 0;
  std::size_t suspended = 0;
  for (const std::string& id : info_->vm_ids()) {
    if (id.starts_with(kObsAdPrefix)) continue;  // not a VM
    const std::optional<hv::VmStatus> vm = hypervisor_->vm_status(id);
    if (!vm.has_value() || !info_->update(id, status_ad(*vm)).ok()) continue;
    ++ok;
    if (vm->power == hv::PowerState::kRunning) ++active;
    if (vm->power == hv::PowerState::kSuspended) ++suspended;
  }
  obs::MetricsRegistry& r = obs::MetricsRegistry::instance();
  r.gauge("vm.active.gauge")->set(static_cast<std::int64_t>(active));
  r.gauge("vm.suspended.gauge")->set(static_cast<std::int64_t>(suspended));
  publish_obs_ads();
  return ok;
}

void VmMonitor::enable_obs_export() {
  obs_export_.store(true, std::memory_order_relaxed);
}

void VmMonitor::publish_obs_ads() {
  if (!obs_export_.load(std::memory_order_relaxed)) return;
  const obs::ExportBundle bundle = obs::export_bundle();
  info_->store(kObsMetricsId, bundle.metrics);
  for (const auto& [vm_id, ad] : bundle.vm_traces) {
    info_->store(kObsTracePrefix + vm_id, ad);
  }
  for (const auto& [trace_id, ad] : bundle.tail_exemplars) {
    info_->store(kObsTailPrefix + trace_id, ad);
  }
}

void VmMonitor::start_periodic(std::chrono::milliseconds interval) {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = false;
  }
  thread_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    while (!stopping_) {
      lock.unlock();
      refresh_all();
      sweeps_.fetch_add(1);
      lock.lock();
      stop_cv_.wait_for(lock, interval, [this] { return stopping_; });
    }
  });
}

void VmMonitor::stop_periodic() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
    // A stopped monitor leaves no stale observability ads behind: the
    // obs:// snapshots are only meaningful while sweeps keep them fresh.
    if (obs_export_.load(std::memory_order_relaxed)) {
      (void)info_->remove_prefixed(kObsAdPrefix);
    }
  }
}

}  // namespace vmp::core
