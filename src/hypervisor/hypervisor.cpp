#include "hypervisor/hypervisor.h"

#include "fault/fault.h"

namespace vmp::hv {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

const char* power_state_name(PowerState state) noexcept {
  switch (state) {
    case PowerState::kStopped: return "stopped";
    case PowerState::kSuspended: return "suspended";
    case PowerState::kRunning: return "running";
  }
  return "stopped";
}

Result<VmInstance*> Hypervisor::find_mutable(const std::string& vm_id) {
  auto it = instances_.find(vm_id);
  if (it == instances_.end()) {
    return Result<VmInstance*>(
        Error(ErrorCode::kNotFound, type() + ": no VM " + vm_id));
  }
  return &it->second;
}

namespace {

/// What `vm` adds to resident_memory_bytes() in its current power state.
std::uint64_t resident_bytes(const VmInstance& vm) {
  const bool resident =
      vm.power == PowerState::kRunning || vm.power == PowerState::kSuspended;
  return resident ? vm.spec.memory_bytes : 0;
}

}  // namespace

void Hypervisor::set_power(VmInstance* vm, PowerState next) {
  resident_bytes_ -= resident_bytes(*vm);
  vm->power = next;
  resident_bytes_ += resident_bytes(*vm);
}

bool Hypervisor::register_instance(VmInstance vm) {
  std::string id = vm.id;
  auto [it, inserted] = instances_.emplace(std::move(id), std::move(vm));
  if (inserted) resident_bytes_ += resident_bytes(it->second);
  return inserted;
}

const VmInstance* Hypervisor::find(const std::string& vm_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = instances_.find(vm_id);
  return it == instances_.end() ? nullptr : &it->second;
}

std::optional<VmInstance> Hypervisor::snapshot_vm(
    const std::string& vm_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = instances_.find(vm_id);
  if (it == instances_.end()) return std::nullopt;
  return it->second;
}

std::optional<VmStatus> Hypervisor::vm_status(const std::string& vm_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = instances_.find(vm_id);
  if (it == instances_.end()) return std::nullopt;
  const VmInstance& vm = it->second;
  return VmStatus{vm.power, vm.spec.memory_bytes, vm.connected_isos.size(),
                  vm.guest.ip, vm.guest.mac};
}

std::vector<std::string> Hypervisor::instance_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(instances_.size());
  for (const auto& [id, vm] : instances_) out.push_back(id);
  return out;
}

std::size_t Hypervisor::active_instances() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return instances_.size();
}

std::size_t Hypervisor::instance_count() const { return active_instances(); }

std::uint64_t Hypervisor::resident_memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

Result<std::string> Hypervisor::clone_vm(const CloneSource& source,
                                         const std::string& clone_dir,
                                         const std::string& vm_id) {
  if (vm_id.empty()) {
    return Result<std::string>(
        Error(ErrorCode::kInvalidArgument, "vm id must not be empty"));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (instances_.count(vm_id)) {
      return Result<std::string>(
          Error(ErrorCode::kAlreadyExists, type() + ": VM exists: " + vm_id));
    }
  }
  VMP_RETURN_IF_ERROR_AS(validate_clone_source(source), std::string);

  // Lease the golden base BEFORE the clone I/O: a linked clone's disk
  // symlinks point into the golden tree, so between here and destroy the
  // lifecycle manager must never reap it.  Taken outside mutex_ (see the
  // lease_hook_ field comment); every failure path below releases.
  const bool leased = lease_hook_ != nullptr && !source.golden_id.empty();
  if (leased) {
    Status lease = lease_hook_->acquire(source.golden_id);
    if (!lease.ok()) return Result<std::string>(lease.error());
  }
  auto unlease = [&] {
    if (leased) lease_hook_->release(source.golden_id);
  };

  // The size-proportional copy runs unlocked: clone_dir is private to this
  // request, so concurrent creations overlap here — the whole point of the
  // plant's worker pool.
  auto report = storage::clone_image(store_, source.layout, source.spec,
                                     clone_dir, clone_strategy());
  if (!report.ok()) {
    unlease();
    return report.propagate<std::string>();
  }

  VmInstance vm;
  vm.id = vm_id;
  vm.layout = storage::ImageLayout{clone_dir};
  vm.spec = source.spec;
  vm.guest = source.guest;
  vm.guest.flaky_counters.clear();
  vm.power = PowerState::kStopped;
  vm.clone_report = report.value();
  vm.golden_id = leased ? source.golden_id : "";

  // The clone carries the golden's guest state file for crash recovery /
  // inspection; write the clone's own copy.  A failure here must not leave
  // a half-written clone directory behind.
  auto gs = store_->write_file(clone_dir + "/guest.state",
                               render_guest_state(vm.guest));
  if (!gs.ok()) {
    (void)store_->remove_tree(clone_dir);
    unlease();
    return gs.propagate<std::string>();
  }

  bool registered;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    registered = register_instance(std::move(vm));
  }
  if (!registered) {
    // Lost a registration race on the same id (ids are generator-unique, so
    // this is defensive): leave no orphan directory or stuck lease behind.
    (void)store_->remove_tree(clone_dir);
    unlease();
    return Result<std::string>(
        Error(ErrorCode::kAlreadyExists, type() + ": VM exists: " + vm_id));
  }
  return vm_id;
}

Result<std::string> Hypervisor::import_vm(const std::string& clone_dir,
                                          const storage::MachineSpec& spec,
                                          const GuestState& guest,
                                          const std::string& vm_id,
                                          bool suspended,
                                          const std::string& golden_id) {
  if (vm_id.empty()) {
    return Result<std::string>(
        Error(ErrorCode::kInvalidArgument, "vm id must not be empty"));
  }
  VmInstance vm;
  vm.id = vm_id;
  vm.layout = storage::ImageLayout{clone_dir};
  vm.spec = spec;
  vm.guest = guest;
  vm.power = suspended ? PowerState::kSuspended : PowerState::kStopped;

  if (!store_->exists(vm.layout.config_path())) {
    return Result<std::string>(
        Error(ErrorCode::kFailedPrecondition,
              type() + ": import missing config: " + vm.layout.config_path()));
  }
  if (suspended) {
    if (!resumes_from_checkpoint()) {
      return Result<std::string>(Error(
          ErrorCode::kFailedPrecondition,
          type() + ": backend cannot adopt a suspended checkpoint"));
    }
    if (!store_->exists(vm.layout.memory_path())) {
      return Result<std::string>(Error(
          ErrorCode::kFailedPrecondition,
          type() + ": import missing memory state: " + vm.layout.memory_path()));
    }
  }
  // A migrated linked clone still symlinks into the golden tree on the
  // shared store, so adoption re-takes the lease the source plant dropped
  // when it deregistered the VM.
  const bool leased = lease_hook_ != nullptr && !golden_id.empty();
  if (leased) {
    Status lease = lease_hook_->acquire(golden_id);
    if (!lease.ok()) return Result<std::string>(lease.error());
  }
  vm.golden_id = leased ? golden_id : "";
  bool registered;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    registered = register_instance(std::move(vm));
  }
  if (!registered) {
    if (leased) lease_hook_->release(golden_id);
    return Result<std::string>(
        Error(ErrorCode::kAlreadyExists, type() + ": VM exists: " + vm_id));
  }
  return vm_id;
}

Status Hypervisor::start_vm(const std::string& vm_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto vm = find_mutable(vm_id);
  if (!vm.ok()) return vm.error();
  if (vm.value()->power == PowerState::kRunning) {
    return Status(ErrorCode::kFailedPrecondition,
                  type() + ": VM already running: " + vm_id);
  }
  // Plan-driven fault injection (resume/boot failures look like VMM errors).
  if (auto fault = fault::check(fault::points::kHypervisorResume, vm_id);
      !fault.ok()) {
    return fault;
  }
  VMP_RETURN_IF_ERROR(do_start(vm.value()));
  set_power(vm.value(), PowerState::kRunning);
  return Status();
}

Status Hypervisor::suspend_vm(const std::string& vm_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto vm = find_mutable(vm_id);
  if (!vm.ok()) return vm.error();
  if (vm.value()->power != PowerState::kRunning) {
    return Status(ErrorCode::kFailedPrecondition,
                  type() + ": suspend requires a running VM: " + vm_id);
  }
  if (!resumes_from_checkpoint()) {
    return Status(ErrorCode::kFailedPrecondition,
                  type() + ": backend does not support suspend");
  }
  // Write the checkpoint: the memory state file reflects configured memory.
  auto mem = store_->create_sparse_file(vm.value()->layout.memory_path(),
                                        vm.value()->spec.memory_bytes);
  if (!mem.ok()) return mem.error();
  auto gs = store_->write_file(vm.value()->layout.dir + "/guest.state",
                               render_guest_state(vm.value()->guest));
  if (!gs.ok()) return gs.error();
  set_power(vm.value(), PowerState::kSuspended);
  return Status();
}

Status Hypervisor::power_off(const std::string& vm_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto vm = find_mutable(vm_id);
  if (!vm.ok()) return vm.error();
  if (vm.value()->power == PowerState::kStopped) {
    return Status(ErrorCode::kFailedPrecondition,
                  type() + ": VM already stopped: " + vm_id);
  }
  // Non-persistent disks discard session changes: truncate the redo log.
  if (vm.value()->spec.disk.mode == storage::DiskMode::kNonPersistent) {
    auto redo = store_->write_file(
        vm.value()->layout.base_redo_path(vm.value()->spec.disk), "");
    if (!redo.ok()) return redo.error();
  }
  set_power(vm.value(), PowerState::kStopped);
  return Status();
}

Status Hypervisor::destroy_vm(const std::string& vm_id) {
  // Take the instance out of the table under the lock, then delete its tree
  // unlocked (tree removal is the collect path's size-proportional cost, and
  // concurrent collects of distinct VMs should overlap like concurrent
  // clones do).  The extracted node, guest state and all, is freed on
  // return, outside the lock.
  decltype(instances_)::node_type node;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    node = instances_.extract(vm_id);
    if (node.empty()) {
      return Status(ErrorCode::kNotFound, type() + ": no VM " + vm_id);
    }
    resident_bytes_ -= resident_bytes(node.mapped());
  }
  const std::string golden_id = node.mapped().golden_id;
  Status result;
  if (auto removed = storage::destroy_clone(store_, node.mapped().layout.dir);
      !removed.ok()) {
    // Deletion failed: the VM is still materialized on disk, so put it back
    // as it was instead of stranding a live directory.  The golden lease is
    // kept — the clone's symlinks still exist.
    std::lock_guard<std::mutex> lock(mutex_);
    auto back = instances_.insert(std::move(node));
    if (back.inserted) {
      resident_bytes_ += resident_bytes(back.position->second);
      return removed.error();
    }
    // The id was registered again while its tree was being removed, which
    // generator-unique ids rule out.  Nothing holds this instance any more,
    // so its lease goes with it.
    node = std::move(back.node);
    result = Status(ErrorCode::kInternal,
                    type() + ": VM re-registered during destroy: " + vm_id);
  }
  // Only after the clone tree (and its symlinks into the golden) is gone may
  // the lifecycle manager reap a zombie base this clone was pinning.
  if (lease_hook_ != nullptr && !golden_id.empty()) {
    lease_hook_->release(golden_id);
  }
  return result;
}

Result<std::string> Hypervisor::connect_script_iso(const std::string& vm_id,
                                                   const std::string& script) {
  std::string iso_path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto vm = find_mutable(vm_id);
    if (!vm.ok()) return vm.propagate<std::string>();
    const std::uint32_t n = ++vm.value()->iso_sequence;
    iso_path =
        vm.value()->layout.dir + "/config-cd-" + std::to_string(n) + ".iso";
  }
  // The "ISO" carries the script with a tiny header, like a one-file image.
  // Written unlocked — the path is unique and lives in this VM's own dir.
  auto write = store_->write_file(iso_path, "#iso9660-sim\n" + script);
  if (!write.ok()) return write.propagate<std::string>();
  std::lock_guard<std::mutex> lock(mutex_);
  auto vm = find_mutable(vm_id);
  if (!vm.ok()) return vm.propagate<std::string>();
  vm.value()->connected_isos.push_back(iso_path);
  return iso_path;
}

Result<GuestOutput> Hypervisor::execute_connected_script(
    const std::string& vm_id) {
  std::string iso_file;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto vm = find_mutable(vm_id);
    if (!vm.ok()) return vm.propagate<GuestOutput>();
    if (vm.value()->power != PowerState::kRunning) {
      return Result<GuestOutput>(
          Error(ErrorCode::kFailedPrecondition,
                type() + ": guest daemon requires a running VM: " + vm_id));
    }
    if (vm.value()->connected_isos.empty()) {
      return Result<GuestOutput>(Error(
          ErrorCode::kFailedPrecondition, type() + ": no ISO connected: " + vm_id));
    }
    iso_file = vm.value()->connected_isos.back();
  }
  auto iso = store_->read_file(iso_file);
  if (!iso.ok()) return iso.propagate<GuestOutput>();
  // Strip the header line.
  std::string script = iso.value();
  const std::size_t nl = script.find('\n');
  script = nl == std::string::npos ? "" : script.substr(nl + 1);
  // Guest mutation happens under the lock so monitor snapshots never see a
  // half-updated guest state.
  std::lock_guard<std::mutex> lock(mutex_);
  auto vm = find_mutable(vm_id);
  if (!vm.ok()) return vm.propagate<GuestOutput>();
  return agent_.execute(&vm.value()->guest, script);
}

Result<GuestOutput> Hypervisor::execute_on_guest(const std::string& vm_id,
                                                 const std::string& script) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto vm = find_mutable(vm_id);
  if (!vm.ok()) return vm.propagate<GuestOutput>();
  if (vm.value()->power != PowerState::kRunning) {
    return Result<GuestOutput>(
        Error(ErrorCode::kFailedPrecondition,
              type() + ": guest not running: " + vm_id));
  }
  return agent_.execute(&vm.value()->guest, script);
}

}  // namespace vmp::hv
