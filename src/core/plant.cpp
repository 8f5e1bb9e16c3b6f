#include "core/plant.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "hypervisor/gsx.h"
#include "hypervisor/uml.h"
#include "hypervisor/xen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"

namespace vmp::core {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

const util::Logger kLog("vmplant");

std::unique_ptr<hv::Hypervisor> make_hypervisor(const std::string& backend,
                                                storage::ArtifactStore* store) {
  if (backend == "uml") return std::make_unique<hv::UmlHypervisor>(store);
  if (backend == "xen") return std::make_unique<hv::XenHypervisor>(store);
  return std::make_unique<hv::GsxHypervisor>(store);
}

/// Transient failures worth a plant-local clone retry; anything else
/// (validation errors, capacity, unknown goldens) will not improve on a
/// second attempt.
bool clone_error_is_transient(util::ErrorCode code) {
  return code == ErrorCode::kUnavailable || code == ErrorCode::kTimeout ||
         code == ErrorCode::kInternal;
}

struct PlantMetrics {
  obs::Counter* collects;
  obs::Counter* clone_retries;
  obs::Counter* speculative_hits;

  static PlantMetrics& get() {
    static PlantMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::instance();
      return PlantMetrics{r.counter("plant.collect.count"),
                          r.counter("plant.clone_retry.count"),
                          r.counter("plant.speculative_hit.count")};
    }();
    return m;
  }
};

}  // namespace

VmPlant::VmPlant(PlantConfig config, storage::ArtifactStore* store,
                 warehouse::Warehouse* warehouse)
    : config_(std::move(config)),
      store_(store),
      warehouse_(warehouse),
      hypervisor_(make_hypervisor(config_.backend, store)),
      ppp_(warehouse),
      allocator_(config_.name, config_.host_only_networks),
      cost_model_(make_cost_model(config_.cost_model)),
      vm_ids_(config_.name + "-vm"),
      sli_create_seconds_(obs::MetricsRegistry::instance().timer(
          config_.name + ".create.seconds")),
      sli_create_ok_(obs::MetricsRegistry::instance().counter(
          config_.name + ".create.count")),
      sli_create_fail_(obs::MetricsRegistry::instance().counter(
          config_.name + ".create_fail.count")) {
  // Register the process-wide plant counters with the plant, so a metrics
  // dump lists them, at zero, before the first collect, retry or hit.
  (void)PlantMetrics::get();
  if (config_.clone_base_dir.empty()) {
    config_.clone_base_dir = config_.name + "/clones";
  }
  (void)store_->make_dir(config_.clone_base_dir);
  production_ =
      std::make_unique<ProductionLine>(hypervisor_.get(), config_.clone_base_dir);
  monitor_ = std::make_unique<VmMonitor>(hypervisor_.get(), &info_);
  if (config_.obs_export) monitor_->enable_obs_export();
}

VmPlant::~VmPlant() {
  // Drain the worker pool, if create_async() ever started it, before
  // anything else goes away; late create_async() submissions get Stopped
  // futures instead of running against a half-destroyed plant.
  workers_.reset();
  detach_from_bus();
}

PlantSnapshot VmPlant::snapshot() const {
  PlantSnapshot snap;
  snap.active_vms = hypervisor_->active_instances();
  snap.resident_memory_bytes = hypervisor_->resident_memory_bytes();
  return snap;
}

PlantLoad VmPlant::load_for(const CreateRequest& request) const {
  const PlantSnapshot snap = snapshot();
  PlantLoad load;
  load.active_vms = snap.active_vms;
  load.max_vms = config_.max_vms;
  load.host_memory_bytes = config_.host_memory_bytes;
  load.resident_memory_bytes = snap.resident_memory_bytes;
  load.needs_new_network = allocator_.needs_new_network(request.domain);
  load.network_available = allocator_.can_serve(request.domain);
  load.request_memory_bytes = request.hardware.memory_bytes;
  return load;
}

Result<double> VmPlant::estimate(const CreateRequest& request) const {
  // No plant lock: the snapshot and allocator queries are internally
  // synchronized, and a bid is an estimate by nature — it may be stale the
  // moment it is produced (the shop re-validates by actually creating).
  // The cost models read the header alone, so only the header is checked.
  VMP_RETURN_IF_ERROR_AS(request.validate_header(), double);
  return cost_model_->estimate(load_for(request));
}

Result<classad::ClassAd> VmPlant::create(const CreateRequest& request) {
  obs::ScopedSpan span("plant.create", "vmplant", config_.name);
  // The tracer clock, not steady_clock: under an installed virtual clock
  // the latency histograms see the same simulated durations as the spans
  // (deterministic examples and tests).
  const double start_s = obs::Tracer::instance().now();

  Result<classad::ClassAd> result = create_impl(request);

  sli_create_seconds_->record(obs::Tracer::instance().now() - start_s);
  if (result.ok()) {
    sli_create_ok_->add();
    span.set_vm(result.value().get_string(attrs::kVmId).value_or(""));
  } else {
    sli_create_fail_->add();
    span.set_status(util::error_code_name(result.error().code()));
  }
  return result;
}

std::future<Result<classad::ClassAd>> VmPlant::create_async(
    const CreateRequest& request) {
  // Capture the caller's trace context on the caller's thread and adopt it
  // on the worker, so the create span parents under the caller's span the
  // same way a bus hop would (net/bus.cpp does the identical dance).
  const obs::TraceContext parent = obs::current_context();
  return workers()->submit([this, request, parent] {
    obs::ContextGuard adopt(parent);
    return create(request);
  });
}

util::ThreadPool* VmPlant::workers() {
  std::call_once(workers_once_, [this] {
    const std::size_t threads =
        config_.worker_threads != 0
            ? config_.worker_threads
            : std::max<std::size_t>(2, std::thread::hardware_concurrency());
    workers_ = std::make_unique<util::ThreadPool>(threads);
  });
  return workers_.get();
}

Result<classad::ClassAd> VmPlant::create_impl(const CreateRequest& request) {
  std::unique_lock<std::mutex> serial(serialize_mutex_, std::defer_lock);
  if (config_.serialize_creates) serial.lock();
  VMP_RETURN_IF_ERROR_AS(request.validate(), classad::ClassAd);

  const PlantSnapshot before = snapshot();

  // Claim a capacity slot: active instances plus creations still in
  // flight.  The slot is held for the whole pipeline so N concurrent
  // admissions can never overshoot max_vms between clone and register.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (hypervisor_->active_instances() + inflight_creates_ >=
        config_.max_vms) {
      return Result<classad::ClassAd>(
          Error(ErrorCode::kResourceExhausted,
                config_.name + ": at VM capacity (" +
                    std::to_string(config_.max_vms) + ")"));
    }
    ++inflight_creates_;
  }
  struct SlotRelease {
    VmPlant* plant;
    ~SlotRelease() {
      std::lock_guard<std::mutex> lock(plant->state_mutex_);
      --plant->inflight_creates_;
    }
  } slot_release{this};

  // Plan before committing any resources.  The PPP scans the warehouse
  // under its shared lock, so concurrent planners do not serialize.
  auto plan = ppp_.plan(request);
  if (!plan.ok()) return plan.propagate<classad::ClassAd>();

  // Host-only network for the client's domain.
  auto network = [&] {
    obs::ScopedSpan vnet_span("vnet.attach", "vnet", request.domain);
    auto acquired = allocator_.acquire(request.domain);
    if (!acquired.ok()) {
      vnet_span.set_status(util::error_code_name(acquired.error().code()));
    }
    return acquired;
  }();
  if (!network.ok()) return network.propagate<classad::ClassAd>();

  // Speculative pool: a parked pre-created clone of the planned golden
  // image skips the clone+resume phase entirely (paper §6 future work).
  bool speculative_hit = false;
  std::string vm_id;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto pool = speculative_.find(plan.value().golden.id);
    if (pool != speculative_.end() && !pool->second.empty()) {
      vm_id = pool->second.back();
      pool->second.pop_back();
      speculative_hit = true;
    }
  }
  if (speculative_hit) {
    PlantMetrics::get().speculative_hits->add();
  } else {
    // Clone+resume under the plant-local retry policy: transient failures
    // (store hiccups, VMM resume errors) are retried with deterministic
    // exponential backoff in sim-time; persistent errors propagate at once
    // so the shop can fail over to another plant.  Each attempt uses a
    // fresh VM id — the hypervisor retires ids of destroyed instances.
    // No plant lock is held here: this is the creation's dominant cost and
    // the stretch where concurrent orders actually overlap.
    util::RetryState retry_state(config_.clone_retry);
    while (true) {
      vm_id = vm_ids_.next();
      auto report = production_->clone_and_start(plan.value().golden, vm_id);
      if (report.ok()) break;
      if (!clone_error_is_transient(report.error().code()) ||
          !retry_state.allow_retry()) {
        (void)allocator_.release(request.domain);
        return report.propagate<classad::ClassAd>();
      }
      clone_retries_.fetch_add(1, std::memory_order_relaxed);
      PlantMetrics::get().clone_retries->add();
      obs::Tracer::instance().instant("plant.clone_retry", "vmplant", "retry",
                                      vm_id);
      kLog.warn() << config_.name << ": clone of " << vm_id
                  << " failed transiently (" << report.error().to_string()
                  << "); retry " << retry_state.retries_granted() << " after "
                  << retry_state.elapsed_backoff_s() << "s backoff";
    }
  }

  auto produced =
      production_->configure(plan.value(), request, vm_id, network.value());
  if (!produced.ok()) {
    (void)allocator_.release(request.domain);
    return produced.propagate<classad::ClassAd>();
  }
  ProductionResult& result = produced.value();

  // Assemble the response classad.
  classad::ClassAd ad = std::move(result.ad);
  ad.set_string(attrs::kVmId, vm_id);
  ad.set_string(attrs::kPlant, config_.name);
  ad.set_string(attrs::kBackend, hypervisor_->type());
  ad.set_string(attrs::kRequestId, request.request_id);
  ad.set_string(attrs::kDomain, request.domain);
  ad.set_string(attrs::kGoldenImage, plan.value().golden.id);
  ad.set_string(attrs::kOs, plan.value().golden.spec.os);
  ad.set_integer(attrs::kMemoryBytes,
                 static_cast<std::int64_t>(plan.value().golden.spec.memory_bytes));
  ad.set_integer(attrs::kDiskBytes,
                 static_cast<std::int64_t>(
                     plan.value().golden.spec.disk.capacity_bytes));
  if (!ad.has(attrs::kNetwork)) {
    ad.set_string(attrs::kNetwork, network.value());
  }
  ad.set_integer(attrs::kActionsExecuted,
                 static_cast<std::int64_t>(result.guest_actions_executed +
                                           result.host_actions_executed));
  ad.set_integer(attrs::kActionsSatisfied,
                 static_cast<std::int64_t>(plan.value().satisfied_nodes.size()));
  ad.set_integer(attrs::kActionFailures,
                 static_cast<std::int64_t>(result.failures_continued));

  // Accounting for the cluster timing model.  A speculative hit charges no
  // clone work to this creation: it happened ahead of demand.
  const storage::IoAccounting clone_total =
      speculative_hit ? storage::IoAccounting{} : result.clone_report.total();
  ad.set_boolean(attrs::kSpeculativeHit, speculative_hit);
  ad.set_integer(attrs::kCloneBytesCopied,
                 static_cast<std::int64_t>(clone_total.bytes_written));
  ad.set_integer(attrs::kCloneLinks,
                 static_cast<std::int64_t>(clone_total.links_created));
  ad.set_integer(attrs::kResidentBeforeBytes,
                 static_cast<std::int64_t>(before.resident_memory_bytes));
  ad.set_integer(attrs::kActiveVmsBefore,
                 static_cast<std::int64_t>(before.active_vms));
  ad.set_integer(attrs::kIsosConnected,
                 static_cast<std::int64_t>(result.isos_connected));

  // Dynamic attributes from the monitor.
  info_.store(vm_id, std::move(ad));
  (void)monitor_->refresh(vm_id);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    vm_domains_[vm_id] = request.domain;
  }

  kLog.info() << config_.name << ": created " << vm_id << " from golden '"
              << plan.value().golden.id << "' (" << result.guest_actions_executed
              << " guest actions, " << plan.value().satisfied_nodes.size()
              << " cached)";
  return info_.query(vm_id);
}

Result<classad::ClassAd> VmPlant::query(const std::string& vm_id) const {
  // The monitor and information system synchronize internally; queries
  // never contend with the create pipeline.
  if (vm_id.starts_with(kObsAdPrefix)) {
    // Observability pull (fleet aggregator): republish so the puller sees
    // a fresh snapshot even between monitor sweeps.
    monitor_->publish_obs_ads();
    return info_.query(vm_id);
  }
  (void)monitor_->refresh(vm_id);
  return info_.query(vm_id);
}

Status VmPlant::collect(const std::string& vm_id) {
  obs::ScopedSpan span("plant.collect", "vmplant", config_.name);
  span.set_vm(vm_id);
  // Claim the VM's bookkeeping entry up front so two racing collects of
  // the same id cannot both destroy it (and release its network twice);
  // the loser sees kNotFound.  The destroy I/O then runs unlocked, and a
  // failed destroy restores the claim so collect stays retryable.
  std::string domain;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto it = vm_domains_.find(vm_id);
    if (it == vm_domains_.end()) {
      return Status(ErrorCode::kNotFound,
                    config_.name + ": unknown VM " + vm_id);
    }
    domain = it->second;
    vm_domains_.erase(it);
  }
  Status collected = production_->collect(vm_id);
  if (!collected.ok()) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    vm_domains_.emplace(vm_id, domain);
    return collected;
  }
  (void)allocator_.release(domain);
  (void)info_.remove(vm_id);
  PlantMetrics::get().collects->add();
  kLog.info() << config_.name << ": collected " << vm_id;
  return Status();
}

// ---------------------------------------------------------------------------
// Speculative pre-creation (paper §6 future work)
// ---------------------------------------------------------------------------

Status VmPlant::pre_create(const std::string& golden_id, std::size_t count) {
  // Pre-creation is an off-peak batch operation; holding the state lock
  // for its whole run keeps the pool bookkeeping trivially consistent.
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto golden = warehouse_->lookup(golden_id);
  if (!golden.ok()) return golden.error();
  if (golden.value().backend != config_.backend) {
    return Status(ErrorCode::kFailedPrecondition,
                  config_.name + ": golden '" + golden_id +
                      "' targets backend " + golden.value().backend);
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (hypervisor_->active_instances() + inflight_creates_ >=
        config_.max_vms) {
      return Status(ErrorCode::kResourceExhausted,
                    config_.name + ": at VM capacity during pre-create");
    }
    const std::string vm_id = vm_ids_.next();
    auto report = production_->clone_and_start(golden.value(), vm_id);
    if (!report.ok()) return report.error();
    speculative_[golden_id].push_back(vm_id);
  }
  kLog.info() << config_.name << ": pre-created " << count
              << " instances of '" << golden_id << "'";
  return Status();
}

std::size_t VmPlant::speculative_pool_size(const std::string& golden_id) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (!golden_id.empty()) {
    auto it = speculative_.find(golden_id);
    return it == speculative_.end() ? 0 : it->second.size();
  }
  std::size_t total = 0;
  for (const auto& [id, pool] : speculative_) total += pool.size();
  return total;
}

void VmPlant::discard_speculative() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  for (auto& [golden_id, pool] : speculative_) {
    for (const std::string& vm_id : pool) {
      (void)hypervisor_->destroy_vm(vm_id);
    }
  }
  speculative_.clear();
}

// ---------------------------------------------------------------------------
// Migration (paper §6 future work)
// ---------------------------------------------------------------------------

Result<VmPlant::MigrationBundle> VmPlant::migrate_out(const std::string& vm_id) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto domain = vm_domains_.find(vm_id);
  if (domain == vm_domains_.end()) {
    return Result<MigrationBundle>(
        Error(ErrorCode::kNotFound, config_.name + ": unknown VM " + vm_id));
  }
  if (!hypervisor_->resumes_from_checkpoint()) {
    return Result<MigrationBundle>(Error(
        ErrorCode::kFailedPrecondition,
        config_.name + ": backend '" + hypervisor_->type() +
            "' cannot checkpoint; live state would be lost by migration"));
  }
  auto vm = hypervisor_->snapshot_vm(vm_id);
  if (!vm.has_value()) {
    return Result<MigrationBundle>(
        Error(ErrorCode::kNotFound, config_.name + ": hypervisor lost " + vm_id));
  }
  if (vm->power == hv::PowerState::kRunning) {
    VMP_RETURN_IF_ERROR_AS(hypervisor_->suspend_vm(vm_id), MigrationBundle);
    vm = hypervisor_->snapshot_vm(vm_id);
  }
  MigrationBundle bundle;
  bundle.source_vm_id = vm_id;
  bundle.source_dir = vm->layout.dir;
  bundle.spec = vm->spec;
  bundle.guest = vm->guest;
  bundle.domain = domain->second;
  bundle.golden_id = vm->golden_id;
  return bundle;
}

Result<classad::ClassAd> VmPlant::migrate_in(const MigrationBundle& bundle) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (hypervisor_->active_instances() + inflight_creates_ >= config_.max_vms) {
    return Result<classad::ClassAd>(Error(
        ErrorCode::kResourceExhausted, config_.name + ": at VM capacity"));
  }
  if (!hypervisor_->resumes_from_checkpoint()) {
    return Result<classad::ClassAd>(
        Error(ErrorCode::kFailedPrecondition,
              config_.name + ": backend cannot resume a migrated checkpoint"));
  }
  auto network = allocator_.acquire(bundle.domain);
  if (!network.ok()) return network.propagate<classad::ClassAd>();

  const std::string vm_id = vm_ids_.next();
  const std::string clone_dir = config_.clone_base_dir + "/" + vm_id;
  auto copied = store_->copy_tree(bundle.source_dir, clone_dir);
  if (!copied.ok()) {
    (void)allocator_.release(bundle.domain);
    return copied.propagate<classad::ClassAd>();
  }

  auto imported = hypervisor_->import_vm(clone_dir, bundle.spec, bundle.guest,
                                         vm_id, /*suspended=*/true,
                                         bundle.golden_id);
  if (!imported.ok()) {
    (void)store_->remove_tree(clone_dir);
    (void)allocator_.release(bundle.domain);
    return imported.propagate<classad::ClassAd>();
  }
  Status started = hypervisor_->start_vm(vm_id);
  if (!started.ok()) {
    (void)hypervisor_->destroy_vm(vm_id);
    (void)allocator_.release(bundle.domain);
    return started.propagate<classad::ClassAd>();
  }

  classad::ClassAd ad;
  ad.set_string(attrs::kVmId, vm_id);
  ad.set_string(attrs::kPlant, config_.name);
  ad.set_string(attrs::kBackend, hypervisor_->type());
  ad.set_string(attrs::kDomain, bundle.domain);
  ad.set_string(attrs::kMigratedFrom, bundle.source_vm_id);
  ad.set_string(attrs::kNetwork, network.value());
  ad.set_integer(attrs::kMemoryBytes,
                 static_cast<std::int64_t>(bundle.spec.memory_bytes));
  ad.set_integer(attrs::kCloneBytesCopied,
                 static_cast<std::int64_t>(copied.value().bytes_written));
  info_.store(vm_id, ad);
  (void)monitor_->refresh(vm_id);
  vm_domains_[vm_id] = bundle.domain;
  kLog.info() << config_.name << ": adopted migrated VM " << vm_id
              << " (was " << bundle.source_vm_id << ")";
  return info_.query(vm_id);
}

Status VmPlant::resume_after_failed_migration(const std::string& vm_id) {
  return hypervisor_->start_vm(vm_id);
}

std::size_t VmPlant::active_vms() const {
  return hypervisor_->active_instances();
}

std::uint64_t VmPlant::resident_memory_bytes() const {
  return hypervisor_->resident_memory_bytes();
}

std::size_t VmPlant::inflight_creates() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return inflight_creates_;
}

// ---------------------------------------------------------------------------
// Bus integration
// ---------------------------------------------------------------------------

Status VmPlant::attach_to_bus(net::MessageBus* bus,
                              net::ServiceRegistry* registry) {
  // A bid fan-out may deliver here on a helper thread: an estimate is
  // thread-safe and consults no fault point (DESIGN.md §6).
  VMP_RETURN_IF_ERROR(bus->register_endpoint(
      bus_address(),
      [this](const net::Message& m) { return handle_message(m); },
      net::Delivery::kParallel));
  bus_ = bus;
  registry_ = registry;
  if (registry_ != nullptr) {
    net::ServiceRecord record;
    record.type = "vmplant";
    record.address = bus_address();
    record.properties["backend"] = config_.backend;
    record.properties["max-vms"] = std::to_string(config_.max_vms);
    registry_->publish(record);
  }
  return Status();
}

void VmPlant::detach_from_bus() {
  if (bus_ != nullptr) {
    (void)bus_->unregister_endpoint(bus_address());
    bus_ = nullptr;
  }
  if (registry_ != nullptr) {
    (void)registry_->withdraw(bus_address());
    registry_ = nullptr;
  }
}

net::Message VmPlant::handle_message(const net::Message& request_msg) {
  const std::string& service = request_msg.service();

  if (service == "vmplant.estimate" || service == "vmplant.create") {
    const xml::Element* req_elem = request_msg.body().child("create-request");
    if (req_elem == nullptr) {
      return net::Message::fault_to(
          request_msg,
          Error(ErrorCode::kParseError, "missing <create-request>"));
    }
    // A bid prices from the request header (PlantLoad reads the domain and
    // memory), so only a create parses the configuration DAG.
    const bool bidding = service == "vmplant.estimate";
    auto request = bidding ? CreateRequest::header_from_xml(*req_elem)
                           : CreateRequest::from_xml(*req_elem);
    if (!request.ok()) {
      return net::Message::fault_to(request_msg, request.error());
    }
    if (bidding) {
      auto cost = estimate(request.value());
      if (!cost.ok()) return net::Message::fault_to(request_msg, cost.error());
      net::Message response = net::Message::response_to(request_msg);
      xml::Element& bid = response.body().add_child("bid");
      bid.set_attr("plant", config_.name);
      bid.set_attr("cost", util::format_double(cost.value()));
      return response;
    }
    auto ad = create(request.value());
    if (!ad.ok()) return net::Message::fault_to(request_msg, ad.error());
    net::Message response = net::Message::response_to(request_msg);
    ad.value().to_xml(&response.body());
    return response;
  }

  if (service == "vmplant.estimate_batch") {
    // Federation refresh traffic (DESIGN.md §16): one message prices many
    // DAG-classes.  Classes this plant cannot price are simply absent from
    // the reply — a batch never faults as a whole for one bad class.
    net::Message response = net::Message::response_to(request_msg);
    xml::Element& bids = response.body().add_child("bids");
    for (const xml::Element* cls : request_msg.body().children_named("class")) {
      const xml::Element* req_elem = cls->child("create-request");
      if (req_elem == nullptr || !cls->has_attr("key")) continue;
      auto request = CreateRequest::header_from_xml(*req_elem);
      if (!request.ok()) continue;
      auto cost = estimate(request.value());
      if (!cost.ok()) continue;
      xml::Element& bid = bids.add_child("bid");
      bid.set_attr("class", cls->attr("key"));
      bid.set_attr("plant", config_.name);
      bid.set_attr("cost", util::format_double(cost.value()));
    }
    return response;
  }

  if (service == "vmplant.query" || service == "vmplant.collect") {
    const xml::Element* vm_elem = request_msg.body().child("vm");
    if (vm_elem == nullptr || !vm_elem->has_attr("id")) {
      return net::Message::fault_to(
          request_msg, Error(ErrorCode::kParseError, "missing <vm id=...>"));
    }
    const std::string vm_id = vm_elem->attr("id");
    if (service == "vmplant.query") {
      auto ad = query(vm_id);
      if (!ad.ok()) return net::Message::fault_to(request_msg, ad.error());
      net::Message response = net::Message::response_to(request_msg);
      ad.value().to_xml(&response.body());
      return response;
    }
    Status s = collect(vm_id);
    if (!s.ok()) return net::Message::fault_to(request_msg, s.error());
    net::Message response = net::Message::response_to(request_msg);
    response.body().add_child("collected").set_attr("id", vm_id);
    return response;
  }

  return net::Message::fault_to(
      request_msg,
      Error(ErrorCode::kInvalidArgument, "unknown service: " + service));
}

}  // namespace vmp::core
