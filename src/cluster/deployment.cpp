#include "cluster/deployment.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <optional>

#include "core/request.h"
#include "sim/engine.h"
#include "sim/resources.h"
#include "util/logging.h"

namespace vmp::cluster {

using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

const util::Logger kLog("deployment");

std::string make_sandbox() {
  static std::atomic<std::uint64_t> counter{0};
  const auto base = std::filesystem::temp_directory_path() / "vmplants-sim";
  const std::string dir =
      (base / (std::to_string(::getpid()) + "-" +
               std::to_string(counter.fetch_add(1))))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

SimulatedDeployment::SimulatedDeployment(DeploymentConfig config)
    : config_(std::move(config)),
      bus_(net::BusConfig{config_.wire_format, config_.seed ^ 0xb05}),
      timing_(config_.timing, config_.seed) {
  std::string sandbox = config_.sandbox_dir;
  if (sandbox.empty()) {
    sandbox = make_sandbox();
    owned_sandbox_ = sandbox;
  }
  store_ = std::make_unique<storage::ArtifactStore>(sandbox);
  warehouse_ = std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");

  // Sharded federation (DESIGN.md §16): plants stay OFF the public
  // registry — only their shard broker is discoverable, like plants
  // behind a private-network gateway (paper §3.3).
  const bool sharded = config_.federation_shards > 0;
  for (std::size_t i = 0; i < config_.plant_count; ++i) {
    core::PlantConfig pc;
    pc.name = "plant" + std::to_string(i);
    pc.backend = config_.backend;
    pc.host_memory_bytes = config_.timing.host_memory_bytes;
    pc.max_vms = config_.max_vms_per_plant;
    pc.host_only_networks = config_.host_only_networks;
    pc.cost_model = config_.cost_model;
    auto plant =
        std::make_unique<core::VmPlant>(pc, store_.get(), warehouse_.get());
    auto attached = plant->attach_to_bus(&bus_, sharded ? nullptr : &registry_);
    if (!attached.ok()) {
      kLog.error() << "plant attach failed: " << attached.to_string();
    }
    plants_.push_back(std::move(plant));
  }

  if (sharded) {
    for (std::size_t s = 0; s < config_.federation_shards; ++s) {
      federation::ShardBrokerConfig bc;
      bc.name = "shard" + std::to_string(s);
      bc.bid_ttl_s = config_.federation_bid_ttl_s;
      auto broker =
          std::make_unique<federation::ShardBroker>(bc, &bus_, &registry_);
      broker->set_clock([this] { return sim_now_; });
      brokers_.push_back(std::move(broker));
    }
    for (std::size_t i = 0; i < plants_.size(); ++i) {
      brokers_[i % brokers_.size()]->add_member(plants_[i]->bus_address());
    }
    for (auto& broker : brokers_) {
      auto attached = broker->attach_to_bus();
      if (!attached.ok()) {
        kLog.error() << "broker attach failed: " << attached.to_string();
      }
    }
  }

  core::ShopConfig sc;
  sc.name = "vmshop";
  sc.tie_break_seed = config_.seed ^ 0x5b0b;
  shop_ = std::make_unique<core::VmShop>(sc, &bus_, &registry_);
  auto attached = shop_->attach_to_bus();
  if (!attached.ok()) {
    kLog.error() << "shop attach failed: " << attached.to_string();
  }
}

SimulatedDeployment::~SimulatedDeployment() {
  shop_.reset();
  brokers_.clear();
  plants_.clear();
  warehouse_.reset();
  store_.reset();
  if (!owned_sandbox_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(owned_sandbox_, ec);
  }
}

Result<CreationSample> SimulatedDeployment::launch(
    const core::CreateRequest& request) {
  const std::size_t bidding_plants = registry_.discover("vmplant").size();

  auto ad = shop_->create(request);
  if (!ad.ok()) {
    ++failures_;
    return ad.propagate<CreationSample>();
  }

  // Attribute timing from the plant's accounting.
  auto attr_u64 = [&](const char* name) -> std::uint64_t {
    const auto v = ad.value().get_integer(name);
    return v.has_value() && *v >= 0 ? static_cast<std::uint64_t>(*v) : 0;
  };

  CreationObservation obs;
  obs.backend = ad.value().get_string(core::attrs::kBackend).value_or("vmware-gsx");
  obs.memory_bytes = attr_u64(core::attrs::kMemoryBytes);
  obs.clone_bytes_copied = attr_u64(core::attrs::kCloneBytesCopied);
  obs.clone_links = attr_u64(core::attrs::kCloneLinks);
  obs.resident_before_bytes = attr_u64(core::attrs::kResidentBeforeBytes);
  obs.active_vms_before = attr_u64(core::attrs::kActiveVmsBefore);
  obs.guest_actions = attr_u64(core::attrs::kActionsExecuted);
  obs.isos_connected = attr_u64(core::attrs::kIsosConnected);
  obs.bidding_plants = bidding_plants;
  obs.speculative_hit =
      ad.value().get_boolean(core::attrs::kSpeculativeHit).value_or(false);

  CreationSample sample;
  sample.sequence = ++sequence_;
  sample.request_id = request.request_id;
  sample.vm_id = ad.value().get_string(core::attrs::kVmId).value_or("");
  sample.plant = ad.value().get_string(core::attrs::kPlant).value_or("");
  sample.timing = timing_.time_creation(obs);
  sample.observation = std::move(obs);

  created_vm_ids_.push_back(sample.vm_id);
  return sample;
}

std::vector<CreationSample> SimulatedDeployment::simulate(
    const std::vector<core::CreateRequest>& requests, std::size_t window,
    bool stop_on_error, const FailureHandler& on_failure) {
  // A wait shorter than the pipe's one-nanosecond completion tolerance is
  // clock rounding, not contention: a creation that overlapped nothing
  // keeps the TimingModel's clone_sec bit for bit.
  const auto queued = [](double wait) { return wait > 1e-9 ? wait : 0.0; };

  sim::Engine engine;
  sim::SharedBandwidth nfs(&engine, config_.timing.nfs_copy_bytes_per_sec,
                           "nfs");
  std::map<std::string, sim::FifoServer> vmm;  // one per plant, by name
  std::vector<CreationSample> out;
  std::size_t next = 0;
  std::size_t in_flight = 0;
  bool stopped = false;

  // Fill the window.  Each admitted creation runs the real shop_->create
  // now, then plays its clone phase: the copied bytes over the NFS pipe,
  // the rest of clone_sec on its plant's VMM.  Configuration and the
  // shop's bid round contend for nothing, so the creation completes
  // config_sec + shop_sec after its clone.
  std::function<void()> admit = [&] {
    sim_now_ = engine.now();
    while (!stopped && in_flight < window && next < requests.size()) {
      const core::CreateRequest& request = requests[next++];
      auto launched = launch(request);
      if (!launched.ok()) {
        on_failure(request, launched.error());
        stopped = stop_on_error;
        continue;
      }
      ++in_flight;
      const std::size_t i = out.size();
      out.push_back(std::move(launched).value());
      const double start = engine.now();
      const double bytes =
          static_cast<double>(out[i].observation.clone_bytes_copied);
      const double transfer = bytes / nfs.capacity();
      nfs.start(bytes, [&, i, start, transfer] {
        const double copied = engine.now();
        const double rest = std::max(0.0, out[i].timing.clone_sec - transfer);
        sim::FifoServer& plant_vmm =
            vmm.try_emplace(out[i].plant, &engine, 1).first->second;
        plant_vmm.submit(rest, [&, i, start, transfer, copied, rest] {
          const double behind = queued(copied - start - transfer) +
                                queued(engine.now() - copied - rest);
          CreationTiming& timing = out[i].timing;
          timing.clone_sec += behind;
          timing.total_sec += behind;
          engine.schedule_at(start + timing.total_sec, [&, i] {
            out[i].sim_time_completed = engine.now();
            --in_flight;
            admit();
          });
        });
      });
    }
  };
  engine.schedule_at(sim_now_, admit);
  engine.run();
  nfs_bytes_moved_ += nfs.total_transferred();
  return out;
}

Result<CreationSample> SimulatedDeployment::run_request(
    const core::CreateRequest& request) {
  std::optional<Error> failure;
  auto samples = simulate({request}, 1, true,
                          [&](const core::CreateRequest&, const Error& error) {
                            failure = error;
                          });
  if (failure) return *failure;
  return std::move(samples.front());
}

std::vector<CreationSample> SimulatedDeployment::run_sequence(
    const std::vector<core::CreateRequest>& requests, bool stop_on_error,
    std::size_t window) {
  return simulate(requests, std::max<std::size_t>(window, 1), stop_on_error,
                  [](const core::CreateRequest& request, const Error& error) {
                    kLog.warn() << "creation failed for " << request.request_id
                                << ": " << error.to_string();
                  });
}

std::size_t SimulatedDeployment::refresh_federation() {
  std::size_t refreshed = 0;
  for (auto& broker : brokers_) refreshed += broker->refresh_all();
  return refreshed;
}

void SimulatedDeployment::collect_all() {
  for (const std::string& vm_id : created_vm_ids_) {
    (void)shop_->destroy(vm_id);
  }
  created_vm_ids_.clear();
}

}  // namespace vmp::cluster
