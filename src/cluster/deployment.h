// SimulatedDeployment: the paper's 8-node testbed in a box.
//
// Owns the full middleware stack — artifact store (sandbox directory),
// warehouse with the paper's golden machines, N VMPlants, message bus,
// service registry, and a VMShop — and drives requests through the REAL
// service path (client -> shop -> bidding -> plant -> PPP -> production
// line -> hypervisor -> storage).  Each creation's phase durations come
// from the TimingModel, fed the accounting the plant returns in its
// classad.
//
// Every run is a sim::Engine timeline.  The paper sends requests strictly
// in sequence (§4.2: "a series of requests, in sequence"), which is the
// default window of one: nothing overlaps and each sample keeps the
// TimingModel's durations exactly.  A wider window (the §4.3/§6 future
// work, bench/concurrency) lets creations overlap; they contend only for
// the warehouse's NFS uplink (a processor-sharing pipe carrying each
// clone's copied bytes) and for their plant's one VMM control process (a
// FIFO for the rest of the clone, the resume/boot).  Time spent behind
// other creations is added to clone_sec.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/timing_model.h"
#include "core/plant.h"
#include "core/shop.h"
#include "federation/federation.h"
#include "net/bus.h"
#include "net/registry.h"
#include "storage/artifact_store.h"
#include "util/error.h"
#include "warehouse/warehouse.h"

namespace vmp::cluster {

struct DeploymentConfig {
  std::size_t plant_count = 8;           // paper: 8-node cluster subset
  std::string backend = "vmware-gsx";
  std::string cost_model = "memory-available";  // the prototype's bid model
  std::size_t max_vms_per_plant = 32;
  std::size_t host_only_networks = 4;
  TimingConfig timing;
  std::uint64_t seed = 2004;             // experiment RNG seed
  /// Sandbox directory for all artefacts; "" = create under /tmp.
  std::string sandbox_dir;
  /// Wire encoding every bus hop uses (net/codec.h).  kXml is the paper's
  /// §4.1 text format and the default — paper runs stay byte-identical;
  /// kBinary is the compact codec (bench/concurrency's binbus ablation).
  net::WireFormat wire_format = net::WireFormat::kXml;
  /// Federation (DESIGN.md §16).  0 (default) keeps the paper's flat
  /// topology byte-for-byte: plants register publicly, the shop bids
  /// directly.  N > 0 hides the plants behind N ShardBrokers (round-robin
  /// membership): only brokers appear in the registry, so the shop
  /// collects O(N) bids per create regardless of plant_count.
  std::size_t federation_shards = 0;
  /// TTL of each shard's cached aggregate bids (sim-clock seconds).
  double federation_bid_ttl_s = 30.0;
};

/// One completed creation with attributed timing.
struct CreationSample {
  std::size_t sequence = 0;        // global request order (Figure 6 x-axis)
  std::string request_id;
  std::string vm_id;
  std::string plant;
  CreationObservation observation; // the plant's accounting, as timed
  CreationTiming timing;           // clone_sec includes time queued behind
                                   // overlapping creations
  double sim_time_completed = 0.0; // virtual clock at completion
};

class SimulatedDeployment {
 public:
  explicit SimulatedDeployment(DeploymentConfig config);
  ~SimulatedDeployment();

  SimulatedDeployment(const SimulatedDeployment&) = delete;
  SimulatedDeployment& operator=(const SimulatedDeployment&) = delete;

  // -- Access to the stack ----------------------------------------------------
  warehouse::Warehouse& warehouse() { return *warehouse_; }
  core::VmShop& shop() { return *shop_; }
  net::MessageBus& bus() { return bus_; }
  net::ServiceRegistry& registry() { return registry_; }
  storage::ArtifactStore& store() { return *store_; }
  TimingModel& timing_model() { return timing_; }
  core::VmPlant& plant(std::size_t index) { return *plants_.at(index); }
  std::size_t plant_count() const { return plants_.size(); }
  federation::ShardBroker& broker(std::size_t index) {
    return *brokers_.at(index);
  }
  std::size_t broker_count() const { return brokers_.size(); }

  /// Refresh every shard's bid cache (one estimate_batch per member per
  /// shard).  Returns the total refreshed classes; no-op when flat.
  std::size_t refresh_federation();

  /// Execute one request through the real stack and attribute its timing.
  /// Advances the virtual clock.  Failures propagate.
  util::Result<CreationSample> run_request(const core::CreateRequest& request);

  /// Execute a sequence of requests, at most `window` creations in flight
  /// (1, the paper's setting, runs them strictly one after another).  Stops
  /// launching at the first hard failure if `stop_on_error`, otherwise skips
  /// failed creations (the paper's Fig. 4 histograms count only "VMs
  /// successfully created").  Samples come back in request order.
  std::vector<CreationSample> run_sequence(
      const std::vector<core::CreateRequest>& requests,
      bool stop_on_error = false, std::size_t window = 1);

  /// Destroy every VM currently known to the shop-side routing of this
  /// deployment (between experiment phases).
  void collect_all();

  // -- Snapshot ---------------------------------------------------------------
  /// Encode the deployment's durable state (warehouse index + experiment
  /// meta: sim clock, sequence, failure count) as one binary kSnapshot
  /// frame (core/snapshot.h).
  util::Result<std::string> save_snapshot() const;
  /// Restore a save_snapshot() frame into THIS deployment: warehouse index
  /// and experiment counters come back; the sandbox must already hold the
  /// captured images' artefact trees (same-sandbox restore).
  util::Status load_snapshot(std::string_view frame);

  double sim_now() const { return sim_now_; }
  std::size_t creations() const { return sequence_; }
  std::size_t failures() const { return failures_; }
  /// Bytes every run so far moved over the shared NFS uplink.
  double nfs_bytes_moved() const { return nfs_bytes_moved_; }

 private:
  using FailureHandler =
      std::function<void(const core::CreateRequest&, const util::Error&)>;

  /// Send one request through the real shop: the sample carries the
  /// TimingModel's durations for the creation on its own.
  util::Result<CreationSample> launch(const core::CreateRequest& request);
  /// The one timeline behind run_request and run_sequence: a sim::Engine
  /// run from sim_now(), at most `window` creations in flight.
  std::vector<CreationSample> simulate(
      const std::vector<core::CreateRequest>& requests, std::size_t window,
      bool stop_on_error, const FailureHandler& on_failure);

  DeploymentConfig config_;
  std::string owned_sandbox_;  // deleted on destruction if we created it
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  net::MessageBus bus_;
  net::ServiceRegistry registry_;
  std::vector<std::unique_ptr<core::VmPlant>> plants_;
  std::vector<std::unique_ptr<federation::ShardBroker>> brokers_;
  std::unique_ptr<core::VmShop> shop_;
  TimingModel timing_;
  double sim_now_ = 0.0;
  std::size_t sequence_ = 0;
  std::size_t failures_ = 0;
  double nfs_bytes_moved_ = 0.0;
  std::vector<std::string> created_vm_ids_;
};

}  // namespace vmp::cluster
