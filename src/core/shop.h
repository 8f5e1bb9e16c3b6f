// The VMShop front end.
//
// Paper, Section 3.1: "VMShop provides a single logical point of contact
// for clients to request three core services: create a VM instance, query
// information about an active VM instance, and destroy (collect) an active
// VM instance. ... VMShop is responsible for selecting a VMPlant for the
// creation of a virtual machine.  This process is implemented through a
// communication API and a binding protocol that allows VMShop to request
// and collect bids containing estimated VM creation costs from VMPlants."
//
// The shop discovers plants through the service registry, gathers bids over
// the message bus, picks the cheapest (random choice among ties, as in the
// paper's worked example), and forwards the creation.  If the chosen plant
// fails, the next-best bid is tried — bid collection is cheap, creations
// are not.  The vmid->plant routing map is a cache: the authoritative
// classad lives at the plant (Section 3.1's failure-restoration argument),
// and the shop can rebuild routing by broadcasting queries.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "classad/classad.h"
#include "core/admission.h"
#include "core/request.h"
#include "net/bus.h"
#include "net/registry.h"
#include "util/error.h"
#include "util/random.h"
#include "util/retry.h"

namespace vmp::lifecycle {
class LifecycleManager;
}
namespace vmp::warehouse {
struct GoldenImage;
}

namespace vmp::core {

/// One collected bid.
struct Bid {
  std::string plant_address;
  double cost = 0.0;
};

struct ShopConfig {
  std::string name = "vmshop";
  std::uint64_t tie_break_seed = 42;
  /// Retry policy for the creation leg of a request.  Transport-level
  /// failures (lost or timed-out bus calls) are retried against the same
  /// plant with exponential backoff in sim-time; application faults
  /// reported by a plant mark it failed for the rest of the request and
  /// trigger failover to the next-best bid.
  util::RetryPolicy retry;
  /// How strongly plant health (from the fleet aggregator, [0, 1]) penalizes
  /// a bid: effective cost = cost * (1 + weight * (1 - health)).  0 (the
  /// default) disables the penalty entirely — selection is byte-for-byte
  /// the paper's cheapest-bid-with-random-ties, consuming the tie-break RNG
  /// identically.
  double health_penalty_weight = 0.0;
  /// Admission control for the creation path (DESIGN.md §10): at most this
  /// many creations in flight at once, the rest queueing up to
  /// admission_queue_limit before callers are rejected with
  /// kResourceExhausted.  0 (default) = unlimited, no admission control.
  std::size_t max_inflight_creates = 0;
  std::size_t admission_queue_limit = 16;
  /// Per-bid deadline (modeled; the in-process bus has no wall-clock
  /// deadline).  A bidder that cannot answer within this budget — the
  /// fault::points::kShopBid hook firing, or a transport-class failure
  /// from the bus — is SKIPPED for this round, never stalls collection,
  /// and never disqualifies the others.  0 keeps the legacy behavior of
  /// waiting on every bus call (the hook still fires when armed).
  double bid_timeout_s = 0.0;
};

class VmShop {
 public:
  VmShop(ShopConfig config, net::MessageBus* bus,
         net::ServiceRegistry* registry);
  ~VmShop();

  const std::string& name() const { return config_.name; }

  // -- Client-facing services -------------------------------------------------
  /// Create: bid collection, plant selection, creation, routing update.
  util::Result<classad::ClassAd> create(const CreateRequest& request);

  /// Query an active VM at its routed plant, or by broadcast when there is
  /// no route or the route is stale (kNotFound there).  Any other failure
  /// at the routed plant, such as kUnavailable, is returned as is.
  /// Refreshes the shop-side classad cache.
  util::Result<classad::ClassAd> query(const std::string& vm_id);

  /// Cache-first query (paper §3.1: "VMShop may ... cache classad
  /// information in the information system to speed up queries").  Serves
  /// the last classad seen for this VM without a plant round-trip; falls
  /// through to query() (its route-then-find rule) on a miss.  Cached ads can be stale until the next
  /// query()/create(); destroy() invalidates.
  util::Result<classad::ClassAd> cached_query(const std::string& vm_id);

  /// Cache statistics (diagnostics / tests).
  std::uint64_t cache_hits() const;
  std::size_t cache_size() const;

  /// Destroy (collect) an active VM: one vmplant.collect to the plant the
  /// routing cache names.  Without a route, or when that plant no longer
  /// has the VM (kNotFound: a stale route), the owner is found by the
  /// query broadcast and collected there.  Any other failure of the
  /// collect is returned as is.
  util::Status destroy(const std::string& vm_id);

  /// Publish a golden image to the warehouse through the lifecycle
  /// manager's quota admission (paper §3.2: installers publish images "for
  /// subsequent instantiations through VMPlant").  kFailedPrecondition when
  /// no lifecycle manager is attached; kResourceExhausted is the warehouse
  /// backpressure signal — the budget is full and eviction could not make
  /// room, so the installer must retry later or publish elsewhere.
  util::Status publish_image(const warehouse::GoldenImage& image);

  /// Install the lifecycle manager publish_image()/vmshop.publish admit
  /// through.  Install during setup — not synchronized.
  void set_lifecycle(lifecycle::LifecycleManager* lifecycle) {
    lifecycle_ = lifecycle;
  }

  // -- Bidding (exposed for tests and the cost-function bench) ----------------
  /// Collect bids for a request from every registered plant.  Plants that
  /// refuse (fault) are skipped; transport failures are skipped too.
  std::vector<Bid> collect_bids(const CreateRequest& request);

  /// Lowest effective-cost bid.  Ties prefer the healthiest plant (when a
  /// health provider is installed and the penalty weight is positive), then
  /// break uniformly at random (seeded).
  std::optional<Bid> select_bid(const std::vector<Bid>& bids);

  /// Install the per-plant health source consulted by select_bid (e.g.
  /// [&agg](const std::string& p) { return agg.health(p); }).  Plants the
  /// provider does not know should score 1.0 (no penalty).  Install during
  /// setup — swapping mid-request is not synchronized.
  void set_health_provider(std::function<double(const std::string&)> provider) {
    health_provider_ = std::move(provider);
  }

  // -- Bus integration ---------------------------------------------------------
  /// Register the shop endpoint (services vmshop.create / query / destroy)
  /// and publish it in the registry.
  util::Status attach_to_bus();
  void detach_from_bus();
  const std::string& bus_address() const { return config_.name; }

  /// Number of creations served (diagnostics).
  std::uint64_t creations() const {
    return creations_.load(std::memory_order_relaxed);
  }

  /// Transport-level retries granted across all create() calls.
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  /// Plants abandoned mid-request (failovers to the next-best bid).
  std::uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  /// Bids skipped during collection because the bidder vanished between
  /// the registry snapshot and the bid call, timed out (the shop.bid
  /// fault hook / bid_timeout_s), or failed at the transport layer.
  /// Application-level refusals ("declined") are not counted here.
  std::uint64_t bids_skipped() const {
    return bids_skipped_.load(std::memory_order_relaxed);
  }
  /// Total exponential-backoff delay charged, in virtual sim-seconds.
  double retry_backoff_s() const;

  /// The creation-path admission controller (tests and diagnostics).
  const AdmissionController& admission() const { return admission_; }

 private:
  net::Message handle_message(const net::Message& request_msg);
  util::Result<classad::ClassAd> create_impl(const CreateRequest& request);
  util::Result<classad::ClassAd> query_at(const std::string& plant_address,
                                          const std::string& vm_id);
  /// Route-then-find, shared by query() and destroy(): runs `at_plant` at
  /// the VM's routed plant and returns its answer, unless there is no route
  /// or that plant answers kNotFound.  Then the query broadcast finds the
  /// owner, which becomes the route, and `at_plant` runs there with the
  /// owner's ad as `found` (null at the routed plant).  Other failures at
  /// the routed plant are returned: an unreachable plant is not a sign
  /// that the VM is gone.
  using AtPlant = std::function<util::Result<classad::ClassAd>(
      const std::string& plant, classad::ClassAd* found)>;
  util::Result<classad::ClassAd> route_then_find(const std::string& vm_id,
                                                 const AtPlant& at_plant);
  /// vmplant.collect at one plant; success drops the VM's route and ad.
  util::Status collect_at(const std::string& plant_address,
                          const std::string& vm_id);

  /// One clamped health sample per plant in `bids`.  The provider (the
  /// fleet aggregator) is mutated concurrently by its sweep thread, so a
  /// selection pass must read each plant's health exactly once and reuse
  /// the cached value for every comparison — otherwise the min/filter/sort
  /// passes can disagree with each other (empty candidate set, comparator
  /// without strict weak ordering).  Empty when the penalty is off.
  std::map<std::string, double> snapshot_health(
      const std::vector<Bid>& bids) const;
  /// Bid cost after the health penalty under one health snapshot
  /// (identity for plants the snapshot lacks, so with the penalty off).
  double effective_cost_in(const Bid& bid,
                           const std::map<std::string, double>& health) const;
  /// Stable sort by effective cost under one health snapshot.
  void sort_by_effective_cost(std::vector<Bid>* bids) const;

  ShopConfig config_;
  net::MessageBus* bus_;
  net::ServiceRegistry* registry_;
  /// Guarded by mutex_: concurrent create() calls draw tie-break picks
  /// from one seeded stream (the order of draws under contention is
  /// scheduling-dependent, but the stream itself stays intact — and
  /// single-threaded callers remain bit-for-bit reproducible).
  util::SplitMix64 tie_rng_;
  std::function<double(const std::string&)> health_provider_;
  lifecycle::LifecycleManager* lifecycle_ = nullptr;
  AdmissionController admission_;
  mutable std::mutex mutex_;
  std::map<std::string, std::string> vm_to_plant_;
  std::map<std::string, classad::ClassAd> ad_cache_;
  std::uint64_t cache_hits_ = 0;  // guarded by mutex_
  std::atomic<std::uint64_t> creations_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> bids_skipped_{0};
  double retry_backoff_s_ = 0.0;  // guarded by mutex_
  bool attached_ = false;
};

}  // namespace vmp::core
