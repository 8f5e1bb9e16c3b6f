// Sharded shop federation: a VMBroker hierarchy with cached bid
// aggregation and headroom-aware routing (DESIGN.md §16).
//
// Paper, Section 3.1: the binding protocol lets VMShop "request and
// collect bids containing estimated VM creation costs from VMPlants
// (directly, or indirectly through VMBrokers)", and Section 3.3 sketches
// gateway deployments where plants live behind a private network.  The
// ShardBroker is that indirect tier: it registers as a "vmplant" so shops
// bid against it transparently, while its members stay off the public
// registry, reachable only through the broker's bus endpoint.  With
// bid_ttl_s = 0 it is the plain gateway broker: every estimate and create
// is priced against the members.  With a TTL it is a federation node:
//
//   * it maintains a cached, TTL'd AGGREGATE bid per DAG-class for its
//     subtree.  A fresh cache entry answers the shop's vmplant.estimate
//     in O(1) with zero downstream messages, so a shop over N shards
//     collects bids in O(shards) instead of O(plants);
//   * the cache refreshes off the create path: refresh_all() sends ONE
//     batch message (vmplant.estimate_batch) per child covering every
//     known DAG-class — children that are plants price each class
//     locally, children that are brokers answer from their own caches,
//     so refresh traffic is O(children) per level of the tree;
//   * routing weighs the subtree's remaining lifecycle budget: a
//     headroom provider (typically federation::headroom_from_rollup over
//     the shard's "obs://fleet/metrics" ad, which already carries the
//     LifecycleHeadroomBytes rollup) scales bids up as the shard's disk
//     budget drains, so a noisy installer domain filling one shard's
//     warehouses cannot crowd out the rest of the federation;
//   * degradation is graceful by construction: a stale cache entry that
//     misroutes a create falls back to the next member within the shard,
//     then faults to the shop — whose existing next-best-bid failover
//     moves the create to a surviving subtree.  A dead broker simply
//     stops bidding; the shop keeps creating against the others.
//
// With no brokers configured nothing here runs: flat deployments keep the
// paper's direct bidding, selection order, and RNG consumption
// byte-for-byte.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/info_system.h"
#include "core/request.h"
#include "net/bus.h"
#include "net/registry.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace vmp::federation {

/// The bid-cache key: requests that price identically share one cached
/// aggregate bid.  The paper's cost models (§3.4) bid on plant load plus
/// the client domain's network affinity, so the key is the request's
/// hardware shape plus its domain — not the per-user DAG suffix.
std::string dag_class_key(const core::CreateRequest& request);

struct ShardBrokerConfig {
  std::string name = "shard0";
  /// Added to every aggregate bid (the broker's cut / gateway cost).
  double bid_markup = 0.0;
  /// Cached aggregate bids older than this many clock seconds are stale:
  /// estimates and creates fall back to a synchronous single-class
  /// refresh (counted in <name>.broker.bids.refreshed.count).  The clock is
  /// whatever set_clock installed — wall seconds by default, the sim
  /// clock in deployments.  A value <= 0 never serves from the cache,
  /// under any clock (a frozen one included): every estimate and create
  /// re-prices the class against the members.
  double bid_ttl_s = 30.0;
  /// How strongly subtree headroom pressure scales bids:
  ///   effective = (min member cost + markup) * (1 + weight * pressure)
  /// where pressure = 1 - headroom / subtree_budget_bytes, clamped to
  /// [0, 1].  0 (default) disables the term entirely.
  double headroom_weight = 0.0;
  /// The subtree's total lifecycle disk budget (the pressure
  /// denominator).  0 disables the headroom term even when a provider is
  /// installed.
  std::int64_t subtree_budget_bytes = 0;
};

/// One cached aggregate bid for a DAG-class.
struct CachedBid {
  /// Member bids sorted cheapest-first (the within-shard failover order).
  std::vector<std::pair<double, std::string>> member_bids;
  /// Representative request header (no <dag>) for refreshes, serialized
  /// once.
  std::string request_xml;
  double refreshed_at = -1.0;  // clock seconds; < 0 = never refreshed
  std::uint64_t served = 0;    // estimates answered from this entry
};

class ShardBroker {
 public:
  ShardBroker(ShardBrokerConfig config, net::MessageBus* bus,
              net::ServiceRegistry* registry);
  ~ShardBroker();

  ShardBroker(const ShardBroker&) = delete;
  ShardBroker& operator=(const ShardBroker&) = delete;

  const std::string& name() const { return config_.name; }
  const ShardBrokerConfig& config() const { return config_; }

  /// Add a child's bus address — a plant or another ShardBroker.  The
  /// child must be reachable on the bus but need not be in the public
  /// registry (private-network subtree, paper §3.3).
  void add_member(const std::string& address);
  std::vector<std::string> members() const;

  /// Register the broker endpoint and publish it as a "vmplant" with
  /// property broker=true, so shops bid against it transparently and the
  /// fleet aggregator can tell it apart from a plant.
  util::Status attach_to_bus();
  void detach_from_bus();
  const std::string& bus_address() const { return config_.name; }

  /// Install a time source for TTL bookkeeping (e.g. the deployment's
  /// sim clock); nullptr restores wall seconds since construction.
  void set_clock(std::function<double()> clock);

  /// Install the subtree-headroom source consulted per aggregate bid —
  /// typically headroom_from_rollup over the shard's information system.
  /// nullptr (default) disables the headroom term.
  void set_headroom_provider(std::function<std::int64_t()> provider);
  /// The last headroom reading folded into a bid (diagnostics/export).
  std::int64_t last_headroom_bytes() const;

  /// Refresh every known DAG-class with ONE vmplant.estimate_batch per
  /// member — the off-create-path coherence mechanism.  Returns how many
  /// classes now hold a fresh aggregate.  Thread-safe; bus traffic runs
  /// outside the cache lock.
  std::size_t refresh_all();

  // -- Introspection ----------------------------------------------------------
  std::uint64_t creations_forwarded() const;
  std::uint64_t bids_cached_served() const;
  std::uint64_t bids_refreshed() const;
  std::size_t bid_cache_size() const;
  /// Snapshot of one cache entry (tests).
  std::optional<CachedBid> cached(const std::string& class_key) const;

 private:
  struct Selection {
    std::vector<std::pair<double, std::string>> member_bids;
    double effective_cost = 0.0;
    std::int64_t headroom = 0;
  };

  net::Message handle_message(const net::Message& request_msg);
  net::Message handle_estimate(const net::Message& request_msg);
  net::Message handle_batch(const net::Message& request_msg);
  net::Message handle_create(const net::Message& request_msg);
  net::Message handle_routed(const net::Message& request_msg);

  double now() const;
  /// The headroom pressure multiplier, >= 1.0 (1.0 when disabled).
  double headroom_multiplier(std::int64_t* headroom_out) const;
  /// Serve `class_key` from the cache, refreshing it synchronously (one
  /// batch message per member, this class only) when missing or stale.
  util::Result<Selection> select(const std::string& class_key,
                                 const xml::Element& request_body);
  /// Collect member bids for the classes in `batch` (key -> request xml)
  /// with one vmplant.estimate_batch per member.  Returns per-class
  /// sorted member bids; classes nobody priced are absent.
  std::map<std::string, std::vector<std::pair<double, std::string>>>
  collect_member_bids(const std::vector<std::pair<std::string, std::string>>&
                          batch) const;

  ShardBrokerConfig config_;
  net::MessageBus* bus_;
  net::ServiceRegistry* registry_;

  mutable std::mutex mutex_;
  std::vector<std::string> members_;
  std::map<std::string, CachedBid> cache_;
  std::map<std::string, std::string> vm_to_member_;
  std::function<double()> clock_;
  std::function<std::int64_t()> headroom_provider_;
  mutable std::int64_t last_headroom_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  bool attached_ = false;

  // Metrics: per-broker "<name>.broker.*" (what the fleet aggregator reads
  // per shard; "fleet.broker.*" is their total), plus the process-wide
  // refresh and member-failover counters.
  obs::Counter* refreshes_;
  obs::Counter* member_failovers_;
  obs::Counter* bids_cached_;
  obs::Counter* bids_refreshed_;
  obs::Counter* forwarded_;
  obs::Timer* refresh_seconds_;
  obs::Gauge* cache_size_;
};

/// Read the LifecycleHeadroomBytes rollup a FleetAggregator published as
/// "obs://fleet/metrics" into `info` (the folded
/// fleet_lifecycle_headroom_bytes_gauge attribute).  Returns nullopt when
/// no rollup ad is present.  Bind it as a shard's headroom provider:
///   broker.set_headroom_provider([&info] {
///     return federation::headroom_from_rollup(info).value_or(0);
///   });
std::optional<std::int64_t> headroom_from_rollup(
    const core::VmInformationSystem& info);

}  // namespace vmp::federation
