// Sharded shop federation vs the flat bidding floor (DESIGN.md §16).
//
// The paper's shop collects a bid from EVERY registered plant per request
// (§3.1) — O(plants) messages per creation.  A ShardBroker tier hides the
// plants behind N brokers with TTL'd aggregate-bid caches, so the shop
// collects O(N) bids and the per-plant traffic moves off the create path
// into periodic estimate_batch refreshes (one message per broker member,
// regardless of how many DAG-classes it prices).
//
// This bench measures exactly that trade at grid scale: 10 000 plant
// endpoints served by stub handlers (deterministic cost function, no
// storage or hypervisor behind them — the subject here is the ROUTING
// fabric, and real clone I/O would drown it).  Three measurements:
//
//   fed.flat.p10000          the paper's topology: every plant public,
//                            every create pays a full bidding round;
//   fed.sharded.p10000.s16   16 ShardBrokers x 625 members, warm caches:
//                            creates pay 16 cached bids + 2 forwards;
//   fed.refresh.p10000.s16   one full refresh_all() sweep — the off-path
//                            cost the cache warmth is bought with: one
//                            estimate_batch per member, O(children).
//
// Message and byte counts come from the bus's own call and byte counters
// (requests and replies, bids and create forwards alike), so they are exact
// and deterministic; bench/baselines/federation.json gates the sharded /
// flat throughput ratio (>= 2x) and the flat / sharded bid-message ratio
// (>= 8x) via tools/bench_gate.py "must_exceed".  The flat round's pace
// depends on the host's cores: "fed.flat.p10000.helpers" names the helper
// threads each of its fan-outs woke and the bus's pool size.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "classad/classad.h"
#include "common.h"
#include "core/request.h"
#include "core/shop.h"
#include "federation/federation.h"
#include "net/bus.h"
#include "net/registry.h"
#include "util/strings.h"
#include "workload/request_gen.h"
#include "xml/xml.h"

namespace vmp {
namespace {

constexpr std::size_t kPlants = 10000;
constexpr std::size_t kShards = 16;
constexpr std::size_t kFlatCreates = 16;
constexpr std::size_t kShardedCreates = 256;

/// Deterministic per-plant cost: spreads bids so the auction is real (one
/// strict winner) without any plant-side state.
double stub_cost(std::size_t index) {
  return 10.0 + static_cast<double>((index * 2654435761ull) % 9973) / 100.0;
}

/// Register a stub plant endpoint: prices estimates and estimate_batch
/// from the cost function and answers creates with a minimal classad.
/// No storage, hypervisor, or production line — pure routing target.
void register_stub_plant(net::MessageBus* bus, const std::string& name,
                         std::size_t index) {
  const double cost = stub_cost(index);
  auto handler = [name, cost](const net::Message& m) -> net::Message {
    net::Message response = net::Message::response_to(m);
    if (m.service() == "vmplant.estimate") {
      xml::Element& bid = response.body().add_child("bid");
      bid.set_attr("plant", name);
      bid.set_attr("cost", util::format_double(cost));
    } else if (m.service() == "vmplant.estimate_batch") {
      xml::Element& bids = response.body().add_child("bids");
      for (const xml::Element* cls : m.body().children_named("class")) {
        if (!cls->has_attr("key")) continue;
        xml::Element& bid = bids.add_child("bid");
        bid.set_attr("class", cls->attr("key"));
        bid.set_attr("plant", name);
        bid.set_attr("cost", util::format_double(cost));
      }
    } else {  // create / query / collect
      classad::ClassAd ad;
      ad.set_string(core::attrs::kVmId, name + "-vm");
      ad.set_string(core::attrs::kPlant, name);
      ad.to_xml(&response.body());
    }
    return response;
  };
  // Stateless, so a shop's wide bid fan-out may deliver it in parallel.
  (void)bus->register_endpoint(name, std::move(handler),
                               net::Delivery::kParallel);
}

struct LegResult {
  double throughput_vm_s = 0.0;
  double bid_msgs_per_create = 0.0;
  double bid_bytes_per_create = 0.0;
  std::size_t failures = 0;
};

LegResult run_creates(core::VmShop* shop, net::MessageBus* bus,
                      std::size_t creates) {
  LegResult result;
  const std::uint64_t calls_before = bus->calls_total();
  const std::uint64_t bytes_before = bus->bytes_total();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < creates; ++i) {
    auto ad = shop->create(workload::workspace_request(32, i, "bench.grid"));
    if (!ad.ok()) ++result.failures;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.throughput_vm_s =
      elapsed > 0.0 ? static_cast<double>(creates) / elapsed : 0.0;
  result.bid_msgs_per_create =
      static_cast<double>(bus->calls_total() - calls_before) /
      static_cast<double>(creates);
  result.bid_bytes_per_create =
      static_cast<double>(bus->bytes_total() - bytes_before) /
      static_cast<double>(creates);
  return result;
}

void report_leg(const char* name, const char* topology, const LegResult& r) {
  std::printf("%-24s %14.1f %18.1f %10zu\n", topology, r.throughput_vm_s,
              r.bid_msgs_per_create, r.failures);
  std::printf("BENCH_JSON {\"name\": \"%s\", \"throughput_vm_s\": %.2f, "
              "\"bid_msgs_per_create\": %.2f, \"bid_bytes_per_create\": %.1f, "
              "\"plants\": %zu, \"failures\": %zu}\n",
              name, r.throughput_vm_s, r.bid_msgs_per_create,
              r.bid_bytes_per_create, kPlants, r.failures);
}

LegResult run_flat() {
  net::MessageBus bus;
  net::ServiceRegistry registry;
  for (std::size_t i = 0; i < kPlants; ++i) {
    const std::string name = "plant" + std::to_string(i);
    register_stub_plant(&bus, name, i);
    registry.publish({"vmplant", name, {}});
  }
  core::ShopConfig sc;
  sc.name = "flatshop";
  core::VmShop shop(sc, &bus, &registry);
  (void)shop.attach_to_bus();
  return run_creates(&shop, &bus, kFlatCreates);
}

int run_sharded() {
  net::MessageBus bus;
  net::ServiceRegistry registry;
  std::vector<std::unique_ptr<federation::ShardBroker>> brokers;
  double clock_s = 0.0;
  for (std::size_t s = 0; s < kShards; ++s) {
    federation::ShardBrokerConfig bc;
    bc.name = "shard" + std::to_string(s);
    bc.bid_ttl_s = 1e9;  // refresh is explicit below, never on-path
    auto broker =
        std::make_unique<federation::ShardBroker>(bc, &bus, &registry);
    broker->set_clock([&clock_s] { return clock_s; });
    brokers.push_back(std::move(broker));
  }
  for (std::size_t i = 0; i < kPlants; ++i) {
    const std::string name = "plant" + std::to_string(i);
    register_stub_plant(&bus, name, i);
    brokers[i % kShards]->add_member(name);
  }
  for (auto& broker : brokers) (void)broker->attach_to_bus();

  core::ShopConfig sc;
  sc.name = "shardshop";
  core::VmShop shop(sc, &bus, &registry);
  (void)shop.attach_to_bus();

  // One warm-up create seeds every shard's cache for this DAG-class (the
  // misses run the synchronous refresh once); the measured creates then
  // ride the warm caches, which is the steady state the tier exists for.
  if (!shop.create(workload::workspace_request(32, 0, "bench.grid")).ok()) {
    std::fprintf(stderr, "federation bench: warm-up create failed\n");
    return 1;
  }

  report_leg("fed.sharded.p10000.s16", "sharded (16 brokers)",
             run_creates(&shop, &bus, kShardedCreates));

  // The off-path refresh sweep: how much traffic buys the cache warmth.
  const std::uint64_t calls_before = bus.calls_total();
  const auto start = std::chrono::steady_clock::now();
  std::size_t refreshed = 0;
  for (auto& broker : brokers) refreshed += broker->refresh_all();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::uint64_t msgs = bus.calls_total() - calls_before;
  std::printf("%-24s %14.1f %18zu %10zu\n", "refresh_all sweep",
              elapsed > 0.0 ? refreshed / elapsed : 0.0, msgs,
              std::size_t{0});
  std::printf("BENCH_JSON {\"name\": \"fed.refresh.p10000.s16\", "
              "\"refresh_msgs\": %llu, \"members\": %zu, "
              "\"classes_refreshed\": %zu, \"failures\": 0}\n",
              static_cast<unsigned long long>(msgs), kPlants, refreshed);
  return 0;
}

int run() {
  bench::print_header(
      "Federation routing at grid scale (DESIGN.md §16)",
      "shop bids are O(plants) per create; a ShardBroker tier makes the "
      "create path O(brokers) with off-path batch refresh");
  std::printf("%-24s %14s %18s %10s\n", "topology", "creates/s",
              "bid msgs/create", "failures");

  report_leg("fed.flat.p10000", "flat (paper §3.1)", run_flat());
  bench::print_fan_out_helpers("fed.flat.p10000", kPlants);
  return run_sharded();
}

}  // namespace
}  // namespace vmp

int main() { return vmp::run(); }
