// Grid-site operations day: the paper's §6 future-work features in action.
//
// An operator's session on a two-plant site:
//   1. speculative pre-creation — park clones of the popular golden image
//      so user requests skip the clone+resume phase;
//   2. migration — drain a plant for maintenance by moving its running VM
//      to the other plant (state intact);
//   3. VMBroker — plants inside a private network served indirectly;
//   4. VMArchitect — a router VM bridging two domains' virtual networks.
//
// Build & run:  ./build/examples/grid_site_operations
#include <cstdio>
#include <filesystem>

#include "core/architect.h"
#include "core/migration.h"
#include "core/plant.h"
#include "core/shop.h"
#include "federation/federation.h"
#include "storage/artifact_store.h"
#include "warehouse/warehouse.h"
#include "workload/request_gen.h"

int main() {
  using namespace vmp;

  const auto sandbox =
      std::filesystem::temp_directory_path() / "vmplants-ops-example";
  std::filesystem::remove_all(sandbox);
  storage::ArtifactStore store(sandbox);
  warehouse::Warehouse wh(&store, "warehouse");
  if (!workload::publish_paper_goldens(&wh, {64}).ok()) return 1;

  net::MessageBus bus;
  net::ServiceRegistry registry;
  core::PlantConfig pa;
  pa.name = "plantA";
  core::VmPlant plant_a(pa, &store, &wh);
  core::PlantConfig pb;
  pb.name = "plantB";
  core::VmPlant plant_b(pb, &store, &wh);
  (void)plant_a.attach_to_bus(&bus, &registry);
  (void)plant_b.attach_to_bus(&bus, &registry);
  core::VmShop shop(core::ShopConfig{}, &bus, &registry);
  (void)shop.attach_to_bus();

  // -- 1. Speculative pre-creation -----------------------------------------
  std::printf("== speculative pre-creation\n");
  (void)plant_a.pre_create("golden-64mb", 2);
  std::printf("plantA parked %zu pre-created clones of golden-64mb\n",
              plant_a.speculative_pool_size());
  auto user_vm = plant_a.create(workload::workspace_request(64, 0, "ufl.edu"));
  if (!user_vm.ok()) return 1;
  std::printf("user request adopted a parked clone: SpeculativeHit=%s, "
              "CloneBytesCopied=%lld\n\n",
              user_vm.value().get_boolean(core::attrs::kSpeculativeHit).value()
                  ? "true"
                  : "false",
              static_cast<long long>(
                  user_vm.value()
                      .get_integer(core::attrs::kCloneBytesCopied)
                      .value()));

  // -- 2. Migration: drain plantA -------------------------------------------
  std::printf("== migration (drain plantA for maintenance)\n");
  const std::string vm_id =
      user_vm.value().get_string(core::attrs::kVmId).value();
  auto moved = core::migrate_vm(&plant_a, &plant_b, vm_id);
  if (!moved.ok()) {
    std::fprintf(stderr, "migration failed: %s\n",
                 moved.error().to_string().c_str());
    return 1;
  }
  plant_a.discard_speculative();
  std::printf("%s -> %s (new id %s); plantA now hosts %zu VMs, plantB %zu\n\n",
              vm_id.c_str(),
              moved.value().get_string(core::attrs::kPlant).value().c_str(),
              moved.value().get_string(core::attrs::kVmId).value().c_str(),
              plant_a.active_vms(), plant_b.active_vms());

  // -- 3. Broker: private-network plants ------------------------------------
  std::printf("== broker (plants behind a private network)\n");
  core::PlantConfig ph;
  ph.name = "hiddenplant";
  core::VmPlant hidden(ph, &store, &wh);
  (void)hidden.attach_to_bus(&bus, nullptr);  // bus endpoint, NOT registered
  // A zero TTL never serves a cached bid: every estimate is priced
  // against the members, as a plain gateway broker does.
  federation::ShardBroker broker(
      federation::ShardBrokerConfig{
          .name = "gateway-broker", .bid_markup = 2.0, .bid_ttl_s = 0.0},
      &bus, &registry);
  broker.add_member("hiddenplant");
  (void)broker.attach_to_bus();

  auto bids = shop.collect_bids(workload::workspace_request(64, 1, "wisc.edu"));
  std::printf("shop collected %zu bids:", bids.size());
  for (const core::Bid& bid : bids) {
    std::printf(" %s=%.0f", bid.plant_address.c_str(), bid.cost);
  }
  std::printf("\n\n");

  // -- 4. VMArchitect: cross-domain router ----------------------------------
  std::printf("== VMArchitect (router VM spanning two domains)\n");
  vnet::HostOnlySwitch lan_ufl("ufl-vnet"), lan_wisc("wisc-vnet");
  core::VmArchitect architect("site-architect");
  auto router = architect.deploy_router(
      &plant_a, workload::workspace_request(64, 2, "infra"),
      {{&lan_ufl, "10.10.0.1", "10.10.0.0/24"},
       {&lan_wisc, "10.20.0.1", "10.20.0.0/24"}});
  if (!router.ok()) {
    std::fprintf(stderr, "router deployment failed: %s\n",
                 router.error().to_string().c_str());
    return 1;
  }
  std::printf("router VM %s deployed on %s with %zu interfaces\n",
              router.value().vm_id.c_str(), router.value().plant.c_str(),
              router.value().router->interface_count());

  // Demonstrate forwarding: a ufl host pings a wisc host via the router.
  std::size_t delivered = 0;
  lan_wisc.attach([&](const vnet::EthernetFrame&) { ++delivered; });
  const auto ufl_port = lan_ufl.attach([](const vnet::EthernetFrame&) {});
  vnet::EthernetFrame frame;
  frame.src = vnet::MacAddress::from_index(0x100);
  frame.dst = vnet::MacAddress::broadcast();
  vnet::IpPacket packet;
  packet.dst = vnet::parse_ipv4("10.20.0.5").value();
  packet.data = "cross-domain-ping";
  frame.payload = packet.encode();
  (void)lan_ufl.inject(ufl_port, frame);
  std::printf("cross-domain packet delivered to wisc network: %s "
              "(router forwarded %llu packets)\n",
              delivered ? "yes" : "no",
              static_cast<unsigned long long>(
                  router.value().router->packets_forwarded()));

  (void)architect.teardown(&plant_a, std::move(router).value());
  std::printf("\nsite state: plantA=%zu plantB=%zu hidden=%zu VMs\n",
              plant_a.active_vms(), plant_b.active_vms(), hidden.active_vms());

  std::filesystem::remove_all(sandbox);
  return 0;
}
