// Full-stack integration tests: client -> shop -> bidding -> plant -> PPP ->
// production line -> hypervisor -> storage, plus virtual networking and
// concurrent clients on real threads.
#include <gtest/gtest.h>

#include <filesystem>
#include <future>

#include "cluster/deployment.h"
#include "core/plant.h"
#include "core/shop.h"
#include "util/thread_pool.h"
#include "vnet/vnet_bridge.h"
#include "workload/dag_library.h"
#include "workload/request_gen.h"

namespace vmp {
namespace {

constexpr std::uint64_t kMb = 1ull << 20;

TEST(IntegrationTest, InVigoWorkspaceEndToEnd) {
  cluster::DeploymentConfig config;
  config.plant_count = 2;
  cluster::SimulatedDeployment deployment(config);
  ASSERT_TRUE(workload::publish_paper_goldens(&deployment.warehouse()).ok());

  // The Figure 3 flow: a user asks the In-VIGO portal for a workspace.
  core::CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  auto ad = deployment.shop().create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();

  // Paper-visible classad contents: VMID + access information.
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();
  EXPECT_FALSE(vm_id.empty());
  EXPECT_EQ(ad.value().get_string(core::attrs::kIp).value(), "10.64.0.2");
  EXPECT_EQ(ad.value().get_string(core::attrs::kOs).value(),
            "linux-mandrake-8.1");
  EXPECT_EQ(ad.value().get_integer(core::attrs::kActionsSatisfied).value(), 3);

  // The VM is queryable and destroyable through the shop.
  EXPECT_TRUE(deployment.shop().query(vm_id).ok());
  EXPECT_TRUE(deployment.shop().destroy(vm_id).ok());
  EXPECT_FALSE(deployment.shop().query(vm_id).ok());
}

TEST(IntegrationTest, CloneConfigurationIsolatedFromGolden) {
  cluster::DeploymentConfig config;
  config.plant_count = 1;
  cluster::SimulatedDeployment deployment(config);
  ASSERT_TRUE(workload::publish_paper_goldens(&deployment.warehouse()).ok());

  auto a = deployment.shop().create(workload::workspace_request(32, 0, "d"));
  auto b = deployment.shop().create(workload::workspace_request(32, 1, "d"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // Two clones of the same golden hold independent guest state.
  const auto* vm_a = deployment.plant(0).hypervisor().find(
      a.value().get_string(core::attrs::kVmId).value());
  const auto* vm_b = deployment.plant(0).hypervisor().find(
      b.value().get_string(core::attrs::kVmId).value());
  ASSERT_NE(vm_a, nullptr);
  ASSERT_NE(vm_b, nullptr);
  EXPECT_TRUE(vm_a->guest.users.count("user0"));
  EXPECT_FALSE(vm_a->guest.users.count("user1"));
  EXPECT_TRUE(vm_b->guest.users.count("user1"));
  EXPECT_NE(vm_a->guest.ip, vm_b->guest.ip);

  // The golden image's guest state is untouched.
  auto golden = deployment.warehouse().lookup("golden-32mb");
  ASSERT_TRUE(golden.ok());
  EXPECT_TRUE(golden.value().guest.users.empty());
}

TEST(IntegrationTest, WarehousePublishFromConfiguredVm) {
  // The paper's "VM installers publish customized images" flow: create a
  // VM, customize it beyond the golden state, suspend, publish, and then
  // instantiate the published image for another request.
  cluster::DeploymentConfig config;
  config.plant_count = 1;
  cluster::SimulatedDeployment deployment(config);
  ASSERT_TRUE(workload::publish_paper_goldens(&deployment.warehouse()).ok());

  core::CreateRequest request = workload::workspace_request(64, 0, "d");
  dag::Action extra("X", "install-package");
  extra.set_param("package", "matlab-6.5");
  ASSERT_TRUE(request.config.add_action(extra).ok());
  ASSERT_TRUE(request.config.add_edge("I", "X").ok());

  auto ad = deployment.plant(0).create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();

  // Suspend and publish the configured machine as a new golden.
  auto& hypervisor = deployment.plant(0).hypervisor();
  ASSERT_TRUE(hypervisor.suspend_vm(vm_id).ok());
  const hv::VmInstance* vm = hypervisor.find(vm_id);
  std::vector<std::string> performed;
  const auto topo_order = request.config.topological_sort().value();
  for (const std::string& id : topo_order) {
    performed.push_back(request.config.action(id)->signature());
  }
  auto published = deployment.warehouse().publish_new(
      "golden-matlab", "vmware-gsx", vm->spec, vm->guest, performed);
  ASSERT_TRUE(published.ok()) << published.error().to_string();

  // A new request wanting exactly this environment is satisfied fully from
  // cache: zero remaining configuration actions.
  core::ProductionProcessPlanner ppp(&deployment.warehouse());
  auto plan = ppp.plan(request);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().golden.id, "golden-matlab");
  EXPECT_TRUE(plan.value().remaining_plan.empty());
}

TEST(IntegrationTest, VnetBridgesCreatedVmToClientDomain) {
  // Create a VM, then wire its host-only network to a client home network
  // through VNET server/proxy and verify layer-2 reachability.
  cluster::DeploymentConfig config;
  config.plant_count = 1;
  cluster::SimulatedDeployment deployment(config);
  ASSERT_TRUE(workload::publish_paper_goldens(&deployment.warehouse()).ok());

  auto ad = deployment.shop().create(workload::workspace_request(32, 0, "ufl.edu"));
  ASSERT_TRUE(ad.ok());
  const std::string network =
      ad.value().get_string(core::attrs::kNetwork).value();
  const std::string vm_mac_text =
      ad.value().get_string(core::attrs::kMac).value();
  auto vm_mac = vnet::MacAddress::parse(vm_mac_text);
  ASSERT_TRUE(vm_mac.ok()) << vm_mac_text;

  auto sw = deployment.plant(0).allocator().switch_for(network);
  ASSERT_TRUE(sw.ok());

  // Attach the VM's NIC (the guest's MAC) to its host-only network.
  std::vector<vnet::EthernetFrame> vm_rx;
  const auto vm_port = sw.value()->attach(
      [&](const vnet::EthernetFrame& f) { vm_rx.push_back(f); });

  // Client side: home LAN + proxy; plant side: VNET server; one tunnel.
  vnet::HostOnlySwitch home("ufl-lan");
  std::vector<vnet::EthernetFrame> client_rx;
  const vnet::MacAddress client_mac = vnet::MacAddress::from_index(999);
  const auto client_port = home.attach(
      [&](const vnet::EthernetFrame& f) { client_rx.push_back(f); });

  vnet::VnetServer server("vnet-plant0", sw.value());
  vnet::VnetProxy proxy("proxy-ufl", &home);
  vnet::Tunnel tunnel("t", {"gateway", "ssh:4096"});
  ASSERT_TRUE(server.connect(&tunnel).ok());
  ASSERT_TRUE(proxy.connect(&tunnel).ok());
  tunnel.bind(&server, &proxy);

  // VM -> client.
  vnet::EthernetFrame out;
  out.src = vm_mac.value();
  out.dst = client_mac;
  out.payload = "vnc-handshake";
  ASSERT_TRUE(sw.value()->inject(vm_port, out).ok());
  ASSERT_EQ(client_rx.size(), 1u);
  EXPECT_EQ(client_rx[0].payload, "vnc-handshake");

  // Client -> VM (MACs learned from the first exchange).
  vnet::EthernetFrame back;
  back.src = client_mac;
  back.dst = vm_mac.value();
  back.payload = "vnc-reply";
  ASSERT_TRUE(home.inject(client_port, back).ok());
  ASSERT_EQ(vm_rx.size(), 1u);
  EXPECT_EQ(vm_rx[0].payload, "vnc-reply");
}

TEST(IntegrationTest, ConcurrentClientsOnRealThreads) {
  // Thread-safety of shop/plant/warehouse/allocator under concurrent
  // clients (the real-backend path, not the DES).
  cluster::DeploymentConfig config;
  config.plant_count = 4;
  config.max_vms_per_plant = 32;
  cluster::SimulatedDeployment deployment(config);
  ASSERT_TRUE(workload::publish_paper_goldens(&deployment.warehouse()).ok());

  util::ThreadPool pool(8);
  std::vector<std::future<bool>> results;
  for (int i = 0; i < 32; ++i) {
    results.push_back(pool.submit([&deployment, i] {
      auto ad = deployment.shop().create(
          workload::workspace_request(32, i, "domain" + std::to_string(i % 4)));
      if (!ad.ok()) return false;
      const auto vm_id = ad.value().get_string(core::attrs::kVmId);
      return vm_id.has_value() &&
             deployment.shop().query(*vm_id).ok();
    }));
  }
  int successes = 0;
  for (auto& f : results) successes += f.get();
  EXPECT_EQ(successes, 32);

  std::size_t total_vms = 0;
  for (std::size_t i = 0; i < deployment.plant_count(); ++i) {
    total_vms += deployment.plant(i).active_vms();
  }
  EXPECT_EQ(total_vms, 32u);
}

TEST(IntegrationTest, ShopSurvivesPlantCrash) {
  // A plant dies mid-deployment; queries for its VMs fail but the shop
  // keeps serving creations on surviving plants.
  std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("vmp-integration-crash-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  {
    storage::ArtifactStore store(root);
    warehouse::Warehouse warehouse(&store, "warehouse");
    ASSERT_TRUE(workload::publish_paper_goldens(&warehouse).ok());
    net::MessageBus bus;
    net::ServiceRegistry registry;

    core::PlantConfig pc0;
    pc0.name = "plant0";
    core::VmPlant plant0(pc0, &store, &warehouse);
    ASSERT_TRUE(plant0.attach_to_bus(&bus, &registry).ok());
    core::PlantConfig pc1;
    pc1.name = "plant1";
    core::VmPlant plant1(pc1, &store, &warehouse);
    ASSERT_TRUE(plant1.attach_to_bus(&bus, &registry).ok());

    core::VmShop shop(core::ShopConfig{}, &bus, &registry);
    ASSERT_TRUE(shop.attach_to_bus().ok());

    auto first = shop.create(workload::workspace_request(32, 0, "d"));
    ASSERT_TRUE(first.ok());

    // Crash plant0 (down + withdrawn, like a host failure).
    bus.set_down("plant0", true);
    registry.withdraw("plant0");

    auto second = shop.create(workload::workspace_request(32, 1, "d2"));
    ASSERT_TRUE(second.ok()) << second.error().to_string();
    EXPECT_EQ(second.value().get_string(core::attrs::kPlant).value(),
              "plant1");
  }
  std::filesystem::remove_all(root);
}

TEST(IntegrationTest, GoldenSizesProduceDistinctCloneCosts) {
  cluster::DeploymentConfig config;
  config.plant_count = 2;
  cluster::SimulatedDeployment deployment(config);
  ASSERT_TRUE(workload::publish_paper_goldens(&deployment.warehouse()).ok());

  auto s32 = deployment.run_request(workload::workspace_request(32, 0, "d"));
  auto s256 = deployment.run_request(workload::workspace_request(256, 1, "d"));
  ASSERT_TRUE(s32.ok());
  ASSERT_TRUE(s256.ok());
  // The memory-state copy dominates: 256 MB clones are several times
  // slower than 32 MB ones (paper Figures 4/5).
  EXPECT_GT(s256.value().timing.clone_sec,
            2.5 * s32.value().timing.clone_sec);
  EXPECT_EQ(s32.value().observation.memory_bytes, 32 * kMb);
  EXPECT_EQ(s256.value().observation.memory_bytes, 256 * kMb);
}

}  // namespace
}  // namespace vmp
