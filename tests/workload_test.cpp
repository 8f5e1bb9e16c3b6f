// Tests for the workload generators and the periodic VM monitor.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <thread>

#include "core/info_system.h"
#include "dag_reference.h"
#include "hypervisor/gsx.h"
#include "warehouse/warehouse.h"
#include "workload/dag_library.h"
#include "vnet/ethernet.h"
#include "vnet/router.h"
#include "workload/request_gen.h"

namespace vmp::workload {
namespace {

constexpr std::uint64_t kMb = 1ull << 20;

// -- Request generators ----------------------------------------------------------

TEST(RequestGenTest, SequenceHasDistinctIdsUsersAndIps) {
  const auto requests = workspace_requests(64, 128, "ufl.edu");
  ASSERT_EQ(requests.size(), 128u);
  std::set<std::string> ids, ips;
  for (const auto& r : requests) {
    ids.insert(r.request_id);
    ASSERT_TRUE(r.validate().ok()) << r.request_id;
    EXPECT_EQ(r.domain, "ufl.edu");
    EXPECT_EQ(r.hardware.memory_bytes, 64 * kMb);
    const dag::Action* net = r.config.action("D");
    ASSERT_NE(net, nullptr);
    ips.insert(net->param("ip"));
  }
  EXPECT_EQ(ids.size(), 128u);
  EXPECT_EQ(ips.size(), 128u);  // every request its own address
}

TEST(RequestGenTest, IpsStayValidBeyondASingleSubnet) {
  // Request 250+ rolls into the next /24; octets must stay in range.
  for (std::size_t i : {0u, 249u, 250u, 499u, 700u}) {
    const core::CreateRequest r = workspace_request(32, i, "d");
    const std::string ip = r.config.action("D")->param("ip");
    auto parsed = vnet::parse_ipv4(ip);
    EXPECT_TRUE(parsed.ok()) << "request " << i << " ip " << ip;
  }
}

TEST(RequestGenTest, MacAddressesAreWellFormed) {
  for (std::size_t i : {0u, 65535u, 100000u}) {
    const core::CreateRequest r = workspace_request(32, i, "d");
    EXPECT_TRUE(
        vnet::MacAddress::parse(r.config.action("D")->param("mac")).ok());
  }
}

TEST(RequestGenTest, BackendSelectsGoldenFamily) {
  EXPECT_EQ(workspace_request(32, 0, "d").backend, "vmware-gsx");
  EXPECT_EQ(workspace_request(32, 0, "d", "uml").backend, "uml");
}

TEST(DagLibraryTest, MinimalConfigDagIsValidAndOrdered) {
  dag::ConfigDag d = minimal_config_dag("alice", "10.0.0.5");
  ASSERT_TRUE(d.validate().ok());
  EXPECT_EQ(d.size(), 2u);
  EXPECT_TRUE(dag_reference::orders_before(d, "net", "user"));
}

TEST(DagLibraryTest, RandomLayeredDagRespectsShape) {
  dag::ConfigDag d = random_layered_dag(5, 4, 3, 0.5);
  EXPECT_EQ(d.size(), 12u);
  ASSERT_TRUE(d.validate().ok());
  // Determinism in the seed.
  EXPECT_TRUE(random_layered_dag(5, 4, 3, 0.5) == d);
  EXPECT_FALSE(random_layered_dag(6, 4, 3, 0.5) == d);
}

TEST(DagLibraryTest, RandomLayeredDagLayersAreConnected) {
  dag::ConfigDag d = random_layered_dag(9, 3, 4, 0.0);  // density 0: fallback
  // Even with zero density every non-final-layer node gets one edge.
  for (const std::string& id : d.node_ids()) {
    if (id.rfind("L2", 0) == 0) continue;  // final layer: sinks allowed
    EXPECT_FALSE(d.successors(id).empty()) << id;
  }
}

// -- Periodic monitor ---------------------------------------------------------------

TEST(MonitorTest, PeriodicSweepsRefreshDynamicAttributes) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("vmp-monitor-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  {
    storage::ArtifactStore store(root);
    storage::MachineSpec spec;
    spec.os = "linux";
    spec.memory_bytes = 32 * kMb;
    spec.suspended = true;
    spec.disk = {"disk0", 128 * kMb, 2, storage::DiskMode::kNonPersistent};
    const storage::ImageLayout golden{"golden"};
    ASSERT_TRUE(storage::materialize_image(&store, golden, spec).ok());

    hv::GsxHypervisor gsx(&store);
    hv::CloneSource source;
    source.layout = golden;
    source.spec = spec;
    ASSERT_TRUE(gsx.clone_vm(source, "clones/vm1", "vm1").ok());

    core::VmInformationSystem info;
    classad::ClassAd ad;
    ad.set_string("VMID", "vm1");
    info.store("vm1", ad);

    core::VmMonitor monitor(&gsx, &info);
    EXPECT_FALSE(monitor.periodic_running());
    monitor.start_periodic(std::chrono::milliseconds(5));
    EXPECT_TRUE(monitor.periodic_running());
    monitor.start_periodic(std::chrono::milliseconds(5));  // idempotent

    // First sweeps record the stopped state.
    while (monitor.sweeps() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(info.query("vm1").value().get_string("State").value(),
              "stopped");

    // Start the VM; the monitor notices without an explicit refresh.
    ASSERT_TRUE(gsx.start_vm("vm1").ok());
    const std::uint64_t sweep_mark = monitor.sweeps();
    while (monitor.sweeps() < sweep_mark + 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(info.query("vm1").value().get_string("State").value(),
              "running");

    monitor.stop_periodic();
    EXPECT_FALSE(monitor.periodic_running());
    const std::uint64_t final_sweeps = monitor.sweeps();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(monitor.sweeps(), final_sweeps);  // really stopped
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace vmp::workload
