// Unit tests for the core middleware: requests, cost models, info system,
// PPP planning, production line, and the plant daemon (direct interface).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cost.h"
#include "core/info_system.h"
#include "core/plant.h"
#include "core/ppp.h"
#include "core/production_line.h"
#include "core/request.h"
#include "hypervisor/gsx.h"
#include "obs/trace.h"
#include "workload/dag_library.h"
#include "workload/request_gen.h"

namespace vmp::core {
namespace {

// -- Request XML --------------------------------------------------------------

TEST(RequestTest, ValidateCatchesMissingFields) {
  CreateRequest r;
  EXPECT_FALSE(r.validate().ok());  // no id
  r.request_id = "req-1";
  EXPECT_FALSE(r.validate().ok());  // no domain
  r.domain = "ufl.edu";
  EXPECT_FALSE(r.validate().ok());  // no memory requirement
  r.hardware.memory_bytes = 64 << 20;
  EXPECT_TRUE(r.validate().ok());
}

TEST(RequestTest, XmlRoundTrip) {
  CreateRequest r = workload::workspace_request(64, 7, "ufl.edu");
  auto parsed = CreateRequest::from_xml_string(r.to_xml_string());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().request_id, r.request_id);
  EXPECT_EQ(parsed.value().client, r.client);
  EXPECT_EQ(parsed.value().domain, "ufl.edu");
  EXPECT_EQ(parsed.value().proxy_address, r.proxy_address);
  EXPECT_EQ(parsed.value().hardware.memory_bytes, 64ull << 20);
  EXPECT_TRUE(parsed.value().config == r.config);
}

TEST(RequestTest, HeaderXmlRoundTripKeepsEveryHeaderField) {
  for (const std::string backend : {"vmware-gsx", "uml"}) {
    for (const std::uint32_t memory_mb : {32u, 64u, 256u}) {
      for (const CreateRequest& r :
           workload::workspace_requests(memory_mb, 3, "ufl.edu", backend)) {
        xml::Element wrapper("wrapper");
        const xml::Element& header = r.header_to_xml(&wrapper);
        EXPECT_EQ(header.child("dag"), nullptr);
        auto parsed = CreateRequest::header_from_xml(header);
        ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
        EXPECT_EQ(parsed.value().request_id, r.request_id);
        EXPECT_EQ(parsed.value().client, r.client);
        EXPECT_EQ(parsed.value().domain, r.domain);
        EXPECT_EQ(parsed.value().proxy_address, r.proxy_address);
        EXPECT_EQ(parsed.value().backend, r.backend);
        EXPECT_EQ(parsed.value().hardware.os, r.hardware.os);
        EXPECT_EQ(parsed.value().hardware.memory_bytes,
                  r.hardware.memory_bytes);
        EXPECT_EQ(parsed.value().hardware.min_disk_bytes,
                  r.hardware.min_disk_bytes);
        EXPECT_EQ(parsed.value().config.size(), 0u);

        // The full request is that header with the DAG appended.
        xml::Element wrapper_full("wrapper");
        r.to_xml(&wrapper_full);
        const xml::Element& full = wrapper_full.children().front();
        EXPECT_EQ(full.attrs(), header.attrs());
        ASSERT_EQ(header.children().size(), 1u);
        ASSERT_EQ(full.children().size(), 2u);
        EXPECT_EQ(full.children()[0].to_string(),
                  header.children()[0].to_string());
        EXPECT_EQ(full.children()[1].name(), "dag");
      }
    }
  }
}

TEST(RequestTest, HardwareMatching) {
  MachineRequirements req;
  req.os = "linux";
  req.memory_bytes = 64;
  req.min_disk_bytes = 100;
  EXPECT_TRUE(req.satisfied_by("linux", 64, 100));
  EXPECT_TRUE(req.satisfied_by("linux", 64, 200));
  EXPECT_FALSE(req.satisfied_by("windows", 64, 100));
  EXPECT_FALSE(req.satisfied_by("linux", 128, 100));  // exact memory match
  EXPECT_FALSE(req.satisfied_by("linux", 64, 50));
  // Unconstrained fields match anything.
  MachineRequirements loose;
  EXPECT_TRUE(loose.satisfied_by("anything", 1, 1));
}

TEST(RequestTest, FromXmlRejectsMissingDag) {
  EXPECT_FALSE(CreateRequest::from_xml_string(
                   "<create-request id=\"r\" domain=\"d\">"
                   "<hardware memory-bytes=\"1\"/></create-request>")
                   .ok());
}

TEST(RequestTest, FromXmlRejectsOutOfRangeMaxRetries) {
  // An untrusted request cannot smuggle a truncated or wrapping retry
  // count into the production line.
  CreateRequest r = workload::workspace_request(64, 7, "ufl.edu");
  const std::string wire = r.to_xml_string();
  const std::string anchor = "<action id=\"I\"";
  const std::size_t at = wire.find(anchor);
  ASSERT_NE(at, std::string::npos);
  for (const char* bad : {"2147483648", "-2", "many"}) {
    std::string tampered = wire;
    tampered.insert(at + anchor.size(),
                    std::string(" on-error=\"retry\" max-retries=\"") + bad +
                        "\"");
    auto parsed = CreateRequest::from_xml_string(tampered);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error().code(), util::ErrorCode::kParseError) << bad;
  }
}

// -- Cost models ----------------------------------------------------------------

PlantLoad basic_load() {
  PlantLoad load;
  load.active_vms = 0;
  load.max_vms = 32;
  load.host_memory_bytes = 1536ull << 20;
  load.resident_memory_bytes = 0;
  load.needs_new_network = true;
  load.network_available = true;
  load.request_memory_bytes = 64ull << 20;
  return load;
}

TEST(CostTest, PaperWorkedExample) {
  // §3.4: network cost 50, compute cost 4/VM.  An empty plant bids 50 for a
  // new domain; with the domain's network held, a plant with n VMs bids 4n.
  NetworkComputeCostModel model(50.0, 4.0);
  PlantLoad load = basic_load();
  EXPECT_DOUBLE_EQ(model.estimate(load).value(), 50.0);

  load.needs_new_network = false;
  load.active_vms = 12;
  EXPECT_DOUBLE_EQ(model.estimate(load).value(), 48.0);
  load.active_vms = 13;
  EXPECT_DOUBLE_EQ(model.estimate(load).value(), 52.0);  // crossover point
}

TEST(CostTest, NetworkComputeRefusesWhenFullOrNoNetwork) {
  NetworkComputeCostModel model;
  PlantLoad load = basic_load();
  load.active_vms = 32;
  EXPECT_FALSE(model.estimate(load).ok());
  load = basic_load();
  load.network_available = false;
  EXPECT_FALSE(model.estimate(load).ok());
}

TEST(CostTest, MemoryAvailableScalesWithScarcity) {
  MemoryAvailableCostModel model(100.0);
  PlantLoad load = basic_load();
  const double empty_bid = model.estimate(load).value();
  load.resident_memory_bytes = 1024ull << 20;
  const double loaded_bid = model.estimate(load).value();
  EXPECT_LT(empty_bid, loaded_bid);
}

TEST(CostTest, MemoryAvailableAllowsExpensiveOvercommit) {
  MemoryAvailableCostModel model(100.0);
  PlantLoad load = basic_load();
  load.resident_memory_bytes = 1536ull << 20;  // full
  auto bid = model.estimate(load);
  ASSERT_TRUE(bid.ok());
  EXPECT_GT(bid.value(), 100.0);  // over the normal scale
}

TEST(CostTest, Factory) {
  EXPECT_EQ(make_cost_model("memory-available")->name(), "memory-available");
  EXPECT_EQ(make_cost_model("network-compute")->name(), "network-compute");
  EXPECT_EQ(make_cost_model("anything-else")->name(), "network-compute");
}

// -- VmInformationSystem -----------------------------------------------------------

TEST(InfoSystemTest, StoreQueryRemove) {
  VmInformationSystem info;
  classad::ClassAd ad;
  ad.set_string("VMID", "vm-1");
  info.store("vm-1", ad);
  EXPECT_TRUE(info.contains("vm-1"));
  EXPECT_EQ(info.size(), 1u);
  auto q = info.query("vm-1");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().get_string("VMID").value(), "vm-1");
  ASSERT_TRUE(info.remove("vm-1").ok());
  EXPECT_FALSE(info.query("vm-1").ok());
  EXPECT_FALSE(info.remove("vm-1").ok());
}

TEST(InfoSystemTest, UpdateMergesAttributes) {
  VmInformationSystem info;
  classad::ClassAd ad;
  ad.set_string("State", "stopped");
  ad.set_integer("MemoryBytes", 1);
  info.store("vm-1", ad);

  classad::ClassAd updates;
  updates.set_string("State", "running");
  updates.set_string("IPAddress", "10.0.0.2");
  ASSERT_TRUE(info.update("vm-1", updates).ok());

  auto q = info.query("vm-1");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().get_string("State").value(), "running");
  EXPECT_EQ(q.value().get_string("IPAddress").value(), "10.0.0.2");
  EXPECT_EQ(q.value().get_integer("MemoryBytes").value(), 1);
  EXPECT_FALSE(info.update("ghost", updates).ok());
}

// -- Guest script compilation --------------------------------------------------------

TEST(CompileTest, KnownOperations) {
  dag::Action a("A", "install-package");
  a.set_param("package", "vnc");
  EXPECT_EQ(compile_guest_script(a).value(), "install vnc");

  dag::Action net("D", "configure-network");
  net.set_param("ip", "10.0.0.2");
  net.set_param("mac", "02:56:4d:00:00:02");
  EXPECT_EQ(compile_guest_script(net).value(),
            "ifconfig 10.0.0.2 02:56:4d:00:00:02");

  dag::Action user("E", "create-user");
  user.set_param("name", "arijit");
  EXPECT_EQ(compile_guest_script(user).value(), "adduser arijit");

  dag::Action mount("F", "mount");
  mount.set_param("source", "nfs://x");
  mount.set_param("mountpoint", "/home/a");
  EXPECT_EQ(compile_guest_script(mount).value(), "mount nfs://x /home/a");
}

TEST(CompileTest, MissingParamsRejected) {
  dag::Action a("A", "install-package");  // no package param
  EXPECT_FALSE(compile_guest_script(a).ok());
  dag::Action u("E", "create-user");
  EXPECT_FALSE(compile_guest_script(u).ok());
}

TEST(CompileTest, RunScriptUsesVerbatimBody) {
  dag::Action s("S", "run-script");
  s.set_script("install x\ninstall y");
  EXPECT_EQ(compile_guest_script(s).value(), "install x\ninstall y");
  dag::Action empty("S2", "run-script");
  EXPECT_FALSE(compile_guest_script(empty).ok());
}

TEST(CompileTest, UnknownOperationRejected) {
  dag::Action a("A", "defragment-disk");
  EXPECT_FALSE(compile_guest_script(a).ok());
}

// -- Plant fixture ----------------------------------------------------------------------

class PlantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-core-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ = std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
    ASSERT_TRUE(workload::publish_paper_goldens(warehouse_.get()).ok());

    PlantConfig config;
    config.name = "plant0";
    config.cost_model = "network-compute";
    plant_ = std::make_unique<VmPlant>(config, store_.get(), warehouse_.get());
  }
  void TearDown() override {
    plant_.reset();
    warehouse_.reset();
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  std::unique_ptr<VmPlant> plant_;
};

// -- PPP ------------------------------------------------------------------------------------

TEST_F(PlantTest, PppPicksGoldenAndPlansSuffix) {
  ProductionProcessPlanner ppp(warehouse_.get());
  auto plan = ppp.plan(workload::workspace_request(64, 0, "ufl.edu"));
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  EXPECT_EQ(plan.value().golden.id, "golden-64mb");
  EXPECT_EQ(plan.value().satisfied_nodes.size(), 3u);  // A, B, C cached
  EXPECT_EQ(plan.value().remaining_plan.size(), 6u);   // D..I to execute
  EXPECT_EQ(plan.value().hardware_candidates, 1u);     // memory filter
}

TEST_F(PlantTest, PppFailsWhenNoHardwareMatch) {
  ProductionProcessPlanner ppp(warehouse_.get());
  auto plan = ppp.plan(workload::workspace_request(128, 0, "ufl.edu"));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.error().code(), util::ErrorCode::kNoMatchingImage);
}

TEST_F(PlantTest, PppFailsWhenDagDoesNotMatch) {
  // A request whose DAG lacks the golden's baked-in actions fails the
  // Subset test against every golden image.
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  request.config = workload::minimal_config_dag("u", "10.0.0.9");
  ProductionProcessPlanner ppp(warehouse_.get());
  auto plan = ppp.plan(request);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.error().code(), util::ErrorCode::kNoMatchingImage);
}

TEST_F(PlantTest, PppPrefersMostConfiguredGolden) {
  // Publish a second 64 MB golden that additionally has D performed for
  // this exact request's parameters: it should win the ranking.
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  std::vector<std::string> richer = workload::invigo_golden_history();
  richer.push_back(request.config.action("D")->signature());
  auto g64 = warehouse_->lookup("golden-64mb");
  ASSERT_TRUE(g64.ok());
  ASSERT_TRUE(warehouse_
                  ->publish_new("golden-64mb-preconf", "vmware-gsx",
                                g64.value().spec, g64.value().guest, richer)
                  .ok());
  ProductionProcessPlanner ppp(warehouse_.get());
  auto plan = ppp.plan(request);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().golden.id, "golden-64mb-preconf");
  EXPECT_EQ(plan.value().remaining_plan.size(), 5u);
}

// -- Plant create/query/collect ------------------------------------------------------------

TEST_F(PlantTest, EstimateFollowsPaperCostModel) {
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  auto bid = plant_->estimate(request);
  ASSERT_TRUE(bid.ok());
  EXPECT_DOUBLE_EQ(bid.value(), 50.0);  // network cost for a new domain
}

TEST_F(PlantTest, CreateProducesConfiguredVm) {
  CreateRequest request = workload::workspace_request(64, 3, "ufl.edu");
  auto ad = plant_->create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();

  EXPECT_EQ(ad.value().get_string(attrs::kPlant).value(), "plant0");
  EXPECT_EQ(ad.value().get_string(attrs::kGoldenImage).value(), "golden-64mb");
  EXPECT_EQ(ad.value().get_integer(attrs::kActionsSatisfied).value(), 3);
  EXPECT_EQ(ad.value().get_integer(attrs::kActionsExecuted).value(), 6);
  EXPECT_EQ(ad.value().get_string(attrs::kState).value(), "running");
  EXPECT_EQ(ad.value().get_string(attrs::kDomain).value(), "ufl.edu");
  EXPECT_FALSE(ad.value().get_string(attrs::kNetwork).value().empty());

  // The guest really was configured by the scripts.
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();
  const hv::VmInstance* vm = plant_->hypervisor().find(vm_id);
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(vm->guest.ip, "10.64.0.5");  // request 3 -> ip .5
  EXPECT_TRUE(vm->guest.users.count("user3"));
  EXPECT_TRUE(vm->guest.running_services.count("vnc-server"));
  EXPECT_TRUE(vm->guest.running_services.count("web-file-manager"));
  EXPECT_TRUE(vm->guest.mounts.count("/home/user3"));

  // Monitor-refreshed dynamic attributes flow into queries.
  auto q = plant_->query(vm_id);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().get_string(attrs::kIp).value(), "10.64.0.5");
  EXPECT_EQ(plant_->active_vms(), 1u);
  EXPECT_EQ(plant_->resident_memory_bytes(), 64ull << 20);
}

TEST_F(PlantTest, CollectReleasesEverything) {
  CreateRequest request = workload::workspace_request(32, 0, "ufl.edu");
  auto ad = plant_->create(request);
  ASSERT_TRUE(ad.ok());
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();

  EXPECT_EQ(plant_->allocator().free_networks(), 3u);
  ASSERT_TRUE(plant_->collect(vm_id).ok());
  EXPECT_EQ(plant_->active_vms(), 0u);
  EXPECT_EQ(plant_->allocator().free_networks(), 4u);
  EXPECT_FALSE(plant_->query(vm_id).ok());
  EXPECT_FALSE(plant_->collect(vm_id).ok());
}

TEST_F(PlantTest, CreateFailsWhenNetworksExhausted) {
  // 4 host-only networks -> at most 4 distinct domains.
  for (int d = 0; d < 4; ++d) {
    auto ad = plant_->create(
        workload::workspace_request(32, d, "domain" + std::to_string(d)));
    ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  }
  auto fifth = plant_->create(workload::workspace_request(32, 9, "domain9"));
  ASSERT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.error().code(), util::ErrorCode::kResourceExhausted);
  // Same-domain requests still work.
  EXPECT_TRUE(plant_->create(workload::workspace_request(32, 10, "domain0")).ok());
}

TEST_F(PlantTest, FailedActionAbortsAndCleansUp) {
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  // Append a failing action to the DAG.
  dag::Action boom("Z", "inject-fail");
  boom.set_param("message", "boom");
  ASSERT_TRUE(request.config.add_action(boom).ok());
  ASSERT_TRUE(request.config.add_edge("I", "Z").ok());

  auto ad = plant_->create(request);
  ASSERT_FALSE(ad.ok());
  EXPECT_EQ(ad.error().code(), util::ErrorCode::kConfigActionFailed);
  // No VM left behind; network released.
  EXPECT_EQ(plant_->active_vms(), 0u);
  EXPECT_EQ(plant_->allocator().free_networks(), 4u);
  EXPECT_EQ(plant_->hypervisor().instance_ids().size(), 0u);
}

TEST_F(PlantTest, RetryPolicySurvivesTransientFailures) {
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  dag::Action flaky("Z", "inject-flaky");
  flaky.set_param("token", "net-glitch");
  flaky.set_param("count", "2");
  flaky.set_error_policy(dag::ErrorPolicy::kRetry);
  flaky.set_max_retries(2);
  ASSERT_TRUE(request.config.add_action(flaky).ok());
  ASSERT_TRUE(request.config.add_edge("I", "Z").ok());

  auto ad = plant_->create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(ad.value().get_integer(attrs::kActionFailures).value(), 0);
}

TEST_F(PlantTest, MaxRetriesAtIntMaxDoesNotOverflow) {
  // 1 + INT_MAX attempts must not wrap to a negative count (which would
  // skip the action's attempts altogether).
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  dag::Action flaky("Z", "inject-flaky");
  flaky.set_param("token", "int-max-glitch");
  flaky.set_param("count", "2");
  flaky.set_error_policy(dag::ErrorPolicy::kRetry);
  flaky.set_max_retries(std::numeric_limits<int>::max());
  ASSERT_TRUE(request.config.add_action(flaky).ok());
  ASSERT_TRUE(request.config.add_edge("I", "Z").ok());

  auto ad = plant_->create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(ad.value().get_integer(attrs::kActionFailures).value(), 0);
}

TEST_F(PlantTest, RetryPolicyExhaustionAborts) {
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  dag::Action flaky("Z", "inject-flaky");
  flaky.set_param("token", "hard-glitch");
  flaky.set_param("count", "5");
  flaky.set_error_policy(dag::ErrorPolicy::kRetry);
  flaky.set_max_retries(1);  // 2 attempts < 5 failures
  ASSERT_TRUE(request.config.add_action(flaky).ok());
  ASSERT_TRUE(request.config.add_edge("I", "Z").ok());
  EXPECT_FALSE(plant_->create(request).ok());
}

TEST_F(PlantTest, ContinuePolicyRecordsFailureInClassad) {
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  dag::Action boom("Z", "inject-fail");
  boom.set_param("message", "optional step broke");
  boom.set_error_policy(dag::ErrorPolicy::kContinue);
  ASSERT_TRUE(request.config.add_action(boom).ok());
  ASSERT_TRUE(request.config.add_edge("I", "Z").ok());

  auto ad = plant_->create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(ad.value().get_integer(attrs::kActionFailures).value(), 1);
  EXPECT_NE(ad.value().get_string("ActionFailure_Z").value().find("broke"),
            std::string::npos);
}

TEST_F(PlantTest, ErrorSubgraphRepairsAndRetries) {
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  // Action Z requires a package that is not installed; its error sub-graph
  // installs the package, after which the retry succeeds.
  dag::Action needs("Z", "require-package");
  needs.set_param("package", "matlab");
  ASSERT_TRUE(request.config.add_action(needs).ok());
  ASSERT_TRUE(request.config.add_edge("I", "Z").ok());
  dag::ConfigDag repair =
      dag::DagBuilder()
          .guest("fix", "install-package", {{"package", "matlab"}})
          .build();
  ASSERT_TRUE(request.config.set_error_subgraph("Z", repair).ok());

  auto ad = plant_->create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();
  EXPECT_TRUE(
      plant_->hypervisor().find(vm_id)->guest.packages.count("matlab"));
}

TEST_F(PlantTest, EmitActionsFlowIntoClassad) {
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  dag::Action emit("Z", "emit");
  emit.set_param("key", "SSHKeyFingerprint");
  emit.set_param("value", "ab:cd:ef");
  ASSERT_TRUE(request.config.add_action(emit).ok());
  ASSERT_TRUE(request.config.add_edge("I", "Z").ok());

  auto ad = plant_->create(request);
  ASSERT_TRUE(ad.ok());
  EXPECT_EQ(ad.value().get_string("SSHKeyFingerprint").value(), "ab:cd:ef");
}

TEST_F(PlantTest, CredentialsFlowIntoClassad) {
  // Paper §3.1: the returned classad lets the client access the guest
  // "with physical or virtual IP network addresses and SSH keys or
  // X.509/GSI certificates setup during its creation".
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  dag::Action key("K", "setup-ssh-key");
  key.set_param("user", "user0");
  ASSERT_TRUE(request.config.add_action(key).ok());
  ASSERT_TRUE(request.config.add_edge("E", "K").ok());  // after create-user
  dag::Action cert("X509", "setup-gsi-cert");
  cert.set_param("user", "user0");
  cert.set_param("subject", "/O=Grid/CN=user0");
  ASSERT_TRUE(request.config.add_action(cert).ok());
  ASSERT_TRUE(request.config.add_edge("E", "X509").ok());

  auto ad = plant_->create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_FALSE(ad.value().get_string("SSHKey_user0").value().empty());
  EXPECT_EQ(ad.value().get_string("GSISubject_user0").value(),
            "/O=Grid/CN=user0");
  // The credential files exist in the guest.
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();
  const hv::VmInstance* vm = plant_->hypervisor().find(vm_id);
  EXPECT_TRUE(vm->guest.files.count("/home/user0/.ssh/id_rsa.pub"));
  EXPECT_TRUE(vm->guest.files.count("/etc/grid-security/user0.pem"));
}

TEST_F(PlantTest, HostActionsExecuteOnThePlant) {
  CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  dag::Action nic("Z", "host-attach-nic");
  nic.set_scope(dag::ActionScope::kHost);
  ASSERT_TRUE(request.config.add_action(nic).ok());
  ASSERT_TRUE(request.config.add_edge("I", "Z").ok());
  dag::Action attr("Y", "host-set-attr");
  attr.set_scope(dag::ActionScope::kHost);
  attr.set_param("key", "Rack");
  attr.set_param("value", "e1350-07");
  ASSERT_TRUE(request.config.add_action(attr).ok());
  ASSERT_TRUE(request.config.add_edge("Z", "Y").ok());

  auto ad = plant_->create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(ad.value().get_string("Rack").value(), "e1350-07");
  EXPECT_EQ(ad.value().get_string(attrs::kNetwork).value(),
            "plant0-vmnet1");
}

TEST_F(PlantTest, AccountingAttributesPresent) {
  auto ad = plant_->create(workload::workspace_request(256, 0, "ufl.edu"));
  ASSERT_TRUE(ad.ok());
  // 256 MB memory copy dominates bytes copied.
  EXPECT_GE(ad.value().get_integer(attrs::kCloneBytesCopied).value(),
            static_cast<std::int64_t>(256ull << 20));
  EXPECT_EQ(ad.value().get_integer(attrs::kCloneLinks).value(), 16);
  EXPECT_EQ(ad.value().get_integer(attrs::kActiveVmsBefore).value(), 0);
  EXPECT_EQ(ad.value().get_integer(attrs::kResidentBeforeBytes).value(), 0);
  EXPECT_EQ(ad.value().get_integer(attrs::kIsosConnected).value(), 6);
}

TEST_F(PlantTest, MaxVmCapacityEnforced) {
  PlantConfig tiny;
  tiny.name = "tiny";
  tiny.max_vms = 2;
  VmPlant plant(tiny, store_.get(), warehouse_.get());
  ASSERT_TRUE(plant.create(workload::workspace_request(32, 0, "d")).ok());
  ASSERT_TRUE(plant.create(workload::workspace_request(32, 1, "d")).ok());
  auto third = plant.create(workload::workspace_request(32, 2, "d"));
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.error().code(), util::ErrorCode::kResourceExhausted);
}

TEST_F(PlantTest, UmlBackendPlant) {
  ASSERT_TRUE(workload::publish_uml_golden(warehouse_.get(), 32).ok());
  PlantConfig config;
  config.name = "umlplant";
  config.backend = "uml";
  VmPlant plant(config, store_.get(), warehouse_.get());

  auto ad = plant.create(workload::workspace_request(32, 0, "ufl.edu", "uml"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(ad.value().get_string(attrs::kBackend).value(), "uml");
  // UML clones copy no memory state.
  EXPECT_LT(ad.value().get_integer(attrs::kCloneBytesCopied).value(),
            static_cast<std::int64_t>(1 << 20));
}

// -- create_async worker pool, started on first use -------------------------

/// The `Threads:` line of /proc/self/status.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST_F(PlantTest, ConstructingPlantsStartsNoThread) {
  const int before = process_threads();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<VmPlant>> plants;
  for (int i = 0; i < 32; ++i) {
    PlantConfig config;
    config.name = "idle" + std::to_string(i);
    plants.push_back(
        std::make_unique<VmPlant>(config, store_.get(), warehouse_.get()));
  }
  EXPECT_EQ(process_threads(), before);
}

TEST_F(PlantTest, FirstCreateAsyncStartsThePoolAndMatchesCreate) {
  // A twin plant over its own store: the same request through create()
  // and through create_async() must yield the same classad.
  storage::ArtifactStore twin_store(root_ / "twin");
  warehouse::Warehouse twin_warehouse(&twin_store, "warehouse");
  ASSERT_TRUE(workload::publish_paper_goldens(&twin_warehouse).ok());
  PlantConfig config;
  config.name = "plant0";
  config.worker_threads = 3;
  VmPlant twin(config, &twin_store, &twin_warehouse);

  const CreateRequest request = workload::workspace_request(64, 3, "ufl.edu");
  auto direct = plant_->create(request);
  ASSERT_TRUE(direct.ok()) << direct.error().to_string();

  // A sanitizer runtime may start a helper thread beside the process's
  // first one; start and join a thread first so the count sees the pool.
  std::thread([] {}).join();
  const int before = process_threads();
  auto async = twin.create_async(request).get();
  ASSERT_TRUE(async.ok()) << async.error().to_string();
  EXPECT_EQ(process_threads(), before + 3);
  EXPECT_TRUE(async.value() == direct.value())
      << async.value().to_string() << "\n" << direct.value().to_string();

  // Later calls reuse the pool.
  auto second = twin.create_async(workload::workspace_request(32, 4, "d"));
  ASSERT_TRUE(second.get().ok());
  EXPECT_EQ(process_threads(), before + 3);
}

TEST_F(PlantTest, CreateAsyncRunsUnderTheCallersTraceContext) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.arm();
  tracer.clear();
  obs::TraceContext caller;
  {
    obs::ScopedSpan root("caller", "test");
    caller = root.context();
    auto ad = plant_->create_async(workload::workspace_request(32, 0, "d"));
    ASSERT_TRUE(ad.get().ok());
  }
  tracer.disarm();
  const auto spans = tracer.spans();
  tracer.clear();
  const auto create = std::find_if(spans.begin(), spans.end(),
                                   [](const obs::Span& span) {
                                     return span.name == "plant.create";
                                   });
  ASSERT_NE(create, spans.end());
  EXPECT_EQ(create->trace_id, caller.trace_id);
  EXPECT_EQ(create->parent_id, caller.span_id);
}

TEST_F(PlantTest, ArmedCreateSpansCarryTheirDetails) {
  // The clone, resume and configure spans build their details only while
  // armed; armed, each carries the clone directory, the hypervisor type or
  // the number of actions configured.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.arm();
  tracer.clear();
  auto ad = plant_->create(workload::workspace_request(32, 0, "d"));
  tracer.disarm();
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  std::map<std::string, std::string> details;
  for (const obs::Span& span : tracer.spans()) details[span.name] = span.detail;
  tracer.clear();
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();
  EXPECT_EQ(details["storage.clone"], "linked plant0/clones/" + vm_id);
  EXPECT_EQ(details["hypervisor.resume"], "vmware-gsx");
  EXPECT_EQ(details["plant.configure"],
            std::to_string(*ad.value().get_integer(attrs::kActionsExecuted)) +
                " actions");
}

TEST_F(PlantTest, PlantWithoutCreateAsyncJoinsNothing) {
  const int before = process_threads();
  {
    PlantConfig config;
    config.name = "sync-only";
    config.worker_threads = 4;
    VmPlant plant(config, store_.get(), warehouse_.get());
    ASSERT_TRUE(plant.create(workload::workspace_request(32, 0, "d")).ok());
    EXPECT_EQ(process_threads(), before);
  }
  EXPECT_EQ(process_threads(), before);
}

}  // namespace
}  // namespace vmp::core
