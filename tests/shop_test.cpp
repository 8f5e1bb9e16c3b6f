// Tests for the VMShop: bid collection, plant selection, creation routing,
// query/destroy, and failure handling over the message bus.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>

#include "core/plant.h"
#include "core/shop.h"
#include "fault/fault.h"
#include "lifecycle/lifecycle.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"
#include "workload/request_gen.h"

namespace vmp::core {
namespace {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

class ShopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-shop-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ = std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
    ASSERT_TRUE(workload::publish_paper_goldens(warehouse_.get()).ok());

    for (int i = 0; i < 3; ++i) {
      PlantConfig config;
      config.name = "plant" + std::to_string(i);
      config.cost_model = "network-compute";
      plants_.push_back(
          std::make_unique<VmPlant>(config, store_.get(), warehouse_.get()));
      ASSERT_TRUE(plants_.back()->attach_to_bus(&bus_, &registry_).ok());
    }
    shop_ = std::make_unique<VmShop>(ShopConfig{}, &bus_, &registry_);
    ASSERT_TRUE(shop_->attach_to_bus().ok());
  }
  void TearDown() override {
    shop_.reset();
    plants_.clear();
    warehouse_.reset();
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  net::MessageBus bus_;
  net::ServiceRegistry registry_;
  std::vector<std::unique_ptr<VmPlant>> plants_;
  std::unique_ptr<VmShop> shop_;
};

TEST_F(ShopTest, CollectsBidsFromAllPlants) {
  auto bids = shop_->collect_bids(workload::workspace_request(64, 0, "d1"));
  ASSERT_EQ(bids.size(), 3u);
  for (const Bid& bid : bids) {
    EXPECT_DOUBLE_EQ(bid.cost, 50.0);  // all empty, new domain everywhere
  }
}

TEST_F(ShopTest, SelectBidPicksCheapest) {
  std::vector<Bid> bids{{"a", 50.0}, {"b", 4.0}, {"c", 12.0}};
  auto best = shop_->select_bid(bids);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->plant_address, "b");
  EXPECT_FALSE(shop_->select_bid({}).has_value());
}

TEST_F(ShopTest, TiesBrokenAmongCheapestOnly) {
  std::vector<Bid> bids{{"a", 5.0}, {"b", 5.0}, {"c", 9.0}};
  for (int i = 0; i < 20; ++i) {
    auto pick = shop_->select_bid(bids);
    ASSERT_TRUE(pick.has_value());
    EXPECT_NE(pick->plant_address, "c");
  }
}

TEST_F(ShopTest, CreateRoutesThroughCheapestPlant) {
  // First create lands somewhere (ties).  Second create for the same
  // domain must land on the SAME plant: its compute bid (4*1=4) beats the
  // other plants' network bids (50) — the paper's §3.4 behaviour.
  auto first = shop_->create(workload::workspace_request(64, 0, "ufl.edu"));
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  const std::string first_plant =
      first.value().get_string(attrs::kPlant).value();

  auto second = shop_->create(workload::workspace_request(64, 1, "ufl.edu"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().get_string(attrs::kPlant).value(), first_plant);
  EXPECT_EQ(shop_->creations(), 2u);
}

TEST_F(ShopTest, DifferentDomainsSpreadWhenCostsEqual) {
  // Domain d2's bid is 50 everywhere (new network), so it can land on any
  // plant; the first domain's plant charges 50 for d2 as well (its network
  // is held by d1).  Just verify creation succeeds and isolation holds.
  ASSERT_TRUE(shop_->create(workload::workspace_request(64, 0, "d1")).ok());
  auto r2 = shop_->create(workload::workspace_request(64, 1, "d2"));
  ASSERT_TRUE(r2.ok());
}

TEST_F(ShopTest, QueryRoutedAndBroadcast) {
  auto ad = shop_->create(workload::workspace_request(32, 0, "d1"));
  ASSERT_TRUE(ad.ok());
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();

  auto q = shop_->query(vm_id);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().get_string(attrs::kVmId).value(), vm_id);

  // A second shop with no routing cache finds the VM by broadcast.
  ShopConfig config2;
  config2.name = "vmshop2";
  VmShop shop2(config2, &bus_, &registry_);
  auto q2 = shop2.query(vm_id);
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2.value().get_string(attrs::kVmId).value(), vm_id);

  EXPECT_FALSE(shop_->query("vm-ghost").ok());
}

TEST_F(ShopTest, DestroyCollectsAtPlant) {
  auto ad = shop_->create(workload::workspace_request(32, 0, "d1"));
  ASSERT_TRUE(ad.ok());
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();
  const std::string plant_name = ad.value().get_string(attrs::kPlant).value();

  ASSERT_TRUE(shop_->destroy(vm_id).ok());
  for (const auto& plant : plants_) {
    if (plant->name() == plant_name) {
      EXPECT_EQ(plant->active_vms(), 0u);
      EXPECT_EQ(plant->allocator().free_networks(), 4u);
    }
  }
  EXPECT_FALSE(shop_->destroy(vm_id).ok());
}

// -- Destroy routing: one hop to the owning plant, broadcast as fallback -----

TEST_F(ShopTest, DestroyWithARouteIsOneBusCall) {
  auto ad = shop_->create(workload::workspace_request(32, 0, "d1"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();
  const std::uint64_t before = bus_.calls_total();
  ASSERT_TRUE(shop_->destroy(vm_id).ok());
  EXPECT_EQ(bus_.calls_total() - before, 1u);  // the collect, no query
  for (const auto& plant : plants_) EXPECT_EQ(plant->active_vms(), 0u);
  EXPECT_EQ(shop_->cache_size(), 0u);
}

TEST_F(ShopTest, DestroyWithoutARouteFindsTheOwnerByBroadcast) {
  auto ad = shop_->create(workload::workspace_request(32, 0, "d1"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();
  ShopConfig config2;
  config2.name = "vmshop2";
  VmShop shop2(config2, &bus_, &registry_);  // no routing cache
  ASSERT_TRUE(shop2.destroy(vm_id).ok());
  for (const auto& plant : plants_) EXPECT_EQ(plant->active_vms(), 0u);
}

TEST_F(ShopTest, DestroyOfACollectedVmFailsAsAnUnknownOne) {
  auto ad = shop_->create(workload::workspace_request(32, 0, "d1"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();
  const std::string plant_name = ad.value().get_string(attrs::kPlant).value();
  // Collected behind the shop's back: its route is stale.
  for (const auto& plant : plants_) {
    if (plant->name() == plant_name) {
      ASSERT_TRUE(plant->collect(vm_id).ok());
    }
  }
  const std::uint64_t before = bus_.calls_total();
  const Status stale = shop_->destroy(vm_id);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(stale.error().message(), "no plant knows VM " + vm_id);
  // The stale collect, then a query to each other plant.
  EXPECT_EQ(bus_.calls_total() - before, 3u);
}

TEST_F(ShopTest, DestroyOfAnUnknownVmKeepsItsCodeAndText) {
  const Status unknown = shop_->destroy("vm-ghost");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(unknown.error().message(), "no plant knows VM vm-ghost");
}

TEST_F(ShopTest, TransportFailureOnTheCollectIsReturnedNotBroadcast) {
  auto ad = shop_->create(workload::workspace_request(32, 0, "d1"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();
  const std::string plant_name = ad.value().get_string(attrs::kPlant).value();
  {
    auto plan = fault::FaultPlan::parse("bus.timeout:target=" + plant_name, 1);
    ASSERT_TRUE(plan.ok());
    fault::ScopedFaultPlan armed(plan.value());
    const std::uint64_t before = bus_.calls_total();
    const Status timed_out = shop_->destroy(vm_id);
    ASSERT_FALSE(timed_out.ok());
    EXPECT_EQ(timed_out.error().code(), ErrorCode::kTimeout);
    // A fired fault is not a counted call, and no query went anywhere.
    EXPECT_EQ(bus_.calls_total() - before, 0u);
  }
  VmPlant* owner = nullptr;
  for (const auto& plant : plants_) {
    if (plant->name() == plant_name) owner = plant.get();
  }
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->active_vms(), 1u);

  // The owner leaves the bus: the collect is UNAVAILABLE, still no query.
  owner->detach_from_bus();
  const std::uint64_t before = bus_.calls_total();
  const Status unavailable = shop_->destroy(vm_id);
  ASSERT_FALSE(unavailable.ok());
  EXPECT_EQ(unavailable.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(bus_.calls_total() - before, 1u);

  // The route survived both failures: back on the bus, one hop destroys.
  ASSERT_TRUE(owner->attach_to_bus(&bus_, &registry_).ok());
  ASSERT_TRUE(shop_->destroy(vm_id).ok());
  EXPECT_EQ(owner->active_vms(), 0u);
}

TEST_F(ShopTest, QueryOfAVmOnADownPlantIsUnavailableNotUnknown) {
  auto ad = shop_->create(workload::workspace_request(32, 0, "d1"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();
  const std::string plant_name = ad.value().get_string(attrs::kPlant).value();
  bus_.set_down(plant_name, true);
  const std::uint64_t before = bus_.calls_total();
  auto q = shop_->query(vm_id);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.error().code(), ErrorCode::kUnavailable);
  // Only the routed query: no broadcast turned "unreachable" into "unknown".
  EXPECT_EQ(bus_.calls_total() - before, 1u);

  // The route survived: back up, the VM answers again.
  bus_.set_down(plant_name, false);
  auto again = shop_->query(vm_id);
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(again.value().get_string(attrs::kVmId).value(), vm_id);
}

/// A vmplant stub whose VMs live in a shared owner table, so a test can
/// move a VM between plants under the same id (a migration the shop did
/// not see).  Bids `cost`; records each service it serves.
void attach_table_plant(net::MessageBus* bus, net::ServiceRegistry* registry,
                        const std::string& address, double cost,
                        std::map<std::string, std::string>* owners,
                        std::vector<std::string>* seen) {
  ASSERT_TRUE(bus->register_endpoint(address, [=](const net::Message& m) {
                   seen->push_back(address + " " + m.service());
                   net::Message response = net::Message::response_to(m);
                   if (m.service() == "vmplant.estimate") {
                     response.body().add_child("bid").set_attr(
                         "cost", util::format_double(cost));
                     return response;
                   }
                   if (m.service() == "vmplant.create") {
                     (*owners)["vm-1"] = address;
                   } else {
                     const std::string id = m.body().child("vm")->attr("id");
                     auto it = owners->find(id);
                     if (it == owners->end() || it->second != address) {
                       return net::Message::fault_to(
                           m, Error(ErrorCode::kNotFound,
                                    address + ": unknown VM " + id));
                     }
                     if (m.service() == "vmplant.collect") {
                       owners->erase(it);
                       response.body().add_child("collected");
                       return response;
                     }
                   }
                   classad::ClassAd ad;
                   ad.set_string(attrs::kVmId, "vm-1");
                   ad.set_string(attrs::kPlant, address);
                   ad.to_xml(&response.body());
                   return response;
                 }).ok());
  registry->publish(net::ServiceRecord{"vmplant", address, {}});
}

TEST(ShopDestroyTest, StaleRouteToAMovedVmCollectsAtTheNewOwner) {
  net::MessageBus bus;
  net::ServiceRegistry registry;
  std::map<std::string, std::string> owners;
  std::vector<std::string> seen;
  attach_table_plant(&bus, &registry, "plant-a", 1.0, &owners, &seen);
  attach_table_plant(&bus, &registry, "plant-b", 9.0, &owners, &seen);
  VmShop shop(ShopConfig{}, &bus, &registry);
  auto ad = shop.create(workload::workspace_request(32, 0, "d1"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  ASSERT_EQ(owners.at("vm-1"), "plant-a");

  owners["vm-1"] = "plant-b";  // moved; the shop still routes to plant-a
  seen.clear();
  ASSERT_TRUE(shop.destroy("vm-1").ok());
  EXPECT_TRUE(owners.empty());
  // The stale plant is asked once (the collect) and skipped by the query
  // broadcast; the new owner answers the query and is collected.
  EXPECT_EQ(seen, (std::vector<std::string>{"plant-a vmplant.collect",
                                            "plant-b vmplant.query",
                                            "plant-b vmplant.collect"}));

  // Collected: the route is gone and no plant knows the VM.
  seen.clear();
  const Status again = shop.destroy("vm-1");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(again.error().message(), "no plant knows VM vm-1");
  EXPECT_EQ(seen, (std::vector<std::string>{"plant-a vmplant.query",
                                            "plant-b vmplant.query"}));
}

TEST_F(ShopTest, NoBidsWhenNothingMatches) {
  // 128 MB golden does not exist -> every plant's PPP would fail, but the
  // estimate stage already refuses nothing (cost model doesn't know);
  // creation fails at the chosen plant and the shop falls through all
  // bids, reporting kUnavailable with the underlying reason.
  auto r = shop_->create(workload::workspace_request(128, 0, "d1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), util::ErrorCode::kUnavailable);
  EXPECT_NE(r.error().message().find("NO_MATCHING_IMAGE"), std::string::npos);
}

TEST_F(ShopTest, NoBidsAtAllWhenPlantsGone) {
  for (auto& plant : plants_) plant->detach_from_bus();
  auto r = shop_->create(workload::workspace_request(64, 0, "d1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), util::ErrorCode::kNoBids);
}

TEST_F(ShopTest, FailoverToNextBestBidOnPlantFailure) {
  // Wedge one plant (down at create time but alive at bid time is hard to
  // arrange; instead mark it down entirely — bids skip it, creation goes
  // elsewhere).
  bus_.set_down("plant0", true);
  auto r = shop_->create(workload::workspace_request(64, 0, "d1"));
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().get_string(attrs::kPlant).value(), "plant0");
}

TEST_F(ShopTest, FailoverWhenChosenPlantFailsCreation) {
  // All plants bid, but plant capacity 0 at two of them via saturating
  // their networks with other domains.
  for (int d = 0; d < 4; ++d) {
    // Fill plant0's networks by addressing it directly.
    ASSERT_TRUE(plants_[0]
                    ->create(workload::workspace_request(
                        32, d + 100, "filler" + std::to_string(d)))
                    .ok());
  }
  // plant0 now has 4 domains holding its networks; a new domain's create
  // there would fail.  The shop should still succeed via another plant.
  auto r = shop_->create(workload::workspace_request(64, 0, "fresh-domain"));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_NE(r.value().get_string(attrs::kPlant).value(), "plant0");
}

TEST_F(ShopTest, WireProtocolThroughShopEndpoint) {
  // Drive the shop through its *bus* endpoint like an external client.
  CreateRequest request = workload::workspace_request(32, 0, "d1");
  net::Message m =
      net::Message::request("vmshop.create", "client", "vmshop", "c-1");
  request.to_xml(&m.body());
  auto response = net::call_expecting_success(&bus_, m);
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  auto ad = classad::ClassAd::from_xml(response.value().body());
  ASSERT_TRUE(ad.ok());
  const std::string vm_id = ad.value().get_string(attrs::kVmId).value();

  net::Message query =
      net::Message::request("vmshop.query", "client", "vmshop", "c-2");
  query.body().add_child("vm").set_attr("id", vm_id);
  EXPECT_TRUE(net::call_expecting_success(&bus_, query).ok());

  net::Message destroy =
      net::Message::request("vmshop.destroy", "client", "vmshop", "c-3");
  destroy.body().add_child("vm").set_attr("id", vm_id);
  EXPECT_TRUE(net::call_expecting_success(&bus_, destroy).ok());

  net::Message bad =
      net::Message::request("vmshop.unknown", "client", "vmshop", "c-4");
  auto fault = bus_.call(bad);
  ASSERT_TRUE(fault.ok());
  EXPECT_TRUE(fault.value().is_fault());
}

TEST_F(ShopTest, PublishMessageAdmitsAndBackpressures) {
  // Serialize a golden descriptor into a vmshop.publish message body.
  const auto publish_msg = [](const std::string& id, std::uint64_t disk_mb,
                              const std::string& call_id) {
    net::Message m =
        net::Message::request("vmshop.publish", "installer", "vmshop",
                              call_id);
    xml::Element& golden = m.body().add_child("golden");
    golden.set_attr("id", id);
    golden.set_attr("backend", "vmware-gsx");
    xml::Element& machine = golden.add_child("machine");
    machine.set_attr("os", "linux-mandrake-8.1");
    machine.set_attr("memory-bytes", std::to_string(32ull << 20));
    machine.set_attr("suspended", "true");
    xml::Element& disk = machine.add_child("disk");
    disk.set_attr("name", "disk0");
    disk.set_attr("capacity-bytes", std::to_string(disk_mb << 20));
    disk.set_attr("span-count", "2");
    disk.set_attr("mode", "non-persistent");
    golden.add_child("performed");
    return m;
  };

  // Without a lifecycle manager, publishing is unavailable at this shop.
  auto no_lifecycle = bus_.call(publish_msg("installer-img", 64, "p-0"));
  ASSERT_TRUE(no_lifecycle.ok());
  ASSERT_TRUE(no_lifecycle.value().is_fault());
  EXPECT_EQ(no_lifecycle.value().fault_error().code(),
            util::ErrorCode::kFailedPrecondition);

  // ~256 MB budget: the 64 MB-disk image fits, a 512 MB one cannot.
  lifecycle::LifecycleManager::Config config;
  config.disk_budget_bytes = 256ull << 20;
  auto manager =
      lifecycle::LifecycleManager::create(warehouse_.get(), config);
  ASSERT_TRUE(manager.ok());
  shop_->set_lifecycle(manager.value().get());

  auto ok = net::call_expecting_success(
      &bus_, publish_msg("installer-img", 64, "p-1"));
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  const xml::Element* published = ok.value().body().child("published");
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->attr("id"), "installer-img");
  EXPECT_TRUE(warehouse_->contains("installer-img"));

  // An image whose estimate alone exceeds the budget is rejected with
  // kResourceExhausted — the fault IS the installer's backpressure.
  auto rejected = bus_.call(publish_msg("oversized-img", 512, "p-2"));
  ASSERT_TRUE(rejected.ok());
  ASSERT_TRUE(rejected.value().is_fault());
  EXPECT_EQ(rejected.value().fault_error().code(),
            util::ErrorCode::kResourceExhausted);
  EXPECT_FALSE(warehouse_->contains("oversized-img"));

  shop_->set_lifecycle(nullptr);
}

// -- Malformed bid costs ---------------------------------------------------------

/// Registers a vmplant endpoint that bids with `cost` as the raw cost
/// attribute (none when nullopt) and refuses every create, counting them.
void attach_bad_bidder(net::MessageBus* bus, net::ServiceRegistry* registry,
                       const std::string& address,
                       std::optional<std::string> cost, int* creates) {
  ASSERT_TRUE(bus->register_endpoint(address, [=](const net::Message& m) {
                   if (m.service() != "vmplant.estimate") {
                     ++*creates;
                     return net::Message::fault_to(
                         m, Error(ErrorCode::kInternal, "stub never creates"));
                   }
                   net::Message response = net::Message::response_to(m);
                   xml::Element& bid = response.body().add_child("bid");
                   bid.set_attr("plant", address);
                   if (cost.has_value()) bid.set_attr("cost", *cost);
                   return response;
                 }).ok());
  registry->publish(net::ServiceRecord{"vmplant", address, {}});
}

TEST_F(ShopTest, MalformedBidCostsAreDeclined) {
  plants_[1]->detach_from_bus();
  plants_[2]->detach_from_bus();
  // Address-ordered discovery puts the stubs first: a NaN leads the bids.
  int stub_creates = 0;
  attach_bad_bidder(&bus_, &registry_, "a-nan", "nan", &stub_creates);
  attach_bad_bidder(&bus_, &registry_, "a-text", "abc", &stub_creates);
  attach_bad_bidder(&bus_, &registry_, "a-none", std::nullopt, &stub_creates);
  attach_bad_bidder(&bus_, &registry_, "a-inf", "-inf", &stub_creates);

  const auto bids =
      shop_->collect_bids(workload::workspace_request(64, 0, "d1"));
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_EQ(bids[0].plant_address, "plant0");
  EXPECT_DOUBLE_EQ(bids[0].cost, 50.0);

  auto ad = shop_->create(workload::workspace_request(64, 0, "d1"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(ad.value().get_string(attrs::kPlant).value(), "plant0");
  EXPECT_EQ(stub_creates, 0);
}

TEST_F(ShopTest, OnlyMalformedBidsMeansNoBids) {
  for (auto& plant : plants_) plant->detach_from_bus();
  int stub_creates = 0;
  attach_bad_bidder(&bus_, &registry_, "a-nan", "nan", &stub_creates);
  attach_bad_bidder(&bus_, &registry_, "a-text", "abc", &stub_creates);
  attach_bad_bidder(&bus_, &registry_, "a-none", std::nullopt, &stub_creates);
  auto r = shop_->create(workload::workspace_request(64, 0, "d1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNoBids);
  EXPECT_EQ(stub_creates, 0);
}

// -- The bid wire schema: estimates carry the header, creates the DAG -------------

/// What a recording vmplant stub saw: every body, rendered, per service.
struct Recorded {
  std::vector<std::string> estimates;
  std::vector<std::string> creates;
};

/// Registers a vmplant endpoint that bids `cost` on every estimate and
/// refuses every create, recording each body's <create-request>.
void attach_recording_bidder(net::MessageBus* bus,
                             net::ServiceRegistry* registry,
                             const std::string& address, double cost,
                             Recorded* seen) {
  ASSERT_TRUE(bus->register_endpoint(address, [=](const net::Message& m) {
                   const xml::Element* req = m.body().child("create-request");
                   const bool estimate = m.service() == "vmplant.estimate";
                   // One <create-request> and nothing else in the body.
                   EXPECT_EQ(m.body().children().size(), 1u);
                   (estimate ? seen->estimates : seen->creates)
                       .push_back(req == nullptr ? "" : req->to_string());
                   if (!estimate) {
                     return net::Message::fault_to(
                         m, Error(ErrorCode::kInternal, "stub never creates"));
                   }
                   net::Message response = net::Message::response_to(m);
                   xml::Element& bid = response.body().add_child("bid");
                   bid.set_attr("plant", address);
                   bid.set_attr("cost", util::format_double(cost));
                   return response;
                 }).ok());
  registry->publish(net::ServiceRecord{"vmplant", address, {}});
}

/// An estimate body is the request header: exactly the five
/// <create-request> attributes and one <hardware> child, no <dag>.
void expect_header_only(const std::string& rendered,
                        const CreateRequest& request) {
  auto parsed = xml::parse(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const xml::Element& req = *parsed.value();
  EXPECT_EQ(req.name(), "create-request");
  std::vector<std::string> keys;
  for (const auto& [key, value] : req.attrs()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"backend", "client", "domain",
                                            "id", "proxy"}));
  ASSERT_EQ(req.children().size(), 1u);
  EXPECT_EQ(req.children().front().name(), "hardware");
  EXPECT_EQ(req.child("dag"), nullptr);
  xml::Element wrapper("wrapper");
  EXPECT_EQ(rendered, request.header_to_xml(&wrapper).to_string());
}

TEST_F(ShopTest, EstimatesCarryTheHeaderAndCreateTheDag) {
  for (auto& plant : plants_) plant->detach_from_bus();
  Recorded seen;
  attach_recording_bidder(&bus_, &registry_, "recorder", 1.0, &seen);

  // The stub wins, refuses the create, and the shop re-bids once before
  // giving up: a first-round estimate, a create, a rebid estimate.
  const CreateRequest request = workload::workspace_request(64, 0, "d1");
  auto r = shop_->create(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kUnavailable);
  ASSERT_EQ(seen.estimates.size(), 2u);
  for (const std::string& body : seen.estimates) {
    expect_header_only(body, request);
  }
  ASSERT_EQ(seen.creates.size(), 1u);
  EXPECT_EQ(seen.creates.front(), request.to_xml_string());
  EXPECT_NE(seen.creates.front().find("<dag"), std::string::npos);
}

// -- The bid-time contract: vmplant.estimate reads the request header -------------

/// One vmplant.estimate to plant0 carrying `build`'s body.
Result<double> estimate_over_bus(
    net::MessageBus* bus, const std::function<void(xml::Element*)>& build) {
  net::Message m =
      net::Message::request("vmplant.estimate", "client", "plant0", "e-1");
  build(&m.body());
  auto response = net::call_expecting_success(bus, m);
  if (!response.ok()) return response.propagate<double>();
  return response.value().body().child("bid")->attr_double("cost", -1.0);
}

Result<double> estimate_over_bus(net::MessageBus* bus,
                                 const CreateRequest& request) {
  return estimate_over_bus(
      bus, [&request](xml::Element* body) { request.to_xml(body); });
}

void expect_fault(const Result<double>& bid, ErrorCode code,
                  const std::string& text) {
  ASSERT_FALSE(bid.ok());
  EXPECT_EQ(bid.error().code(), code);
  EXPECT_EQ(bid.error().message(), text);
}

TEST_F(ShopTest, EstimateHeaderFaultsKeepCodeAndText) {
  expect_fault(estimate_over_bus(&bus_, [](xml::Element*) {}),
               ErrorCode::kParseError, "missing <create-request>");
  expect_fault(estimate_over_bus(&bus_,
                                 [](xml::Element* body) {
                                   xml::Element& req =
                                       body->add_child("create-request");
                                   req.set_attr("id", "r");
                                   req.set_attr("domain", "d");
                                 }),
               ErrorCode::kParseError, "missing <hardware> element");

  CreateRequest no_id = workload::workspace_request(64, 0, "d");
  no_id.request_id.clear();
  expect_fault(estimate_over_bus(&bus_, no_id), ErrorCode::kInvalidArgument,
               "request_id must not be empty");
  CreateRequest no_domain = workload::workspace_request(64, 0, "d");
  no_domain.domain.clear();
  expect_fault(estimate_over_bus(&bus_, no_domain),
               ErrorCode::kInvalidArgument,
               "client domain must not be empty (host-only network "
               "assignment requires it)");
  CreateRequest no_memory = workload::workspace_request(64, 0, "d");
  no_memory.hardware.memory_bytes = 0;
  expect_fault(estimate_over_bus(&bus_, no_memory),
               ErrorCode::kInvalidArgument,
               "hardware memory requirement must be specified");
}

TEST_F(ShopTest, EstimateRefusalsKeepCodeAndText) {
  // No network: plant0's four host-only networks are held by other domains.
  for (int d = 0; d < 4; ++d) {
    ASSERT_TRUE(plants_[0]
                    ->create(workload::workspace_request(
                        32, d + 100, "filler" + std::to_string(d)))
                    .ok());
  }
  expect_fault(
      estimate_over_bus(&bus_, workload::workspace_request(64, 0, "fresh")),
      ErrorCode::kResourceExhausted, "no host-only network for this domain");

  // Capacity: a one-VM plant holding its VM.
  PlantConfig config;
  config.name = "tiny";
  config.max_vms = 1;
  VmPlant tiny(config, store_.get(), warehouse_.get());
  ASSERT_TRUE(tiny.create(workload::workspace_request(32, 0, "d")).ok());
  expect_fault(tiny.estimate(workload::workspace_request(32, 1, "d")),
               ErrorCode::kResourceExhausted, "plant at VM capacity");
}

TEST_F(ShopTest, LegacyEstimateWithDagBidsTheSameCost) {
  // Direct callers may still send the whole request: the <dag> is ignored.
  for (const CreateRequest& request :
       {workload::workspace_request(64, 0, "d1"),
        workload::workspace_request(32, 3, "fresh")}) {
    auto full = estimate_over_bus(&bus_, request);
    auto header = estimate_over_bus(&bus_, [&request](xml::Element* body) {
      request.header_to_xml(body);
    });
    ASSERT_TRUE(full.ok()) << full.error().to_string();
    ASSERT_TRUE(header.ok()) << header.error().to_string();
    EXPECT_DOUBLE_EQ(full.value(), header.value());
  }
}

TEST_F(ShopTest, CyclicDagGetsABidButNoCreate) {
  CreateRequest request = workload::workspace_request(64, 0, "d1");
  const std::vector<std::string> order =
      request.config.topological_sort().value();
  ASSERT_TRUE(request.config.add_edge(order.back(), order.front()).ok());
  const Status invalid = request.validate();
  ASSERT_FALSE(invalid.ok());
  EXPECT_TRUE(request.validate_header().ok());

  // A bid prices the header: the cycle does not matter to it.
  auto bid = estimate_over_bus(&bus_, request);
  ASSERT_TRUE(bid.ok()) << bid.error().to_string();
  EXPECT_DOUBLE_EQ(bid.value(), 50.0);

  // The shop still rejects the request before any bid, as it always has.
  const std::uint64_t calls_before = bus_.calls_total();
  auto created = shop_->create(request);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(created.error().message(), invalid.error().message());
  EXPECT_EQ(created.error().message().rfind(
                "configuration DAG contains a cycle through '", 0),
            0u);
  EXPECT_EQ(bus_.calls_total(), calls_before);
}

// -- The wide bid fan-out against a serial reference -------------------------

/// `count` stub plants ("sp-000", ...) that price every estimate from their
/// index alone, with many ties so the seeded tie draw decides.  Delivered
/// in parallel, like a real plant; every 9th drops calls at `drop_rate`.
void add_stub_plants(net::MessageBus* bus, net::ServiceRegistry* registry,
                     std::size_t count, double drop_rate) {
  for (std::size_t i = 0; i < count; ++i) {
    std::string name = std::to_string(i);
    while (name.size() < 3) name.insert(0, 1, '0');
    name.insert(0, "sp-");
    const double cost = 10.0 + static_cast<double>((i * 7) % 5) * 0.5;
    ASSERT_TRUE(bus->register_endpoint(
                       name,
                       [cost](const net::Message& m) {
                         net::Message response = net::Message::response_to(m);
                         response.body().add_child("bid").set_attr(
                             "cost", util::format_double(cost));
                         return response;
                       },
                       net::Delivery::kParallel)
                    .ok());
    if (i % 9 == 4) bus->set_drop_rate(name, drop_rate);
    registry->publish(net::ServiceRecord{"vmplant", name, {}});
  }
}

/// Everything order-sensitive one bid round left behind.
struct BidRound {
  std::vector<std::pair<std::string, double>> bids;
  std::vector<std::string> firings;
  std::vector<std::string> warned;  // plant named by each vmshop WARN line
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::uint64_t skipped = 0;
  std::string chosen;
};

/// The shop's bid loop as it was before the fan-out: probe, shop.bid
/// consult and one bus call per plant, in registry order; then the
/// auction (stable sort, seeded draw among the cheapest).
void reference_bids(const CreateRequest& request, net::MessageBus* bus,
                    net::ServiceRegistry* registry, BidRound* round) {
  net::Message m = net::Message::request("vmplant.estimate", "vmshop", "",
                                         request.request_id);
  request.header_to_xml(&m.body());
  std::vector<Bid> bids;
  for (const net::ServiceRecord& plant : registry->discover("vmplant")) {
    if (!bus->has_endpoint(plant.address) ||
        !fault::check(fault::points::kShopBid, plant.address).ok()) {
      ++round->skipped;
      round->warned.push_back(plant.address);
      continue;
    }
    m.set_to(plant.address);
    auto response = net::call_expecting_success(bus, m);
    if (!response.ok()) {
      const ErrorCode code = response.error().code();
      if (code == ErrorCode::kUnavailable || code == ErrorCode::kTimeout ||
          code == ErrorCode::kNotFound) {
        ++round->skipped;
        round->warned.push_back(plant.address);
      }
      continue;
    }
    bids.push_back(Bid{plant.address,
                       response.value().body().child("bid")->attr_double(
                           "cost", 0.0)});
  }
  for (const Bid& b : bids) round->bids.emplace_back(b.plant_address, b.cost);
  std::stable_sort(bids.begin(), bids.end(), [](const Bid& a, const Bid& b) {
    return a.cost < b.cost;
  });
  std::vector<const Bid*> cheapest;
  for (const Bid& b : bids) {
    if (b.cost <= bids.front().cost) cheapest.push_back(&b);
  }
  util::SplitMix64 tie_rng(ShopConfig{}.tie_break_seed);
  round->chosen = cheapest[tie_rng.next_below(cheapest.size())]->plant_address;
}

BidRound bid_round(std::uint64_t seed, bool reference) {
  auto plan = fault::FaultPlan::parse(
      "shop.bid:p=0.2;bus.send:p=0.2;bus.timeout:after=5,times=3", seed);
  EXPECT_TRUE(plan.ok());
  fault::ScopedFaultPlan armed(plan.value());
  net::MessageBus bus(seed);
  net::ServiceRegistry registry;
  add_stub_plants(&bus, &registry, 128, 0.3);
  VmShop shop(ShopConfig{}, &bus, &registry);
  const CreateRequest request = workload::workspace_request(64, 0, "d1");

  BidRound round;
  if (reference) {
    reference_bids(request, &bus, &registry, &round);
  } else {
    util::set_log_sink([&round](const util::LogRecord& record) {
      if (record.component == "vmshop" &&
          record.level == util::LogLevel::kWarn) {
        round.warned.push_back(
            record.message.substr(0, record.message.find(' ')));
      }
    });
    std::vector<Bid> bids = shop.collect_bids(request);
    util::set_log_sink(nullptr);
    for (const Bid& b : bids) round.bids.emplace_back(b.plant_address, b.cost);
    std::stable_sort(bids.begin(), bids.end(), [](const Bid& a, const Bid& b) {
      return a.cost < b.cost;
    });
    round.chosen = shop.select_bid(bids)->plant_address;
    round.skipped = shop.bids_skipped();
  }
  round.firings = fault::FaultRegistry::instance().sequence();
  round.calls = bus.calls_total();
  round.bytes = bus.bytes_total();
  return round;
}

TEST(ShopFanOutTest, WideBidRoundUnderFaultsMatchesSerialReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const BidRound expected = bid_round(seed, true);
    const BidRound got = bid_round(seed, false);
    EXPECT_EQ(got.bids, expected.bids) << "seed " << seed;
    EXPECT_EQ(got.firings, expected.firings) << "seed " << seed;
    EXPECT_EQ(got.warned, expected.warned) << "seed " << seed;
    EXPECT_EQ(got.calls, expected.calls) << "seed " << seed;
    EXPECT_EQ(got.bytes, expected.bytes) << "seed " << seed;
    EXPECT_EQ(got.skipped, expected.skipped) << "seed " << seed;
    EXPECT_EQ(got.chosen, expected.chosen) << "seed " << seed;
    EXPECT_GT(expected.skipped, 0u);
    EXPECT_GT(expected.bids.size(), 64u);
  }
}

/// Finished spans with ids renumbered from the run's first span id.
std::vector<std::string> normalized_spans() {
  const std::vector<obs::Span> spans = obs::Tracer::instance().spans();
  std::uint64_t base = UINT64_MAX;
  for (const obs::Span& s : spans) base = std::min(base, s.span_id);
  std::vector<std::string> out;
  for (const obs::Span& s : spans) {
    out.push_back(std::to_string(s.span_id - base) + " parent=" +
                  (s.parent_id == 0 ? "root"
                                    : std::to_string(s.parent_id - base)) +
                  " " + s.name + " " + s.detail + " " + s.status);
  }
  return out;
}

TEST(ShopFanOutTest, TracedBidRoundOpensTheReferenceSpans) {
  std::vector<std::string> runs[2];
  for (int reference = 0; reference < 2; ++reference) {
    auto plan = fault::FaultPlan::parse("shop.bid:p=0.1;bus.send:p=0.2", 4);
    ASSERT_TRUE(plan.ok());
    fault::ScopedFaultPlan armed(plan.value());
    net::MessageBus bus(4);
    net::ServiceRegistry registry;
    add_stub_plants(&bus, &registry, 96, 0.3);
    VmShop shop(ShopConfig{}, &bus, &registry);
    const CreateRequest request = workload::workspace_request(64, 0, "d1");
    obs::Tracer::instance().arm();
    if (reference) {
      obs::ScopedSpan span("shop.bid", "vmshop", request.request_id);
      BidRound round;
      reference_bids(request, &bus, &registry, &round);
    } else {
      (void)shop.collect_bids(request);
    }
    runs[reference] = normalized_spans();
    obs::Tracer::instance().disarm();
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_GT(runs[0].size(), 64u);
}

TEST(ShopFanOutTest, PlantUnregisteredMidFanOutIsASkippedBid) {
  // sp-050 passes the shop's probe, then leaves while the bus consults
  // bus.timeout for it: the decider pulls the endpoint and lets it through.
  auto plan = fault::FaultPlan::parse("bus.timeout:target=sp-050", 1);
  ASSERT_TRUE(plan.ok());
  fault::ScopedFaultPlan armed(plan.value());
  net::MessageBus bus;
  net::ServiceRegistry registry;
  add_stub_plants(&bus, &registry, 96, 0.0);
  fault::FaultRegistry::instance().set_decider(
      [&bus](const std::string&, const std::string& detail) {
        (void)bus.unregister_endpoint(detail);
        return false;
      });
  VmShop shop(ShopConfig{}, &bus, &registry);
  const auto bids = shop.collect_bids(workload::workspace_request(64, 0, "d1"));
  EXPECT_EQ(bids.size(), 95u);
  EXPECT_EQ(shop.bids_skipped(), 1u);
  for (const Bid& b : bids) EXPECT_NE(b.plant_address, "sp-050");
  // The next round finds it gone before it asks: still one skip each.
  EXPECT_EQ(shop.collect_bids(workload::workspace_request(64, 1, "d1")).size(),
            95u);
  EXPECT_EQ(shop.bids_skipped(), 2u);
}

// -- Soak: a plant serves forever in bounded memory -------------------------

// Create/destroy cycles through the shop on one plant: every per-VM table
// (hypervisor, plant, information system, shop cache, vnet, golden leases)
// returns to its starting size, so per-VM state ends with the VM.
class ShopSoakTest : public ::testing::Test {
 protected:
  void SetUp() override { std::filesystem::remove_all(root_); }
  void TearDown() override { std::filesystem::remove_all(root_); }

  const std::filesystem::path root_ =
      std::filesystem::temp_directory_path() /
      ("vmp-shop-soak-" + std::to_string(::getpid()));
};

TEST_F(ShopSoakTest, CreateDestroyCyclesLeaveNoPerVmState) {
  storage::ArtifactStore store(root_);
  warehouse::Warehouse warehouse(&store, "warehouse");
  ASSERT_TRUE(workload::publish_paper_goldens(&warehouse, {32}).ok());
  auto lifecycle = lifecycle::LifecycleManager::create(
      &warehouse, lifecycle::LifecycleManager::Config{});
  ASSERT_TRUE(lifecycle.ok());
  net::MessageBus bus;
  net::ServiceRegistry registry;
  PlantConfig config;
  config.name = "plant0";
  VmPlant plant(config, &store, &warehouse);
  plant.hypervisor().set_lease_hook(lifecycle.value().get());
  ASSERT_TRUE(plant.attach_to_bus(&bus, &registry).ok());
  VmShop shop(ShopConfig{}, &bus, &registry);
  ASSERT_TRUE(shop.attach_to_bus().ok());

  const auto vm_ads = [&plant] {
    std::size_t n = 0;
    for (const std::string& id : plant.info_system().vm_ids()) {
      n += !util::starts_with(id, kObsAdPrefix);
    }
    return n;
  };
  const auto leases = [&lifecycle] {
    std::size_t n = 0;
    for (const auto& image : lifecycle.value()->stats()) n += image.leases;
    return n;
  };
  const std::size_t instances = plant.hypervisor().instance_count();
  const std::size_t active = plant.active_vms();
  const std::size_t ads = vm_ads();
  const std::size_t cached = shop.cache_size();
  const std::size_t networks = plant.allocator().free_networks();
  const std::size_t leased = leases();

  for (int cycle = 1; cycle <= 1000; ++cycle) {
    auto ad = shop.create(workload::workspace_request(32, cycle, "soak"));
    ASSERT_TRUE(ad.ok()) << "cycle " << cycle << ": " << ad.error().to_string();
    ASSERT_TRUE(shop.destroy(ad.value().get_string(attrs::kVmId).value()).ok())
        << "cycle " << cycle;
    if (cycle % 100 != 0) continue;
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    ASSERT_EQ(plant.hypervisor().instance_count(), instances);
    ASSERT_EQ(plant.active_vms(), active);
    ASSERT_EQ(vm_ads(), ads);
    ASSERT_EQ(shop.cache_size(), cached);
    ASSERT_EQ(plant.allocator().free_networks(), networks);
    ASSERT_EQ(leases(), leased);
    ASSERT_EQ(lifecycle.value()->zombie_count(), 0u);
  }
  EXPECT_GT(lifecycle.value()->stats().at(0).hits, 0u);  // leases were taken
}

}  // namespace
}  // namespace vmp::core
