// Robustness tests: fault injection across the service path, parser
// resilience against malformed input, session-state mechanics, and shared
// state under concurrent mutation.
#include <gtest/gtest.h>

#include <filesystem>
#include <future>

#include "classad/classad.h"
#include "core/plant.h"
#include "core/shop.h"
#include "dag/dag_xml.h"
#include "fault/fault.h"
#include "hypervisor/gsx.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "warehouse/warehouse.h"
#include "workload/request_gen.h"
#include "xml/xml.h"

namespace vmp {
namespace {

// -- Parser resilience: malformed input never crashes, only errors -----------------

std::string random_garbage(util::SplitMix64* rng, std::size_t max_len) {
  // Printable ASCII plus XML-significant characters, biased toward the
  // characters the parser branches on.
  static const char kAlphabet[] =
      "<>&;\"'=/![]-ABCdef123 \n\txml?#CDATA";
  std::string out;
  const std::size_t len = rng->next_below(max_len);
  for (std::size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng->next_below(sizeof(kAlphabet) - 1)];
  }
  return out;
}

TEST(FuzzTest, XmlParserNeverCrashesOnGarbage) {
  util::SplitMix64 rng(0xF022);
  for (int i = 0; i < 3000; ++i) {
    const std::string input = random_garbage(&rng, 200);
    auto doc = xml::parse(input);  // must return, never crash/hang
    (void)doc;
  }
}

TEST(FuzzTest, XmlParserNeverCrashesOnMutatedValidDocuments) {
  const std::string valid =
      workload::workspace_request(64, 0, "ufl.edu").to_xml_string();
  util::SplitMix64 rng(0xF023);
  for (int i = 0; i < 1000; ++i) {
    std::string mutated = valid;
    const std::size_t mutations = 1 + rng.next_below(8);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0: mutated[pos] = static_cast<char>(rng.next_below(256)); break;
        case 1: mutated.erase(pos, 1); break;
        default: mutated.insert(pos, 1, '<'); break;
      }
    }
    auto doc = xml::parse(mutated);
    if (doc.ok()) {
      // A mutated document that still parses must also round-trip.
      auto again = xml::parse(doc.value()->to_string());
      EXPECT_TRUE(again.ok());
    }
  }
}

TEST(FuzzTest, ClassAdParserNeverCrashesOnGarbage) {
  util::SplitMix64 rng(0xF024);
  static const char kAlphabet[] = "[]=;()&|!<>+-*/%\"' azAZ09._,#\n";
  for (int i = 0; i < 3000; ++i) {
    std::string input;
    const std::size_t len = rng.next_below(120);
    for (std::size_t c = 0; c < len; ++c) {
      input += kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
    }
    (void)classad::parse_classad(input);
    (void)classad::parse_expression(input);
  }
}

TEST(FuzzTest, DagXmlParserNeverCrashesOnGarbage) {
  util::SplitMix64 rng(0xF025);
  for (int i = 0; i < 1000; ++i) {
    (void)dag::from_xml_string(random_garbage(&rng, 300));
  }
}

TEST(FuzzTest, HistogramDecodeAcceptsOnlyPlainDigits) {
  // A plant's obs://metrics ad carries each timer's histogram as text; one
  // corrupt ad must not poison a fleet rollup.  Signs and whitespace are
  // refused, as is a total beyond 64 bits.
  for (const char* text : {"3:-1", " 3:+5", "3:+5", "-3:5", "3:5\t",
                           "3:18446744073709551615,4:1"}) {
    EXPECT_FALSE(obs::HistogramSnapshot::decode(text).has_value()) << text;
    classad::ClassAd ad;
    ad.set_integer("plant0_create_seconds_count", 1);
    ad.set_string("plant0_create_seconds_hist", text);
    const obs::MetricsSnapshot snap = obs::metrics_snapshot_from_ad(ad);
    const obs::TimerStats* stats = snap.timer_stats("plant0_create_seconds");
    ASSERT_NE(stats, nullptr);
    EXPECT_TRUE(stats->hist.empty()) << text;
  }
  // Garbage never crashes, and whatever decodes round-trips through
  // encode() with a total equal to its counts.
  util::SplitMix64 rng(0xF027);
  static const char kAlphabet[] = "0123456789::,,+- \t";
  for (int i = 0; i < 5000; ++i) {
    std::string input;
    const std::size_t len = rng.next_below(40);
    for (std::size_t c = 0; c < len; ++c) {
      input += kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
    }
    auto snap = obs::HistogramSnapshot::decode(input);
    if (!snap.has_value()) continue;
    std::uint64_t sum = 0;
    for (const auto& e : snap->entries) sum += e.count;
    EXPECT_EQ(sum, snap->total) << input;
    auto again = obs::HistogramSnapshot::decode(snap->encode());
    ASSERT_TRUE(again.has_value()) << input;
    EXPECT_TRUE(*again == *snap) << input;
  }
}

TEST(FuzzTest, GuestAgentNeverCrashesOnGarbageScripts) {
  util::SplitMix64 rng(0xF026);
  hv::GuestAgent agent;
  hv::GuestState state;
  static const char kAlphabet[] = "abcdefgh /\n\t0123456789.-";
  for (int i = 0; i < 2000; ++i) {
    std::string script;
    const std::size_t len = rng.next_below(150);
    for (std::size_t c = 0; c < len; ++c) {
      script += kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
    }
    (void)agent.execute(&state, script);
  }
}

// -- Fault injection across the service path ----------------------------------------

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-fault-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ = std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
    ASSERT_TRUE(workload::publish_paper_goldens(warehouse_.get()).ok());
    for (int i = 0; i < 3; ++i) {
      core::PlantConfig pc;
      pc.name = "plant" + std::to_string(i);
      plants_.push_back(
          std::make_unique<core::VmPlant>(pc, store_.get(), warehouse_.get()));
      ASSERT_TRUE(plants_.back()->attach_to_bus(&bus_, &registry_).ok());
    }
    shop_ = std::make_unique<core::VmShop>(core::ShopConfig{}, &bus_, &registry_);
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
  std::vector<std::unique_ptr<core::VmPlant>> plants_;
  std::unique_ptr<core::VmShop> shop_;
};

TEST_F(FaultTest, ShopToleratesLossyTransport) {
  // 40% of calls to every plant time out; the shop must still complete a
  // burst of creations by skipping unlucky bids and retrying next-best.
  for (int i = 0; i < 3; ++i) {
    bus_.set_drop_rate("plant" + std::to_string(i), 0.4);
  }
  int successes = 0;
  for (int i = 0; i < 20; ++i) {
    auto ad = shop_->create(workload::workspace_request(32, i, "d"));
    if (ad.ok()) ++successes;
  }
  // With three independent plants at 40% loss per call, nearly every
  // request should still find a path.
  EXPECT_GE(successes, 15);
}

TEST_F(FaultTest, AllPlantsDownYieldsCleanNoBids) {
  for (int i = 0; i < 3; ++i) {
    bus_.set_down("plant" + std::to_string(i), true);
  }
  auto ad = shop_->create(workload::workspace_request(32, 0, "d"));
  ASSERT_FALSE(ad.ok());
  EXPECT_EQ(ad.error().code(), util::ErrorCode::kNoBids);
}

TEST_F(FaultTest, PlantRecoversAfterTransientOutage) {
  bus_.set_down("plant0", true);
  bus_.set_down("plant1", true);
  bus_.set_down("plant2", true);
  EXPECT_FALSE(shop_->create(workload::workspace_request(32, 0, "d")).ok());
  bus_.set_down("plant0", false);
  auto ad = shop_->create(workload::workspace_request(32, 1, "d"));
  ASSERT_TRUE(ad.ok());
  EXPECT_EQ(ad.value().get_string(core::attrs::kPlant).value(), "plant0");
}

TEST_F(FaultTest, InjectedVmmStartFailureAbortsCleanly) {
  // Force the next clone's resume to fail inside the hypervisor: the plant
  // must clean up (no leaked instance, no leaked network) and fault.
  auto& plant = *plants_[0];
  // The next VM id the plant will assign:
  const std::string next_id = plant.name() + "-vm-0001";
  {
    fault::ScopedFaultPlan fail_resume(
        fault::FaultPlan::parse("hypervisor.resume:target=" + next_id +
                                ",times=1")
            .value());
    auto ad = plant.create(workload::workspace_request(32, 0, "d"));
    ASSERT_FALSE(ad.ok());
    EXPECT_EQ(plant.active_vms(), 0u);
    EXPECT_EQ(plant.hypervisor().instance_count(), 0u);
    EXPECT_EQ(plant.allocator().free_networks(), 4u);
  }

  // The very next attempt succeeds (failure was transient).
  EXPECT_TRUE(plant.create(workload::workspace_request(32, 1, "d")).ok());
}

TEST_F(FaultTest, RedoLogDiscardOnPowerOff) {
  auto& plant = *plants_[0];
  auto ad = plant.create(workload::workspace_request(32, 0, "d"));
  ASSERT_TRUE(ad.ok());
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();
  const hv::VmInstance* vm = plant.hypervisor().find(vm_id);
  const std::string redo = vm->layout.base_redo_path(vm->spec.disk);

  // Session writes land in the redo log...
  ASSERT_TRUE(store_->append_file(redo, "dirty-blocks").ok());
  EXPECT_GT(store_->file_size(redo).value(), 0u);
  // ...and are discarded at power-off (non-persistent disk semantics).
  ASSERT_TRUE(plant.hypervisor().power_off(vm_id).ok());
  EXPECT_EQ(store_->file_size(redo).value(), 0u);
}

TEST_F(FaultTest, WarehouseSurvivesConcurrentPublishers) {
  util::ThreadPool pool(8);
  std::vector<std::future<bool>> results;
  for (int i = 0; i < 24; ++i) {
    results.push_back(pool.submit([this, i] {
      storage::MachineSpec spec;
      spec.os = "linux";
      spec.memory_bytes = 32ull << 20;
      spec.suspended = true;
      spec.disk = {"disk0", 128ull << 20, 2, storage::DiskMode::kNonPersistent};
      return warehouse_
          ->publish_new("concurrent-" + std::to_string(i), "vmware-gsx", spec,
                        hv::GuestState{}, {})
          .ok();
    }));
  }
  int ok = 0;
  for (auto& f : results) ok += f.get();
  EXPECT_EQ(ok, 24);
  EXPECT_EQ(warehouse_->size(), 3u + 24u);  // paper goldens + these
  // Rescan agrees with the in-memory index.
  warehouse::Warehouse reloaded(store_.get(), "warehouse");
  ASSERT_TRUE(reloaded.rescan().ok());
  EXPECT_EQ(reloaded.size(), warehouse_->size());
}

TEST_F(FaultTest, DuplicatePublishRacesResolveToOneWinner) {
  util::ThreadPool pool(8);
  std::vector<std::future<bool>> results;
  for (int i = 0; i < 8; ++i) {
    results.push_back(pool.submit([this] {
      storage::MachineSpec spec;
      spec.os = "linux";
      spec.memory_bytes = 32ull << 20;
      spec.suspended = true;
      spec.disk = {"disk0", 128ull << 20, 2, storage::DiskMode::kNonPersistent};
      return warehouse_
          ->publish_new("contested-id", "vmware-gsx", spec, hv::GuestState{},
                        {})
          .ok();
    }));
  }
  int winners = 0;
  for (auto& f : results) winners += f.get();
  EXPECT_EQ(winners, 1);
  EXPECT_TRUE(warehouse_->contains("contested-id"));
}

TEST_F(FaultTest, SpeculativeHitsFlowThroughTheShop) {
  for (auto& plant : plants_) {
    ASSERT_TRUE(plant->pre_create("golden-32mb", 1).ok());
  }
  auto ad = shop_->create(workload::workspace_request(32, 0, "d"));
  ASSERT_TRUE(ad.ok());
  EXPECT_TRUE(ad.value().get_boolean(core::attrs::kSpeculativeHit).value());
}

// -- Plan-driven fault injection ----------------------------------------------------

TEST_F(FaultTest, CorruptedGoldenDescriptorFailsRescanWithParseError) {
  // Corrupt one golden image descriptor on disk; a fresh warehouse rescan
  // must surface kParseError (not crash, not silently drop the image).
  ASSERT_TRUE(store_
                  ->write_file("warehouse/golden-32mb/descriptor.xml",
                               "<golden id=\"x\"><machi")
                  .ok());
  warehouse::Warehouse reloaded(store_.get(), "warehouse");
  auto rescan = reloaded.rescan();
  ASSERT_FALSE(rescan.ok());
  EXPECT_EQ(rescan.error().code(), util::ErrorCode::kParseError);
}

TEST_F(FaultTest, InjectedDescriptorReadFailureSurfacesAsStoreError) {
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::parse("store.read:target=descriptor.xml,times=1")
          .value());
  warehouse::Warehouse reloaded(store_.get(), "warehouse");
  auto rescan = reloaded.rescan();
  ASSERT_FALSE(rescan.ok());
  EXPECT_EQ(rescan.error().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(fault::FaultRegistry::instance().fired("store.read"), 1u);
  // With the fault spent, the same rescan succeeds.
  EXPECT_TRUE(reloaded.rescan().ok());
}

TEST_F(FaultTest, BidMessageLossExcludesPlantFromBidding) {
  // plant1 is unreachable for the whole request: it never bids, and the
  // creation lands on one of the surviving plants.
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::parse("bus.send:target=plant1").value());
  auto ad = shop_->create(workload::workspace_request(32, 0, "d"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_NE(ad.value().get_string(core::attrs::kPlant).value(), "plant1");
  EXPECT_GE(fault::FaultRegistry::instance().fired("bus.send"), 1u);
}

TEST_F(FaultTest, TransportTimeoutOnCreateIsRetriedAgainstSamePlant) {
  // The three estimate calls pass (after=3); the first create call times
  // out at the transport layer, and the shop retries the same plant with
  // backoff instead of abandoning it.
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::parse("bus.timeout:after=3,times=1").value());
  auto ad = shop_->create(workload::workspace_request(32, 0, "d"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(fault::FaultRegistry::instance().fired("bus.timeout"), 1u);
  EXPECT_EQ(shop_->retries(), 1u);
  EXPECT_EQ(shop_->failovers(), 0u);
  EXPECT_GT(shop_->retry_backoff_s(), 0.0);
}

TEST_F(FaultTest, StoreWriteFaultMidCloneRecoversViaShopFailover) {
  // Acceptance scenario: the first artefact write of the winning plant's
  // clone fails; the plant reports a typed fault, the shop marks it failed
  // and the next-best bid completes the creation.
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::parse("store.write:target=/clones/,times=1").value());
  auto ad = shop_->create(workload::workspace_request(32, 0, "d"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(fault::FaultRegistry::instance().fired("store.write"), 1u);
  EXPECT_EQ(shop_->failovers(), 1u);
  EXPECT_EQ(shop_->retries(), 0u);

  // The failed plant kept nothing: no instance, no network, and no
  // half-written clone directory.
  const std::string failed_plant = fault::FaultRegistry::instance()
                                       .sequence()
                                       .front()
                                       .substr(std::string("store.write@").size());
  for (auto& plant : plants_) {
    if (failed_plant.rfind(plant->name() + "/", 0) == 0) {
      EXPECT_EQ(plant->active_vms(), 0u);
      EXPECT_EQ(plant->allocator().free_networks(), 4u);
      auto leftover = store_->list_dir(plant->name() + "/clones");
      ASSERT_TRUE(leftover.ok());
      EXPECT_TRUE(leftover.value().empty());
    }
  }
}

TEST_F(FaultTest, ResumeFaultAbortsCleanlyWhenPlantRetryDisabled) {
  // Default plants run with clone_retry disabled (one attempt): an
  // injected VMM resume failure surfaces as the plant's typed error and
  // leaves no residue.
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::parse("hypervisor.resume:times=1").value());
  auto& plant = *plants_[0];
  auto ad = plant.create(workload::workspace_request(32, 0, "d"));
  ASSERT_FALSE(ad.ok());
  EXPECT_EQ(ad.error().code(), util::ErrorCode::kInternal);
  EXPECT_EQ(plant.active_vms(), 0u);
  EXPECT_EQ(plant.allocator().free_networks(), 4u);
  EXPECT_EQ(plant.clone_retries(), 0u);
}

TEST_F(FaultTest, ResumeFaultRecoveredByPlantLocalRetry) {
  // A plant configured with clone_retry enabled absorbs the same transient
  // resume fault locally: the clone is rebuilt and the creation succeeds
  // without any shop involvement.
  core::PlantConfig pc;
  pc.name = "plant-retry";
  pc.clone_retry.max_attempts = 2;
  core::VmPlant plant(pc, store_.get(), warehouse_.get());

  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::parse("hypervisor.resume:times=1").value());
  auto ad = plant.create(workload::workspace_request(32, 0, "d"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(plant.clone_retries(), 1u);
  EXPECT_EQ(plant.active_vms(), 1u);
  EXPECT_EQ(fault::FaultRegistry::instance().fired("hypervisor.resume"), 1u);
}

TEST_F(FaultTest, AllPlantsFaultingYieldsTypedUnavailable) {
  // Every clone write fails everywhere: after failing over through every
  // bidder (and one re-bid round) the shop reports kUnavailable.
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::parse("store.write:target=/clones/").value());
  auto ad = shop_->create(workload::workspace_request(32, 0, "d"));
  ASSERT_FALSE(ad.ok());
  EXPECT_EQ(ad.error().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(shop_->failovers(), 3u);
  for (auto& plant : plants_) {
    EXPECT_EQ(plant->active_vms(), 0u);
    EXPECT_EQ(plant->allocator().free_networks(), 4u);
  }
}

// -- Session-state mechanics -----------------------------------------------------

TEST_F(FaultTest, SuspendResumeCyclePreservesGuestState) {
  auto& plant = *plants_[0];
  auto ad = plant.create(workload::workspace_request(64, 0, "d"));
  ASSERT_TRUE(ad.ok());
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();
  auto& hypervisor = plant.hypervisor();

  ASSERT_TRUE(hypervisor.execute_on_guest(vm_id, "install late-package").ok());
  ASSERT_TRUE(hypervisor.suspend_vm(vm_id).ok());
  ASSERT_TRUE(hypervisor.start_vm(vm_id).ok());  // resume
  EXPECT_TRUE(hypervisor.find(vm_id)->guest.packages.count("late-package"));
  // Resume, not boot: services kept running across the cycle.
  EXPECT_TRUE(
      hypervisor.find(vm_id)->guest.running_services.count("vnc-server"));
}

}  // namespace
}  // namespace vmp
