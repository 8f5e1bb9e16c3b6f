// Concurrency tests for the §10 create pipeline: client storms through the
// shop, admission control, warehouse publish-during-match, and the thread
// pool's shutdown semantics.  These run under the TSan CI job
// (`ctest -L concurrency`), so every scenario here is also a data-race
// probe over the plant/warehouse/shop locking architecture.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.h"
#include "core/plant.h"
#include "core/shop.h"
#include "dag/matching.h"
#include "util/thread_pool.h"
#include "workload/dag_library.h"
#include "workload/request_gen.h"

namespace vmp::core {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-conc-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ =
        std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
    ASSERT_TRUE(workload::publish_paper_goldens(warehouse_.get(), {32}).ok());
  }
  void TearDown() override {
    shop_.reset();
    plants_.clear();
    warehouse_.reset();
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  /// Build `count` plants plus a shop over them.
  void build_fleet(std::size_t count, ShopConfig shop_config = {}) {
    for (std::size_t i = 0; i < count; ++i) {
      PlantConfig config;
      config.name = "plant" + std::to_string(i);
      plants_.push_back(
          std::make_unique<VmPlant>(config, store_.get(), warehouse_.get()));
      ASSERT_TRUE(plants_.back()->attach_to_bus(&bus_, &registry_).ok());
    }
    shop_ = std::make_unique<VmShop>(shop_config, &bus_, &registry_);
    ASSERT_TRUE(shop_->attach_to_bus().ok());
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  net::MessageBus bus_;
  net::ServiceRegistry registry_;
  std::vector<std::unique_ptr<VmPlant>> plants_;
  std::unique_ptr<VmShop> shop_;
};

// N client threads storm the shop; every creation must succeed, no VM id
// may be lost or duplicated, and the fleet's instance tables must agree
// with the shop's routing count.
TEST_F(ConcurrencyTest, CreateStormLosesNothing) {
  build_fleet(2);
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 3;

  std::mutex ids_mutex;
  std::vector<std::string> ids;
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t k = 0; k < kPerClient; ++k) {
        const std::size_t index = c * kPerClient + k;
        auto ad = shop_->create(
            workload::workspace_request(32, index, "storm.grid"));
        if (!ad.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto vm_id = ad.value().get_string(attrs::kVmId);
        ASSERT_TRUE(vm_id.has_value());
        std::lock_guard<std::mutex> lock(ids_mutex);
        ids.push_back(*vm_id);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(ids.size(), kClients * kPerClient);
  EXPECT_EQ(std::set<std::string>(ids.begin(), ids.end()).size(), ids.size())
      << "duplicate VM ids handed out";
  std::size_t fleet_active = 0;
  for (const auto& plant : plants_) fleet_active += plant->active_vms();
  EXPECT_EQ(fleet_active, ids.size());
  EXPECT_EQ(shop_->creations(), ids.size());

  // Every VM is individually reachable and collectable.
  for (const std::string& id : ids) EXPECT_TRUE(shop_->destroy(id).ok());
  for (const auto& plant : plants_) {
    EXPECT_EQ(plant->active_vms(), 0u);
    EXPECT_EQ(plant->inflight_creates(), 0u);
  }
}

// The admission controller's bounded queue: occupants hold slots, waiters
// queue up to the limit, and the caller past both bounds is rejected
// immediately with kResourceExhausted — then everything drains.
TEST(AdmissionControllerTest, RejectsBeyondQueueAndDrains) {
  AdmissionController admission(AdmissionConfig{2, 1});

  auto first = admission.admit();
  auto second = admission.admit();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(admission.inflight(), 2u);

  // One waiter fits in the queue...
  std::promise<void> queued_up;
  std::thread waiter([&] {
    std::thread signal([&] {
      while (admission.queued() == 0) std::this_thread::yield();
      queued_up.set_value();
    });
    auto slot = admission.admit();  // blocks until a slot frees
    EXPECT_TRUE(slot.ok());
    signal.join();
  });
  queued_up.get_future().wait();

  // ...and the next caller is over both bounds: rejected, not blocked.
  auto rejected = admission.admit();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(admission.rejected(), 1u);

  // Freeing a slot lets the queued waiter through; its slot is returned
  // when the waiter thread finishes.
  { auto release = std::move(first); }
  waiter.join();
  EXPECT_EQ(admission.inflight(), 1u);  // only `second` remains
  { auto release = std::move(second); }
  EXPECT_EQ(admission.inflight(), 0u);
  EXPECT_EQ(admission.queued(), 0u);
}

// Shop-level admission: with one create slot and a deep queue, a storm is
// fully serialized but nothing is rejected or lost.
TEST_F(ConcurrencyTest, ShopAdmissionQueuesWithoutRejection) {
  ShopConfig config;
  config.max_inflight_creates = 1;
  config.admission_queue_limit = 16;
  build_fleet(1, config);

  constexpr std::size_t kClients = 6;
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto ad = shop_->create(workload::workspace_request(32, c, "adm.grid"));
      if (ad.ok()) ok.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(ok.load(), kClients);
  EXPECT_EQ(shop_->admission().rejected(), 0u);
  EXPECT_EQ(shop_->admission().inflight(), 0u);
  EXPECT_EQ(shop_->admission().queued(), 0u);
  EXPECT_EQ(plants_[0]->active_vms(), kClients);
}

// Publishing new golden images while readers match and list: readers must
// never observe a half-published image (the placeholder claim), and the
// index must end complete.
TEST_F(ConcurrencyTest, WarehousePublishDuringMatchStaysConsistent) {
  constexpr std::size_t kPublishes = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad_reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto scan = warehouse_->match_candidates(
            "vmware-gsx", [](const warehouse::GoldenImage&) { return true; },
            ~0ull);
        for (const auto& candidate : scan.candidates) {
          if (candidate.id.empty()) bad_reads.fetch_add(1);
        }
        for (const auto& image : warehouse_->list()) {
          if (image.id.empty()) bad_reads.fetch_add(1);
        }
      }
    });
  }

  std::thread publisher([&] {
    for (std::size_t i = 0; i < kPublishes; ++i) {
      storage::MachineSpec spec;
      spec.os = "linux-mandrake-8.1";
      spec.memory_bytes = 32ull << 20;
      spec.suspended = true;
      spec.disk.name = "disk0";
      spec.disk.capacity_bytes = 2ull << 30;
      spec.disk.span_count = 4;
      spec.disk.mode = storage::DiskMode::kNonPersistent;
      auto published = warehouse_->publish_new(
          "golden-extra-" + std::to_string(i), "vmware-gsx", spec,
          hv::GuestState{}, {});
      EXPECT_TRUE(published.ok());
    }
    stop.store(true, std::memory_order_release);
  });

  publisher.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(bad_reads.load(), 0u) << "reader saw a half-published image";
  EXPECT_EQ(warehouse_->size(), 1 + kPublishes);  // paper golden + extras
  for (std::size_t i = 0; i < kPublishes; ++i) {
    EXPECT_TRUE(warehouse_->contains("golden-extra-" + std::to_string(i)));
  }
}

// Planners keep evaluating the views of one scan while the lifecycle
// detaches, re-attaches and replaces the scanned images: each view holds
// the shared history it was handed, so every evaluation still matches.
TEST_F(ConcurrencyTest, CandidateViewsSurviveConcurrentEviction) {
  workload::WorkspaceParams params;
  const dag::ConfigDag request = workload::invigo_workspace_dag(params);
  const auto any = [](const warehouse::GoldenImage&) { return true; };
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> evaluated{0};
  std::atomic<std::size_t> bad{0};

  std::vector<std::thread> planners;
  for (int r = 0; r < 3; ++r) {
    planners.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto scan = warehouse_->match_candidates("vmware-gsx", any, ~0ull);
        std::this_thread::yield();  // let the evictor run between scan and use
        for (const auto& view : scan.candidates) {
          auto eval = dag::evaluate_match(request, view.performed);
          if (!eval.ok() || !eval.value().matches() ||
              eval.value().satisfied.size() != 3) {
            bad.fetch_add(1);
          }
          evaluated.fetch_add(1);
        }
      }
    });
  }

  std::thread evictor([&] {
    for (int i = 0; i < 50; ++i) {
      auto detached = warehouse_->detach("golden-32mb");
      EXPECT_TRUE(detached.ok());
      if (detached.ok()) {
        EXPECT_TRUE(warehouse_->attach(detached.value()).ok());
      }
    }
    // Wait for some evaluations, bounded so a starved reader cannot hang.
    for (int spin = 0; spin < 10000 && evaluated.load() < 20; ++spin) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  });

  evictor.join();
  for (auto& t : planners) t.join();
  EXPECT_EQ(bad.load(), 0u) << "a view lost its history to an eviction";
  EXPECT_TRUE(warehouse_->contains("golden-32mb"));
}

// submit() after shutdown has begun must not throw: the task is never run
// and its future carries ThreadPool::Stopped instead.
TEST(ThreadPoolTest, SubmitAfterShutdownReturnsFailedFuture) {
  auto pool = std::make_unique<util::ThreadPool>(1);
  util::ThreadPool* raw = pool.get();  // prober must not race the unique_ptr
  std::promise<void> release;
  auto blocked = pool->submit([&] { release.get_future().wait(); });

  // Once the destructor flips stopped(), submit from another thread and
  // only then unblock the worker (which gates destructor completion, so
  // the pool object is alive for the whole submit call).
  std::thread prober([&] {
    while (!raw->stopped()) std::this_thread::yield();
    auto late = raw->submit([] { return 42; });
    EXPECT_THROW(late.get(), util::ThreadPool::Stopped);
    release.set_value();
  });
  pool.reset();
  prober.join();
  blocked.get();
}

// wait_idle racing a storm of submits: it must neither hang nor miss the
// tasks it covers, and every submitted task eventually runs.
TEST(ThreadPoolTest, WaitIdleConcurrentWithSubmit) {
  util::ThreadPool pool(4);
  constexpr int kProducers = 4;
  constexpr int kTasksEach = 50;
  std::atomic<int> executed{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kTasksEach; ++i) {
        (void)pool.submit([&] { executed.fetch_add(1); });
        if (i % 16 == 0) pool.wait_idle();
      }
    });
  }
  std::thread idler([&] {
    for (int i = 0; i < 20; ++i) pool.wait_idle();
  });
  for (auto& t : producers) t.join();
  idler.join();
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kProducers * kTasksEach);
  EXPECT_EQ(pool.pending(), 0u);
}

// Sequential creations with a fixed tie-break seed land on the same plants
// in the same order across two identically-built fleets — the concurrency
// machinery must not perturb the single-threaded deterministic path.
TEST(DeterminismTest, SequentialCreationDeterministicUnderFixedSeed) {
  const auto run_sequence = [](const std::filesystem::path& root) {
    std::filesystem::remove_all(root);
    std::vector<std::string> assignment;
    {
      storage::ArtifactStore store(root);
      warehouse::Warehouse wh(&store, "warehouse");
      EXPECT_TRUE(workload::publish_paper_goldens(&wh, {32}).ok());
      net::MessageBus bus;
      net::ServiceRegistry registry;
      std::vector<std::unique_ptr<VmPlant>> plants;
      for (std::size_t i = 0; i < 3; ++i) {
        PlantConfig config;
        config.name = "plant" + std::to_string(i);
        plants.push_back(std::make_unique<VmPlant>(config, &store, &wh));
        EXPECT_TRUE(plants.back()->attach_to_bus(&bus, &registry).ok());
      }
      ShopConfig shop_config;
      shop_config.tie_break_seed = 7;
      VmShop shop(shop_config, &bus, &registry);
      EXPECT_TRUE(shop.attach_to_bus().ok());

      for (std::size_t i = 0; i < 6; ++i) {
        auto ad = shop.create(workload::workspace_request(
            32, i, "det.grid" + std::to_string(i % 3)));
        EXPECT_TRUE(ad.ok());
        if (ad.ok()) {
          assignment.push_back(ad.value().get_string(attrs::kPlant).value());
        }
      }
    }
    std::filesystem::remove_all(root);
    return assignment;
  };

  const auto base = std::filesystem::temp_directory_path() /
                    ("vmp-conc-det-" + std::to_string(::getpid()));
  const auto first = run_sequence(base.string() + "-a");
  const auto second = run_sequence(base.string() + "-b");
  ASSERT_EQ(first.size(), 6u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace vmp::core
