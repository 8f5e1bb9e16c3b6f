// Warehouse lifecycle tests: quota admission, lease-protected eviction,
// zombies, crash-recoverable index, orphan sweep, and the eviction policies.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "hypervisor/gsx.h"
#include "lifecycle/lifecycle.h"
#include "lifecycle/policy.h"
#include "warehouse/warehouse.h"

namespace vmp::lifecycle {
namespace {

using util::ErrorCode;

storage::MachineSpec spec_mb(std::uint64_t mem_mb, std::uint64_t disk_mb) {
  storage::MachineSpec spec;
  spec.os = "linux-mandrake-8.1";
  spec.memory_bytes = mem_mb << 20;
  spec.suspended = true;
  spec.disk = storage::DiskSpec{"disk0", disk_mb << 20, 2,
                                storage::DiskMode::kNonPersistent};
  return spec;
}

warehouse::GoldenImage golden(const std::string& id, std::uint64_t mem_mb,
                              std::uint64_t disk_mb,
                              std::vector<std::string> performed = {}) {
  warehouse::GoldenImage image;
  image.id = id;
  image.backend = "vmware-gsx";
  image.spec = spec_mb(mem_mb, disk_mb);
  image.guest.os = image.spec.os;
  image.performed = std::move(performed);
  return image;
}

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-lc-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ = std::make_unique<warehouse::Warehouse>(store_.get(),
                                                        "warehouse");
  }
  void TearDown() override {
    lifecycle_.reset();
    warehouse_.reset();
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  /// Build the manager under test.  Budget 0 = unlimited.
  void make_manager(std::uint64_t budget, const std::string& policy = "gdsf") {
    LifecycleManager::Config config;
    config.disk_budget_bytes = budget;
    config.policy = policy;
    auto manager = LifecycleManager::create(warehouse_.get(), config);
    ASSERT_TRUE(manager.ok()) << manager.error().to_string();
    lifecycle_ = std::move(manager).value();
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  std::unique_ptr<LifecycleManager> lifecycle_;
};

// -- Quota admission --------------------------------------------------------

TEST_F(LifecycleTest, PublishChargesMeasuredFootprint) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 32, 128)).ok());
  auto footprint = store_->tree_footprint("warehouse/g1");
  ASSERT_TRUE(footprint.ok());
  EXPECT_EQ(lifecycle_->used_bytes(), footprint.value().physical_bytes);
  EXPECT_TRUE(warehouse_->contains("g1"));
}

TEST_F(LifecycleTest, OversizedImageRejectedOutright) {
  make_manager(64ull << 20);  // budget far below the image itself
  auto status = lifecycle_->publish(golden("huge", 64, 512));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_FALSE(warehouse_->contains("huge"));
  EXPECT_EQ(lifecycle_->used_bytes(), 0u);
}

TEST_F(LifecycleTest, PublishEvictsToFit) {
  // Budget fits roughly two images; the third publish must evict one.
  make_manager(400ull << 20, "lru");
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 32, 128)).ok());
  ASSERT_TRUE(lifecycle_->publish(golden("g2", 32, 128)).ok());
  ASSERT_TRUE(lifecycle_->publish(golden("g3", 32, 128)).ok());
  EXPECT_TRUE(warehouse_->contains("g3"));
  // LRU: g1 (oldest) went first.
  EXPECT_FALSE(warehouse_->contains("g1"));
  EXPECT_TRUE(warehouse_->contains("g2"));
  EXPECT_FALSE(store_->exists("warehouse/g1"));
  EXPECT_LE(lifecycle_->used_bytes(), 400ull << 20);
}

TEST_F(LifecycleTest, PublishRejectedWhenEverythingLeasedOrPinned) {
  make_manager(400ull << 20);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 32, 128)).ok());
  ASSERT_TRUE(lifecycle_->publish(golden("g2", 32, 128)).ok());
  ASSERT_TRUE(lifecycle_->acquire("g1").ok());  // leased: cannot free
  ASSERT_TRUE(lifecycle_->pin("g2", true).ok());  // pinned: cannot free
  auto status = lifecycle_->publish(golden("g3", 32, 128));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(warehouse_->contains("g1"));
  EXPECT_TRUE(warehouse_->contains("g2"));
  EXPECT_FALSE(warehouse_->contains("g3"));
}

TEST_F(LifecycleTest, PublishCannotReuseALiveId) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 32, 128)).ok());
  const std::uint64_t used = lifecycle_->used_bytes();
  auto status = lifecycle_->publish(golden("g1", 16, 64));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(lifecycle_->used_bytes(), used);
}

TEST_F(LifecycleTest, PublishCannotReuseAZombieId) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 32, 128)).ok());
  ASSERT_TRUE(lifecycle_->acquire("g1").ok());
  ASSERT_TRUE(lifecycle_->evict("g1").ok());  // leased → zombie

  // The zombie is gone from the warehouse index, but its artefact tree is
  // exactly what live clones still symlink into: publishing the same id
  // must be refused, never materialize over it.
  auto status = lifecycle_->publish(golden("g1", 16, 64));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(store_->exists("warehouse/g1/memory.vmss"));
  EXPECT_FALSE(warehouse_->contains("g1"));
  EXPECT_EQ(lifecycle_->zombie_count(), 1u);

  // Lease accounting survived the refused publish: the last release still
  // reaps the zombie, and only then is the id free for reuse.
  lifecycle_->release("g1");
  EXPECT_FALSE(store_->exists("warehouse/g1"));
  EXPECT_EQ(lifecycle_->used_bytes(), 0u);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 16, 64)).ok());
  EXPECT_TRUE(warehouse_->contains("g1"));
}

// -- Leases and zombies -----------------------------------------------------

TEST_F(LifecycleTest, EvictUnleasedDeletesTree) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 32, 128)).ok());
  const std::uint64_t used = lifecycle_->used_bytes();
  ASSERT_GT(used, 0u);
  ASSERT_TRUE(lifecycle_->evict("g1").ok());
  EXPECT_FALSE(warehouse_->contains("g1"));
  EXPECT_FALSE(store_->exists("warehouse/g1"));
  EXPECT_EQ(lifecycle_->used_bytes(), 0u);
}

TEST_F(LifecycleTest, EvictLeasedBecomesZombieThenReaps) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 32, 128)).ok());
  ASSERT_TRUE(lifecycle_->acquire("g1").ok());
  ASSERT_TRUE(lifecycle_->acquire("g1").ok());

  ASSERT_TRUE(lifecycle_->evict("g1").ok());
  // Invisible to the index, descriptor gone, artefacts still on disk.
  EXPECT_FALSE(warehouse_->contains("g1"));
  EXPECT_FALSE(store_->exists("warehouse/g1/descriptor.xml"));
  EXPECT_TRUE(store_->exists("warehouse/g1/memory.vmss"));
  EXPECT_EQ(lifecycle_->zombie_count(), 1u);

  // New leases on a zombie must fail (the PPP cannot see it; only a stale
  // caller could try).
  auto relocked = lifecycle_->acquire("g1");
  ASSERT_FALSE(relocked.ok());
  EXPECT_EQ(relocked.error().code(), ErrorCode::kFailedPrecondition);

  lifecycle_->release("g1");
  EXPECT_TRUE(store_->exists("warehouse/g1"));  // one lease still out
  lifecycle_->release("g1");
  EXPECT_FALSE(store_->exists("warehouse/g1"));  // last release reaped
  EXPECT_EQ(lifecycle_->zombie_count(), 0u);
  EXPECT_EQ(lifecycle_->used_bytes(), 0u);
}

TEST_F(LifecycleTest, EvictToFitSkipsLeasedImages) {
  make_manager(0, "lru");
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 32, 128)).ok());
  ASSERT_TRUE(lifecycle_->publish(golden("g2", 32, 128)).ok());
  ASSERT_TRUE(lifecycle_->acquire("g1").ok());
  // g1 is LRU-oldest but leased; only g2 can free bytes now.
  const std::uint64_t freed = lifecycle_->evict_to_fit(1);
  EXPECT_GT(freed, 0u);
  EXPECT_TRUE(warehouse_->contains("g1"));
  EXPECT_FALSE(warehouse_->contains("g2"));
}

TEST_F(LifecycleTest, PinBlocksExplicitEvict) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 32, 128)).ok());
  ASSERT_TRUE(lifecycle_->pin("g1", true).ok());
  auto status = lifecycle_->evict("g1");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(lifecycle_->pin("g1", false).ok());
  EXPECT_TRUE(lifecycle_->evict("g1").ok());
}

TEST_F(LifecycleTest, AdoptsImagesPublishedDirectlyThroughWarehouse) {
  make_manager(0);
  ASSERT_TRUE(warehouse_
                  ->publish_new("seeded", "vmware-gsx", spec_mb(32, 128),
                                hv::GuestState{}, {})
                  .ok());
  EXPECT_EQ(lifecycle_->used_bytes(), 0u);  // not yet adopted
  ASSERT_TRUE(lifecycle_->acquire("seeded").ok());
  EXPECT_GT(lifecycle_->used_bytes(), 0u);
  lifecycle_->release("seeded");
  EXPECT_TRUE(warehouse_->contains("seeded"));  // release != evict
}

// -- Hypervisor integration -------------------------------------------------

TEST_F(LifecycleTest, CloneLeasePreventsBaseDeletion) {
  make_manager(0);
  auto image = golden("base", 16, 64);
  ASSERT_TRUE(lifecycle_->publish(image).ok());
  auto published = warehouse_->lookup("base");
  ASSERT_TRUE(published.ok());

  hv::GsxHypervisor gsx(store_.get());
  gsx.set_lease_hook(lifecycle_.get());
  ASSERT_TRUE(store_->make_dir("clones").ok());

  hv::CloneSource source;
  source.layout = published.value().layout;
  source.spec = published.value().spec;
  source.guest = published.value().guest;
  source.golden_id = "base";
  ASSERT_TRUE(gsx.clone_vm(source, "clones/vm1", "vm1").ok());

  // The clone's non-persistent spans are symlinks into the base: evicting
  // the base while the clone lives must zombie it, never delete it.
  ASSERT_TRUE(lifecycle_->evict("base").ok());
  EXPECT_TRUE(store_->exists("warehouse/base/disk0-s001.vmdk"));
  EXPECT_EQ(lifecycle_->zombie_count(), 1u);

  // A second clone against the zombie base must be refused at lease time.
  auto again = gsx.clone_vm(source, "clones/vm2", "vm2");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kFailedPrecondition);

  // Destroying the clone releases the last lease and reaps the base.
  ASSERT_TRUE(gsx.destroy_vm("vm1").ok());
  EXPECT_FALSE(store_->exists("warehouse/base"));
  EXPECT_EQ(lifecycle_->zombie_count(), 0u);
}

TEST_F(LifecycleTest, FailedCloneReleasesItsLease) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("base", 16, 64)).ok());
  auto published = warehouse_->lookup("base");
  ASSERT_TRUE(published.ok());

  hv::GsxHypervisor gsx(store_.get());
  gsx.set_lease_hook(lifecycle_.get());
  ASSERT_TRUE(store_->make_dir("clones").ok());
  // Pre-existing clone dir makes clone_image fail AFTER the lease is taken.
  ASSERT_TRUE(store_->make_dir("clones/vm1").ok());

  hv::CloneSource source;
  source.layout = published.value().layout;
  source.spec = published.value().spec;
  source.guest = published.value().guest;
  source.golden_id = "base";
  ASSERT_FALSE(gsx.clone_vm(source, "clones/vm1", "vm1").ok());

  // Lease released on the failure path: a full evict deletes the tree.
  ASSERT_TRUE(lifecycle_->evict("base").ok());
  EXPECT_FALSE(store_->exists("warehouse/base"));
  EXPECT_EQ(lifecycle_->zombie_count(), 0u);
}

// -- Crash recovery ---------------------------------------------------------

TEST_F(LifecycleTest, WarmStartRebuildsIndexAndLedgerFromDisk) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 32, 128, {"a", "b"})).ok());
  ASSERT_TRUE(lifecycle_->publish(golden("g2", 16, 64)).ok());
  const std::uint64_t used_before = lifecycle_->used_bytes();

  // "Crash": a fresh manager + warehouse over the same store, no memory of
  // the first incarnation.
  auto warehouse2 =
      std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
  auto manager2 = LifecycleManager::create(warehouse2.get(), {});
  ASSERT_TRUE(manager2.ok());
  ASSERT_TRUE(manager2.value()->warm_start().ok());

  EXPECT_EQ(warehouse2->size(), 2u);
  EXPECT_TRUE(warehouse2->contains("g1"));
  EXPECT_TRUE(warehouse2->contains("g2"));
  EXPECT_EQ(manager2.value()->used_bytes(), used_before);
  auto recovered = warehouse2->lookup("g1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().performed,
            (std::vector<std::string>{"a", "b"}));
}

TEST_F(LifecycleTest, ZombieNeverResurrectsAcrossWarmStart) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 32, 128)).ok());
  ASSERT_TRUE(lifecycle_->publish(golden("g2", 16, 64)).ok());
  ASSERT_TRUE(lifecycle_->acquire("g1").ok());
  ASSERT_TRUE(lifecycle_->evict("g1").ok());  // zombie, dir still on disk

  auto warehouse2 =
      std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
  auto manager2 = LifecycleManager::create(warehouse2.get(), {});
  ASSERT_TRUE(manager2.ok());
  ASSERT_TRUE(manager2.value()->warm_start().ok());

  // The evicted image lost its descriptor, so the descriptor-driven warm
  // start reconstructs exactly the pre-crash LIVE index.
  EXPECT_EQ(warehouse2->size(), 1u);
  EXPECT_FALSE(warehouse2->contains("g1"));
  EXPECT_TRUE(warehouse2->contains("g2"));

  // The crash dropped all leases; the zombie's remains are now an orphan.
  auto report = manager2.value()->reap_orphans();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().directories, 1u);
  EXPECT_GT(report.value().bytes_freed, 0u);
  EXPECT_FALSE(store_->exists("warehouse/g1"));
}

TEST_F(LifecycleTest, OrphanReaperIsIdempotentAndSparesLiveState) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("live", 16, 64)).ok());
  // A live zombie (leases out) must be spared.
  ASSERT_TRUE(lifecycle_->publish(golden("undead", 16, 64)).ok());
  ASSERT_TRUE(lifecycle_->acquire("undead").ok());
  ASSERT_TRUE(lifecycle_->evict("undead").ok());
  // Debris: an interrupted publish left a partial tree, no descriptor.
  ASSERT_TRUE(store_->make_dir("warehouse/partial").ok());
  ASSERT_TRUE(store_->write_file("warehouse/partial/machine.cfg", "x").ok());

  auto first = lifecycle_->reap_orphans();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().directories, 1u);
  EXPECT_FALSE(store_->exists("warehouse/partial"));
  EXPECT_TRUE(store_->exists("warehouse/live"));
  EXPECT_TRUE(store_->exists("warehouse/undead"));

  auto second = lifecycle_->reap_orphans();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().directories, 0u);
  EXPECT_EQ(second.value().bytes_freed, 0u);
}

TEST_F(LifecycleTest, PropertyWarmStartFixpointAtEveryCrashPrefix) {
  // Property: for ANY operation sequence, crashing after ANY prefix and
  // warm-starting reconstructs exactly the live (descriptor-backed) index
  // with a ledger equal to the on-disk footprints — and recovery is a
  // fixpoint: crashing the recovered incarnation and warm-starting again
  // changes nothing.  Randomized sequences, deterministic seed.
  std::mt19937 rng(20260808);
  constexpr int kSequences = 3;
  constexpr int kOps = 8;
  for (int seq = 0; seq < kSequences; ++seq) {
    struct Op {
      int kind;
      std::string id;
    };
    std::vector<Op> ops;
    for (int i = 0; i < kOps; ++i) {
      ops.push_back({static_cast<int>(rng() % 4),
                     "g" + std::to_string(rng() % 3)});
    }
    for (int prefix = 0; prefix <= kOps; ++prefix) {
      // A fresh world per prefix, so each crash point is independent.
      std::filesystem::remove_all(root_);
      store_ = std::make_unique<storage::ArtifactStore>(root_);
      warehouse_ =
          std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
      make_manager(0);
      for (int i = 0; i < prefix; ++i) {
        switch (ops[i].kind) {
          case 0:
            (void)lifecycle_->publish(golden(ops[i].id, 8, 16));
            break;
          case 1:
            (void)lifecycle_->acquire(ops[i].id);
            break;
          case 2:
            lifecycle_->release(ops[i].id);
            break;
          default:
            (void)lifecycle_->evict(ops[i].id);
            break;
        }
      }
      // Ground truth: the live index and its on-disk bytes.
      std::vector<std::string> live;
      std::uint64_t live_bytes = 0;
      for (const auto& image : warehouse_->list()) {
        live.push_back(image.id);
        auto footprint = store_->tree_footprint("warehouse/" + image.id);
        ASSERT_TRUE(footprint.ok());
        live_bytes += footprint.value().physical_bytes;
      }

      // Crash #1: fresh warehouse + manager, no memory, warm start.
      auto warehouse2 =
          std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
      auto manager2 = LifecycleManager::create(warehouse2.get(), {});
      ASSERT_TRUE(manager2.ok());
      ASSERT_TRUE(manager2.value()->warm_start().ok())
          << "seq " << seq << " prefix " << prefix;
      std::vector<std::string> recovered;
      for (const auto& image : warehouse2->list()) {
        recovered.push_back(image.id);
      }
      EXPECT_EQ(recovered, live) << "seq " << seq << " prefix " << prefix;
      EXPECT_EQ(manager2.value()->used_bytes(), live_bytes)
          << "seq " << seq << " prefix " << prefix;

      // Crash #2 over the recovered state: warm_start must be a fixpoint.
      auto warehouse3 =
          std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
      auto manager3 = LifecycleManager::create(warehouse3.get(), {});
      ASSERT_TRUE(manager3.ok());
      ASSERT_TRUE(manager3.value()->warm_start().ok());
      std::vector<std::string> again;
      for (const auto& image : warehouse3->list()) {
        again.push_back(image.id);
      }
      EXPECT_EQ(again, recovered);
      EXPECT_EQ(manager3.value()->used_bytes(),
                manager2.value()->used_bytes());
    }
  }
}

// -- Concurrency (TSan targets) ---------------------------------------------

TEST_F(LifecycleTest, CloneEvictStormNeverBreaksALease) {
  make_manager(0);
  constexpr int kImages = 4;
  for (int i = 0; i < kImages; ++i) {
    std::string id(1, 'g');  // appended: GCC 12 -Wrestrict at -O3
    id += std::to_string(i);
    ASSERT_TRUE(lifecycle_->publish(golden(id, 16, 64)).ok());
  }
  hv::GsxHypervisor gsx(store_.get());
  gsx.set_lease_hook(lifecycle_.get());
  ASSERT_TRUE(store_->make_dir("clones").ok());

  std::atomic<int> vm_seq{0};
  std::atomic<int> broken_bases{0};
  std::vector<std::thread> cloners;
  for (int t = 0; t < 4; ++t) {
    cloners.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        std::string id(1, 'g');
        id += std::to_string((t + i) % kImages);
        auto image = warehouse_->lookup(id);
        if (!image.ok()) continue;  // evicted between pick and lookup: fine
        hv::CloneSource source;
        source.layout = image.value().layout;
        source.spec = image.value().spec;
        source.guest = image.value().guest;
        source.golden_id = id;
        const std::string vm = "vm" + std::to_string(vm_seq.fetch_add(1));
        auto cloned = gsx.clone_vm(source, "clones/" + vm, vm);
        if (!cloned.ok()) continue;  // lost the race to an eviction: fine
        // INVARIANT: while this clone lives, its base tree must exist.
        if (!store_->exists(image.value().layout.dir + "/disk0-s001.vmdk")) {
          broken_bases.fetch_add(1);
        }
        ASSERT_TRUE(gsx.destroy_vm(vm).ok());
      }
    });
  }
  std::vector<std::thread> evictors;
  for (int t = 0; t < 2; ++t) {
    evictors.emplace_back([&, t] {
      for (int i = 0; i < 16; ++i) {
        std::string id(1, 'g');
        id += std::to_string((t + i) % kImages);
        (void)lifecycle_->evict(id);
      }
    });
  }
  for (auto& th : cloners) th.join();
  for (auto& th : evictors) th.join();
  EXPECT_EQ(broken_bases.load(), 0);
  // Every clone was destroyed, so no zombie can survive the storm.
  EXPECT_EQ(lifecycle_->zombie_count(), 0u);
}

TEST_F(LifecycleTest, ConcurrentPublishStormRespectsBudget) {
  // Budget admits ~3 of 8 images; concurrent publishes fight for room.
  make_manager(500ull << 20);
  std::atomic<int> admitted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> publishers;
  for (int t = 0; t < 8; ++t) {
    publishers.emplace_back([&, t] {
      auto status =
          lifecycle_->publish(golden("g" + std::to_string(t), 32, 128));
      if (status.ok()) {
        admitted.fetch_add(1);
      } else {
        ASSERT_EQ(status.error().code(), ErrorCode::kResourceExhausted);
        rejected.fetch_add(1);
      }
    });
  }
  for (auto& th : publishers) th.join();
  EXPECT_EQ(admitted.load() + rejected.load(), 8);
  EXPECT_GT(admitted.load(), 0);
  EXPECT_LE(lifecycle_->used_bytes(), 500ull << 20);
  EXPECT_EQ(warehouse_->size(),
            static_cast<std::size_t>(lifecycle_->stats().size()));
}

// -- Policies ---------------------------------------------------------------

TEST(PolicyTest, LruEvictsOldestFirst) {
  LruPolicy lru;
  std::vector<ImageStats> stats(3);
  stats[0].id = "a";
  stats[0].last_use_tick = 5;
  stats[1].id = "b";
  stats[1].last_use_tick = 2;
  stats[2].id = "c";
  stats[2].last_use_tick = 9;
  EXPECT_EQ(lru.rank(stats),
            (std::vector<std::string>{"b", "a", "c"}));
}

TEST(PolicyTest, GdsfPrefersEvictingCheapLowValueImages) {
  GdsfPolicy gdsf;
  ImageStats big_cold;  // huge, never cloned, cheap to rebuild
  big_cold.id = "big-cold";
  big_cold.physical_bytes = 2ull << 30;
  big_cold.hits = 0;
  big_cold.rebuild_cost_s = 30.0;
  ImageStats small_hot;  // small, popular, expensive to rebuild
  small_hot.id = "small-hot";
  small_hot.physical_bytes = 64ull << 20;
  small_hot.hits = 40;
  small_hot.rebuild_cost_s = 90.0;
  EXPECT_LT(gdsf.priority(big_cold), gdsf.priority(small_hot));
  EXPECT_EQ(gdsf.rank({big_cold, small_hot}).front(), "big-cold");
}

TEST(PolicyTest, GdsfClockAgesOutFormerlyPopularImages) {
  GdsfPolicy gdsf;
  ImageStats victim;
  victim.id = "v";
  victim.physical_bytes = 1ull << 20;
  victim.rebuild_cost_s = 50.0;
  victim.hits = 10;
  const double before = gdsf.clock();
  gdsf.on_evict(victim);
  EXPECT_GT(gdsf.clock(), before);
  // The clock never regresses, even if a lower-priority victim follows.
  const double after = gdsf.clock();
  ImageStats cheap;
  cheap.id = "c";
  cheap.physical_bytes = 1ull << 30;
  cheap.rebuild_cost_s = 1.0;
  gdsf.on_evict(cheap);
  EXPECT_GE(gdsf.clock(), after);
}

TEST(PolicyTest, RebuildCostGrowsWithBytesFilesAndActions) {
  RebuildCostModel model;
  const double base = model.rebuild_cost_s(1ull << 30, 16, 0);
  EXPECT_GT(model.rebuild_cost_s(2ull << 30, 16, 0), base);
  EXPECT_GT(model.rebuild_cost_s(1ull << 30, 32, 0), base);
  EXPECT_GT(model.rebuild_cost_s(1ull << 30, 16, 4), base);
}

TEST(PolicyTest, UnknownPolicyNameRejected) {
  auto policy = make_policy("mru");
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.error().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace vmp::lifecycle
