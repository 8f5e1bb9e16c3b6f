// Whole-simulation snapshot/restore (core/snapshot.h): a populated
// warehouse + lifecycle ledger + information system saved to one binary
// frame and reinstated into fresh subsystems must equal the live state —
// including what warm_start() alone cannot recover (hit counts, use order,
// the GDSF aging clock) — plus the committed snapshot fixture, the
// deployment-level helpers over a binary bus, and the snapshot decoder's
// robustness sweep.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "cluster/deployment.h"
#include "core/snapshot.h"
#include "net/codec.h"
#include "wire_fixtures.h"
#include "workload/request_gen.h"

namespace vmp {
namespace {

namespace fs = std::filesystem;

warehouse::GoldenImage small_image(const std::string& id) {
  warehouse::GoldenImage image;
  image.id = id;
  image.backend = "vmware-gsx";
  image.spec.os = "linux";
  image.spec.memory_bytes = 1ull << 20;
  image.spec.suspended = true;
  image.spec.disk = {"disk0", 4ull << 20, 2, storage::DiskMode::kNonPersistent};
  image.guest.os = "linux";
  image.performed = {"installos:linux", "sig:" + id};
  return image;
}

void expect_stats_eq(const std::vector<lifecycle::ImageStats>& a,
                     const std::vector<lifecycle::ImageStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].physical_bytes, b[i].physical_bytes) << a[i].id;
    EXPECT_EQ(a[i].files, b[i].files) << a[i].id;
    EXPECT_EQ(a[i].hits, b[i].hits) << a[i].id;
    EXPECT_EQ(a[i].last_use_tick, b[i].last_use_tick) << a[i].id;
    EXPECT_EQ(a[i].leases, b[i].leases) << a[i].id;
    EXPECT_EQ(a[i].rebuild_cost_s, b[i].rebuild_cost_s) << a[i].id;
    EXPECT_EQ(a[i].pinned, b[i].pinned) << a[i].id;
    EXPECT_EQ(a[i].zombie, b[i].zombie) << a[i].id;
  }
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sandbox_ = fs::temp_directory_path() /
               ("vmp-snapshot-test-" + std::to_string(::getpid()));
    fs::remove_all(sandbox_);
    fs::create_directories(sandbox_);
  }
  void TearDown() override { fs::remove_all(sandbox_); }

  fs::path sandbox_;
};

TEST_F(SnapshotTest, RoundTripEqualsLiveStateAndBeatsWarmStart) {
  storage::ArtifactStore store(sandbox_);
  warehouse::Warehouse wh(&store, "warehouse");
  lifecycle::LifecycleManager::Config cfg;
  cfg.policy = "gdsf";
  auto mgr = lifecycle::LifecycleManager::create(&wh, cfg);
  ASSERT_TRUE(mgr.ok());
  lifecycle::LifecycleManager& live = *mgr.value();

  // Populate: three images, distinct usage histories.
  for (const char* id : {"img-a", "img-b", "img-c"}) {
    ASSERT_TRUE(live.publish(small_image(id)).ok()) << id;
  }
  ASSERT_TRUE(live.acquire("img-a").ok());
  live.release("img-a");
  ASSERT_TRUE(live.acquire("img-a").ok());
  live.release("img-a");
  ASSERT_TRUE(live.acquire("img-b").ok());  // lease held across the snapshot
  ASSERT_TRUE(live.pin("img-c", true).ok());
  // One eviction advances the GDSF aging clock past zero.
  ASSERT_TRUE(live.evict("img-a").ok());
  ASSERT_GT(live.policy_clock(), 0.0);
  ASSERT_EQ(wh.size(), 2u);

  core::VmInformationSystem info;
  info.store("vm-0001", testing::wire_fixture_classad());
  classad::ClassAd second;
  second.set_string("Name", "vm-0002");
  info.store("vm-0002", second);

  core::SnapshotParticipants source{&wh, &live, &info};
  auto frame = core::save_snapshot(source, {{"experiment", "round-trip"}});
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();

  // Restore into FRESH subsystems over the same store.
  warehouse::Warehouse wh2(&store, "warehouse");
  auto mgr2 = lifecycle::LifecycleManager::create(&wh2, cfg);
  ASSERT_TRUE(mgr2.ok());
  core::VmInformationSystem info2;
  core::SnapshotParticipants target{&wh2, mgr2.value().get(), &info2};
  ASSERT_TRUE(core::load_snapshot(frame.value(), target).ok());

  // Index equality, by rendered descriptor (covers every field).
  const auto live_images = wh.list();
  const auto restored_images = wh2.list();
  ASSERT_EQ(live_images.size(), restored_images.size());
  for (std::size_t i = 0; i < live_images.size(); ++i) {
    EXPECT_EQ(warehouse::render_descriptor(live_images[i]),
              warehouse::render_descriptor(restored_images[i]));
  }

  // Ledger equality: footprints, hits, use order, leases, pin flags.
  expect_stats_eq(live.stats(), mgr2.value()->stats());
  EXPECT_EQ(live.used_bytes(), mgr2.value()->used_bytes());
  EXPECT_EQ(live.zombie_count(), mgr2.value()->zombie_count());
  // The GDSF aging clock survives exactly.
  EXPECT_EQ(live.policy_clock(), mgr2.value()->policy_clock());

  // Information-system classads survive.
  EXPECT_EQ(info2.size(), 2u);
  ASSERT_TRUE(info2.query("vm-0002").ok());
  EXPECT_EQ(info2.query("vm-0002").value().get_string("Name"),
            info.query("vm-0002").value().get_string("Name"));

  // warm_start() truth: the index and footprints agree with a disk rescan...
  warehouse::Warehouse wh3(&store, "warehouse");
  auto mgr3 = lifecycle::LifecycleManager::create(&wh3, cfg);
  ASSERT_TRUE(mgr3.ok());
  ASSERT_TRUE(mgr3.value()->warm_start().ok());
  EXPECT_EQ(wh3.size(), wh2.size());
  EXPECT_EQ(mgr3.value()->used_bytes(), mgr2.value()->used_bytes());
  // ...but the snapshot keeps usage history a journal-less warm start
  // cannot: img-b's hit survives restore, warm_start sees it cold.
  auto hits_of = [](const std::vector<lifecycle::ImageStats>& stats,
                    const std::string& id) -> std::uint64_t {
    for (const auto& s : stats) {
      if (s.id == id) return s.hits;
    }
    return ~0ull;
  };
  EXPECT_EQ(hits_of(mgr2.value()->stats(), "img-b"), 1u);
  EXPECT_EQ(hits_of(mgr3.value()->stats(), "img-b"), 0u);
}

TEST_F(SnapshotTest, RestoreRefusesPolicyMismatch) {
  storage::ArtifactStore store(sandbox_);
  warehouse::Warehouse wh(&store, "warehouse");
  lifecycle::LifecycleManager::Config gdsf;
  gdsf.policy = "gdsf";
  auto mgr = lifecycle::LifecycleManager::create(&wh, gdsf);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE(mgr.value()->publish(small_image("img-a")).ok());
  auto frame = core::save_snapshot({&wh, mgr.value().get(), nullptr});
  ASSERT_TRUE(frame.ok());

  lifecycle::LifecycleManager::Config lru;
  lru.policy = "lru";
  auto lru_mgr = lifecycle::LifecycleManager::create(&wh, lru);
  ASSERT_TRUE(lru_mgr.ok());
  auto restored =
      core::load_snapshot(frame.value(), {&wh, lru_mgr.value().get(), nullptr});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code(), util::ErrorCode::kInvalidArgument);
}

TEST_F(SnapshotTest, RestoreRefusesWarehouseRootMismatch) {
  storage::ArtifactStore store(sandbox_);
  warehouse::Warehouse wh(&store, "warehouse");
  auto frame = core::save_snapshot({&wh, nullptr, nullptr});
  ASSERT_TRUE(frame.ok());
  warehouse::Warehouse other(&store, "otherhouse");
  auto restored = core::load_snapshot(frame.value(), {&other, nullptr, nullptr});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code(), util::ErrorCode::kInvalidArgument);
}

TEST(SnapshotCodecTest, PureEncodeDecodeRoundTrip) {
  const core::SnapshotData original = testing::wire_fixture_snapshot();
  auto decoded = core::decode_snapshot(core::encode_snapshot(original));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const core::SnapshotData& got = decoded.value();
  EXPECT_EQ(got.warehouse_base_dir, original.warehouse_base_dir);
  ASSERT_EQ(got.images.size(), original.images.size());
  EXPECT_EQ(warehouse::render_descriptor(got.images[0]),
            warehouse::render_descriptor(original.images[0]));
  ASSERT_TRUE(got.has_ledger);
  EXPECT_EQ(got.ledger.policy, original.ledger.policy);
  EXPECT_EQ(got.ledger.policy_clock, original.ledger.policy_clock);
  EXPECT_EQ(got.ledger.used_bytes, original.ledger.used_bytes);
  EXPECT_EQ(got.ledger.tick, original.ledger.tick);
  ASSERT_EQ(got.ledger.entries.size(), original.ledger.entries.size());
  EXPECT_EQ(got.ledger.entries[0].hits, original.ledger.entries[0].hits);
  EXPECT_EQ(got.ledger.entries[0].rebuild_cost_s,
            original.ledger.entries[0].rebuild_cost_s);
  ASSERT_TRUE(got.has_ads);
  ASSERT_EQ(got.ads.size(), 1u);
  EXPECT_EQ(got.ads[0].first, "vm-0001");
  EXPECT_EQ(got.meta, original.meta);
}

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(VMP_WIRE_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SnapshotCodecTest, DecodesCommittedFixtureByteForByte) {
  const std::string frame = read_fixture("v1-snapshot.bin");
  ASSERT_FALSE(frame.empty());
  auto decoded = core::decode_snapshot(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value().warehouse_base_dir, "warehouse");
  EXPECT_EQ(decoded.value().meta.at("fixture"), "wire-v1");
  // The current encoder must still produce the committed v1 bytes; see
  // codec_test's wire-compat contract note.
  EXPECT_EQ(frame, core::encode_snapshot(testing::wire_fixture_snapshot()));
}

TEST(SnapshotCodecTest, RobustnessSweepFailsCleanly) {
  const std::string frame =
      core::encode_snapshot(testing::wire_fixture_snapshot());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(core::decode_snapshot(frame.substr(0, len)).ok())
        << "snapshot truncated to " << len << " bytes was accepted";
  }
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = frame;
      flipped[byte] ^= static_cast<char>(1 << bit);
      EXPECT_FALSE(core::decode_snapshot(flipped).ok())
          << "snapshot with bit " << bit << " of byte " << byte
          << " flipped was accepted";
    }
  }
}

TEST(DeploymentSnapshotTest, BinaryBusDeploymentSavesAndRestores) {
  cluster::DeploymentConfig dc;
  dc.plant_count = 1;
  dc.wire_format = net::WireFormat::kBinary;
  cluster::SimulatedDeployment site(dc);
  ASSERT_EQ(site.bus().wire_format(), net::WireFormat::kBinary);
  ASSERT_TRUE(workload::publish_paper_goldens(&site.warehouse(), {32}).ok());

  // One creation through the REAL stack (shop -> bid -> plant -> PPP ->
  // production line) with every hop on the binary wire.
  const auto samples = site.run_sequence(
      workload::workspace_requests(32, 1, "codec.test"), true);
  ASSERT_EQ(samples.size(), 1u);
  ASSERT_EQ(site.creations(), 1u);

  auto frame = site.save_snapshot();
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();

  // Lose the index entry (detach keeps the artefact tree on disk, like a
  // restarted shop would find it) and reinstate it from the snapshot.
  const std::string golden_id = site.warehouse().list()[0].id;
  ASSERT_TRUE(site.warehouse().detach(golden_id).ok());
  ASSERT_FALSE(site.warehouse().contains(golden_id));
  ASSERT_TRUE(site.load_snapshot(frame.value()).ok());
  ASSERT_TRUE(site.warehouse().contains(golden_id));
  EXPECT_EQ(site.creations(), 1u);

  // The restored index serves creations again, still over the binary bus.
  const auto more = site.run_sequence(
      workload::workspace_requests(32, 1, "codec.test2"), true);
  EXPECT_EQ(more.size(), 1u);
}

TEST(DeploymentSnapshotTest, RestoredClockAndCountersAreExact) {
  cluster::DeploymentConfig dc;
  dc.plant_count = 2;
  cluster::SimulatedDeployment site(dc);
  ASSERT_TRUE(workload::publish_paper_goldens(&site.warehouse(), {32}).ok());
  ASSERT_EQ(site.run_sequence(workload::workspace_requests(32, 3, "a")).size(),
            3u);
  const double saved_now = site.sim_now();
  auto frame = site.save_snapshot();
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();

  ASSERT_EQ(site.run_sequence(workload::workspace_requests(32, 2, "b")).size(),
            2u);
  ASSERT_NE(site.sim_now(), saved_now);
  ASSERT_TRUE(site.load_snapshot(frame.value()).ok());
  EXPECT_EQ(site.sim_now(), saved_now);  // bit for bit, not to 6 decimals
  EXPECT_EQ(site.creations(), 3u);
  EXPECT_EQ(site.failures(), 0u);
}

TEST(DeploymentSnapshotTest, MalformedMetaIsRefusedAndChangesNothing) {
  cluster::DeploymentConfig dc;
  dc.plant_count = 1;
  cluster::SimulatedDeployment site(dc);
  ASSERT_TRUE(workload::publish_paper_goldens(&site.warehouse(), {32}).ok());
  ASSERT_EQ(site.run_sequence(workload::workspace_requests(32, 1, "a")).size(),
            1u);
  auto frame = site.save_snapshot();
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();
  auto data = core::decode_snapshot(frame.value());
  ASSERT_TRUE(data.ok());

  const std::string golden_id = site.warehouse().list()[0].id;
  ASSERT_TRUE(site.warehouse().detach(golden_id).ok());
  const double now = site.sim_now();
  for (const auto& [key, bad] :
       std::vector<std::pair<std::string, std::string>>{
           {"deployment.sim_now", "12.5x"},
           {"deployment.sim_now", ""},
           {"deployment.sim_now", "inf"},
           {"deployment.sequence", "-1"},
           {"deployment.sequence", "7 "},
           {"deployment.failures", "0x1"},
       }) {
    core::SnapshotData tampered = data.value();
    tampered.meta[key] = bad;
    const util::Status loaded =
        site.load_snapshot(core::encode_snapshot(tampered));
    ASSERT_FALSE(loaded.ok()) << key << "=\"" << bad << "\" was accepted";
    EXPECT_EQ(loaded.error().code(), util::ErrorCode::kParseError);
    // Nothing restored: not the index, not the counters.
    EXPECT_FALSE(site.warehouse().contains(golden_id));
    EXPECT_EQ(site.sim_now(), now);
    EXPECT_EQ(site.creations(), 1u);
    EXPECT_EQ(site.failures(), 0u);
  }
}

}  // namespace
}  // namespace vmp
