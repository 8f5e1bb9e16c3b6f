// Tests for the timing model and the simulated deployment, sequential and
// with a window of concurrent creations.
#include <gtest/gtest.h>

#include <set>

#include "cluster/deployment.h"
#include "cluster/timing_model.h"
#include "util/stats.h"
#include "workload/request_gen.h"

namespace vmp::cluster {
namespace {

constexpr std::uint64_t kMb = 1ull << 20;

CreationObservation gsx_observation(std::uint64_t mem_mb,
                                    std::uint64_t resident_mb = 0,
                                    std::uint64_t active = 0) {
  CreationObservation obs;
  obs.backend = "vmware-gsx";
  obs.memory_bytes = mem_mb * kMb;
  obs.clone_bytes_copied = mem_mb * kMb + 4096;  // memory + small artefacts
  obs.clone_links = 16;
  obs.resident_before_bytes = resident_mb * kMb;
  obs.active_vms_before = active;
  obs.guest_actions = 6;
  obs.isos_connected = 6;
  obs.bidding_plants = 8;
  return obs;
}

// -- TimingModel --------------------------------------------------------------

TEST(TimingModelTest, CloneTimeGrowsWithMemorySize) {
  TimingModel model(TimingConfig{}, 1);
  const double t32 = model.time_creation(gsx_observation(32)).clone_sec;
  const double t64 = model.time_creation(gsx_observation(64)).clone_sec;
  const double t256 = model.time_creation(gsx_observation(256)).clone_sec;
  EXPECT_LT(t32, t64);
  EXPECT_LT(t64, t256);
}

TEST(TimingModelTest, CalibrationLandsInPaperRange) {
  // Means over many noisy draws should sit near the paper's reported
  // ranges: creation 17-85 s overall; clone ≈ 5-15 s (32/64 MB) and
  // ≈ 25-60 s (256 MB).
  TimingModel model(TimingConfig{}, 7);
  util::Summary clone32, clone256, total32, total256;
  for (int i = 0; i < 200; ++i) {
    const CreationTiming t32 = model.time_creation(gsx_observation(32));
    const CreationTiming t256 = model.time_creation(gsx_observation(256));
    clone32.add(t32.clone_sec);
    clone256.add(t256.clone_sec);
    total32.add(t32.total_sec);
    total256.add(t256.total_sec);
  }
  EXPECT_GT(clone32.mean(), 4.0);
  EXPECT_LT(clone32.mean(), 15.0);
  EXPECT_GT(clone256.mean(), 25.0);
  EXPECT_LT(clone256.mean(), 60.0);
  EXPECT_GT(total32.mean(), 17.0);
  EXPECT_LT(total32.mean(), 40.0);
  EXPECT_LT(total256.mean(), 85.0);
}

TEST(TimingModelTest, FullCopyApproximatelyPaper210Seconds) {
  TimingModel model(TimingConfig{}, 3);
  util::Summary copies;
  for (int i = 0; i < 100; ++i) {
    copies.add(model.full_copy_sec(2048 * kMb, 16));
  }
  EXPECT_GT(copies.mean(), 180.0);
  EXPECT_LT(copies.mean(), 240.0);
}

TEST(TimingModelTest, PressureMultiplierKicksInPastKnee) {
  TimingModel model(TimingConfig{}, 1);
  // Empty plant: no pressure.
  EXPECT_NEAR(model.pressure_multiplier(0, 0, 64 * kMb), 1.0, 0.05);
  // 15 resident 64 MB VMs on a 1.5 GB host: well past the knee.
  const double loaded =
      model.pressure_multiplier(15 * 64 * kMb, 15, 64 * kMb);
  EXPECT_GT(loaded, 1.5);
  // Monotone in residency.
  EXPECT_GT(model.pressure_multiplier(1200 * kMb, 5, 256 * kMb),
            model.pressure_multiplier(600 * kMb, 2, 256 * kMb));
}

TEST(TimingModelTest, UmlBootDominatesCloneTime) {
  TimingModel model(TimingConfig{}, 5);
  CreationObservation obs = gsx_observation(32);
  obs.backend = "uml";
  obs.clone_bytes_copied = 4096;  // no memory state
  obs.clone_links = 1;
  util::Summary clones;
  for (int i = 0; i < 100; ++i) {
    clones.add(model.time_creation(obs).clone_sec);
  }
  // Paper §4.3: UML full-boot clone average 76 s.
  EXPECT_GT(clones.mean(), 60.0);
  EXPECT_LT(clones.mean(), 95.0);
}

TEST(TimingModelTest, DeterministicForSameSeed) {
  TimingModel a(TimingConfig{}, 42);
  TimingModel b(TimingConfig{}, 42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.time_creation(gsx_observation(64)).total_sec,
                     b.time_creation(gsx_observation(64)).total_sec);
  }
}

TEST(TimingModelTest, PhasesSumToTotal) {
  TimingModel model(TimingConfig{}, 9);
  const CreationTiming t = model.time_creation(gsx_observation(64));
  EXPECT_NEAR(t.total_sec, t.clone_sec + t.config_sec + t.shop_sec, 1e-9);
  EXPECT_GT(t.clone_sec, 0.0);
  EXPECT_GT(t.config_sec, 0.0);
  EXPECT_GT(t.shop_sec, 0.0);
}

// -- SimulatedDeployment ----------------------------------------------------------

class DeploymentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DeploymentConfig config;
    config.plant_count = 4;  // smaller than the paper for test speed
    config.seed = 99;
    deployment_ = std::make_unique<SimulatedDeployment>(config);
    ASSERT_TRUE(
        workload::publish_paper_goldens(&deployment_->warehouse()).ok());
  }
  std::unique_ptr<SimulatedDeployment> deployment_;
};

TEST_F(DeploymentTest, RunsRequestsThroughRealStack) {
  auto samples = deployment_->run_sequence(
      workload::workspace_requests(64, 8, "ufl.edu"));
  ASSERT_EQ(samples.size(), 8u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].sequence, i + 1);
    EXPECT_FALSE(samples[i].vm_id.empty());
    EXPECT_FALSE(samples[i].plant.empty());
    EXPECT_GT(samples[i].timing.total_sec, 0.0);
    EXPECT_EQ(samples[i].observation.memory_bytes, 64 * kMb);
  }
  // The virtual clock advanced by the sum of creation times.
  double sum = 0;
  for (const auto& s : samples) sum += s.timing.total_sec;
  EXPECT_NEAR(deployment_->sim_now(), sum, 1e-6);
  EXPECT_EQ(deployment_->creations(), 8u);
}

TEST_F(DeploymentTest, MemoryBasedBiddingBalancesPlants) {
  auto samples = deployment_->run_sequence(
      workload::workspace_requests(64, 16, "ufl.edu"));
  ASSERT_EQ(samples.size(), 16u);
  std::map<std::string, int> per_plant;
  for (const auto& s : samples) per_plant[s.plant]++;
  // Memory-available bidding spreads 16 VMs evenly over 4 plants.
  EXPECT_EQ(per_plant.size(), 4u);
  for (const auto& [plant, count] : per_plant) EXPECT_EQ(count, 4);
}

TEST_F(DeploymentTest, CollectAllEmptiesPlants) {
  auto samples = deployment_->run_sequence(
      workload::workspace_requests(32, 4, "ufl.edu"));
  ASSERT_EQ(samples.size(), 4u);
  deployment_->collect_all();
  for (std::size_t i = 0; i < deployment_->plant_count(); ++i) {
    EXPECT_EQ(deployment_->plant(i).active_vms(), 0u);
  }
}

TEST_F(DeploymentTest, FailedRequestsSkippedNotFatal) {
  std::vector<core::CreateRequest> requests =
      workload::workspace_requests(64, 2, "ufl.edu");
  requests.push_back(workload::workspace_request(128, 9, "ufl.edu"));  // no golden
  requests.push_back(workload::workspace_request(64, 3, "ufl.edu"));
  auto samples = deployment_->run_sequence(requests);
  EXPECT_EQ(samples.size(), 3u);
  EXPECT_EQ(deployment_->failures(), 1u);
}

TEST_F(DeploymentTest, DeterministicAcrossIdenticalDeployments) {
  DeploymentConfig config;
  config.plant_count = 4;
  config.seed = 99;
  SimulatedDeployment other(config);
  ASSERT_TRUE(workload::publish_paper_goldens(&other.warehouse()).ok());

  auto a = deployment_->run_sequence(workload::workspace_requests(64, 6, "d"));
  auto b = other.run_sequence(workload::workspace_requests(64, 6, "d"));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].timing.total_sec, b[i].timing.total_sec);
    EXPECT_EQ(a[i].plant, b[i].plant);
  }
}

TEST_F(DeploymentTest, Figure6EffectCloningSlowsAsPlantsFill) {
  // Drive enough 256 MB VMs that each of the 4 plants holds several:
  // later clones must be slower than early ones (memory pressure).
  auto samples = deployment_->run_sequence(
      workload::workspace_requests(256, 20, "ufl.edu"));
  ASSERT_EQ(samples.size(), 20u);
  const double early = (samples[0].timing.clone_sec +
                        samples[1].timing.clone_sec +
                        samples[2].timing.clone_sec) / 3.0;
  const double late = (samples[17].timing.clone_sec +
                       samples[18].timing.clone_sec +
                       samples[19].timing.clone_sec) / 3.0;
  EXPECT_GT(late, early * 1.3);
}

// -- Concurrent creations (run_sequence's window) -----------------------------

struct WindowRun {
  std::vector<CreationSample> samples;
  double makespan_sec = 0.0;
  double nfs_bytes_moved = 0.0;

  double mean_clone_sec() const {
    util::Summary clone;
    for (const auto& s : samples) clone.add(s.timing.clone_sec);
    return clone.mean();
  }
};

/// A burst of `requests` 64 MB workspaces through a fresh deployment of
/// `plants` plants, at most `window` in flight.
WindowRun run_window(std::size_t plants, std::size_t requests,
                     std::size_t window, std::uint64_t seed = 1) {
  DeploymentConfig config;
  config.plant_count = plants;
  config.seed = seed;
  SimulatedDeployment site(config);
  EXPECT_TRUE(workload::publish_paper_goldens(&site.warehouse(), {64}).ok());
  WindowRun run;
  run.samples = site.run_sequence(
      workload::workspace_requests(64, requests, "ufl.edu"), false, window);
  run.makespan_sec = site.sim_now();
  run.nfs_bytes_moved = site.nfs_bytes_moved();
  return run;
}

TEST(ConcurrentSimTest, SerialWindowMatchesSequentialIntuition) {
  const WindowRun run = run_window(8, 10, 1);
  ASSERT_EQ(run.samples.size(), 10u);
  // With window 1, creations never overlap: each starts when the previous
  // one completes, and keeps exactly the durations an independent
  // TimingModel gives the same observations.
  TimingModel model(TimingConfig{}, 1);
  double clock = 0.0;
  for (const CreationSample& sample : run.samples) {
    const CreationTiming expected = model.time_creation(sample.observation);
    EXPECT_EQ(sample.timing.clone_sec, expected.clone_sec);
    EXPECT_EQ(sample.timing.config_sec, expected.config_sec);
    EXPECT_EQ(sample.timing.shop_sec, expected.shop_sec);
    EXPECT_EQ(sample.timing.total_sec, expected.total_sec);
    clock += expected.total_sec;
    EXPECT_EQ(sample.sim_time_completed, clock);
  }
  EXPECT_EQ(run.makespan_sec, clock);
}

TEST(ConcurrentSimTest, ConcurrencyShrinksMakespan) {
  const double serial = run_window(8, 16, 1).makespan_sec;
  const double wide = run_window(8, 16, 8).makespan_sec;
  EXPECT_LT(wide, serial * 0.7);
}

TEST(ConcurrentSimTest, ContentionStretchesIndividualClones) {
  // The shared NFS pipe makes concurrent clones individually slower.
  const double serial = run_window(8, 16, 1).mean_clone_sec();
  const double wide = run_window(8, 16, 16).mean_clone_sec();
  EXPECT_GT(wide, serial * 1.5);
}

TEST(ConcurrentSimTest, AllBytesMoveThroughNfs) {
  const WindowRun run = run_window(2, 4, 4);
  ASSERT_EQ(run.samples.size(), 4u);
  double copied = 0.0;
  for (const auto& s : run.samples) {
    EXPECT_GE(s.observation.clone_bytes_copied, 64 * kMb);
    copied += static_cast<double>(s.observation.clone_bytes_copied);
  }
  EXPECT_NEAR(run.nfs_bytes_moved, copied, 1.0);
}

TEST(ConcurrentSimTest, SamplesCoverAllRequests) {
  const WindowRun run = run_window(3, 7, 3, 2);
  ASSERT_EQ(run.samples.size(), 7u);
  const std::set<std::string> plants = {"plant0", "plant1", "plant2"};
  for (std::size_t i = 0; i < run.samples.size(); ++i) {
    const CreationSample& s = run.samples[i];
    EXPECT_EQ(s.sequence, i + 1);  // request order, whatever finished first
    EXPECT_FALSE(s.vm_id.empty());
    EXPECT_EQ(plants.count(s.plant), 1u) << s.plant;
    EXPECT_GT(s.timing.clone_sec, 0.0);
    EXPECT_GE(s.sim_time_completed, s.timing.total_sec);
    EXPECT_LE(s.sim_time_completed, run.makespan_sec);
  }
}

TEST(ConcurrentSimTest, ProjectionFlattensWhenNfsSaturates) {
  // The §6 projection in miniature: 16 creations on 4 plants.  Overlap
  // shortens the makespan until the NFS pipe saturates; past that a wider
  // window only stretches each clone.
  std::vector<WindowRun> runs;
  for (const std::size_t window : {1, 4, 8, 16}) {
    runs.push_back(run_window(4, 16, window));
  }
  const auto nfs_util = [](const WindowRun& run) {
    return run.nfs_bytes_moved /
           (TimingConfig{}.nfs_copy_bytes_per_sec * run.makespan_sec);
  };
  EXPECT_GT(runs[0].makespan_sec / runs[3].makespan_sec, 3.0);
  EXPECT_NEAR(runs[2].makespan_sec / runs[3].makespan_sec, 1.0, 0.1);
  EXPECT_LT(nfs_util(runs[0]), 0.25);
  EXPECT_GT(nfs_util(runs[3]), 0.6);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_LT(runs[i - 1].mean_clone_sec(), runs[i].mean_clone_sec()) << i;
  }
}

}  // namespace
}  // namespace vmp::cluster
