// Unit tests for the guest model/agent and the GSX / UML hypervisor
// backends.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>

#include <sys/stat.h>

#include "fault/fault.h"
#include "hypervisor/gsx.h"
#include "hypervisor/guest.h"
#include "hypervisor/uml.h"
#include "util/random.h"

namespace vmp::hv {
namespace {

// -- GuestState serialization ----------------------------------------------------

TEST(GuestStateTest, RenderParseRoundTrip) {
  GuestState s;
  s.os = "linux-mandrake-8.1";
  s.hostname = "ws1";
  s.ip = "10.0.0.5";
  s.mac = "02:56:4d:00:00:05";
  s.packages = {"vnc-server", "web-file-manager"};
  s.users = {{"arijit", "/home/arijit"}};
  s.mounts = {{"/home/arijit", "nfs://punch/home/arijit"}};
  s.running_services = {"vnc-server"};
  s.files = {{"/etc/motd", "hello\nworld\twith\ttabs"}};

  auto parsed = parse_guest_state(render_guest_state(s));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value() == s);
}

TEST(GuestStateTest, EmptyStateRoundTrips) {
  GuestState s;
  auto parsed = parse_guest_state(render_guest_state(s));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value() == s);
}

TEST(GuestStateTest, UnknownTagRejected) {
  EXPECT_FALSE(parse_guest_state("bogus\tx\n").ok());
}

// -- GuestAgent -------------------------------------------------------------------

class AgentTest : public ::testing::Test {
 protected:
  GuestOutput run(const std::string& script) {
    return agent_.execute(&state_, script);
  }
  GuestState state_;
  GuestAgent agent_;
};

TEST_F(AgentTest, InstallAndRequire) {
  auto out = run("install vnc-server\nrequire vnc-server\n");
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.commands_run, 2u);
  EXPECT_TRUE(state_.packages.count("vnc-server"));
}

TEST_F(AgentTest, RequireMissingFails) {
  auto out = run("require emacs");
  EXPECT_FALSE(out.success);
  EXPECT_NE(out.failure_message.find("emacs"), std::string::npos);
}

TEST_F(AgentTest, InstallOsSetsIdentity) {
  auto out = run("installos redhat-8.0");
  EXPECT_TRUE(out.success);
  EXPECT_EQ(state_.os, "redhat-8.0");
}

TEST_F(AgentTest, UserLifecycle) {
  EXPECT_TRUE(run("adduser alice").success);
  EXPECT_EQ(state_.users.at("alice"), "/home/alice");
  EXPECT_TRUE(run("adduser bob /export/bob").success);
  EXPECT_EQ(state_.users.at("bob"), "/export/bob");
  EXPECT_FALSE(run("adduser alice").success);  // duplicate
  EXPECT_TRUE(run("deluser alice").success);
  EXPECT_FALSE(run("deluser alice").success);
}

TEST_F(AgentTest, NetworkAndHostname) {
  EXPECT_TRUE(run("ifconfig 10.1.2.3 02:56:4d:00:00:01").success);
  EXPECT_EQ(state_.ip, "10.1.2.3");
  EXPECT_EQ(state_.mac, "02:56:4d:00:00:01");
  EXPECT_TRUE(run("hostname ws7").success);
  EXPECT_EQ(state_.hostname, "ws7");
}

TEST_F(AgentTest, MountLifecycle) {
  EXPECT_TRUE(run("mount nfs://server/home /home/u").success);
  EXPECT_EQ(state_.mounts.at("/home/u"), "nfs://server/home");
  EXPECT_FALSE(run("mount other /home/u").success);  // busy
  EXPECT_TRUE(run("umount /home/u").success);
  EXPECT_FALSE(run("umount /home/u").success);
}

TEST_F(AgentTest, ServicesRequireInstalledPackage) {
  EXPECT_FALSE(run("start vnc-server").success);
  EXPECT_TRUE(run("install vnc-server\nstart vnc-server").success);
  EXPECT_TRUE(state_.running_services.count("vnc-server"));
  EXPECT_TRUE(run("stop vnc-server").success);
  EXPECT_FALSE(state_.running_services.count("vnc-server"));
}

TEST_F(AgentTest, WriteFileAndOutputs) {
  auto out = run("writefile /etc/conf key=value with spaces\n"
                 "output ip 10.0.0.9\noutput note all good");
  EXPECT_TRUE(out.success);
  EXPECT_EQ(state_.files.at("/etc/conf"), "key=value with spaces");
  EXPECT_EQ(out.outputs.at("ip"), "10.0.0.9");
  EXPECT_EQ(out.outputs.at("note"), "all good");
}

TEST_F(AgentTest, CommentsAndBlankLinesSkipped) {
  auto out = run("# comment\n\n   \ninstall x\n");
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.commands_run, 1u);
}

TEST_F(AgentTest, FailStopsExecution) {
  auto out = run("install a\nfail deliberate break\ninstall b");
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.failure_message, "deliberate break");
  EXPECT_TRUE(state_.packages.count("a"));
  EXPECT_FALSE(state_.packages.count("b"));  // stopped before b
}

TEST_F(AgentTest, FlakyFailsNTimesThenSucceeds) {
  EXPECT_FALSE(run("flaky t1 2").success);
  EXPECT_FALSE(run("flaky t1 2").success);
  EXPECT_TRUE(run("flaky t1 2").success);
  EXPECT_TRUE(run("flaky t1 2").success);
  // Distinct tokens are independent.
  EXPECT_FALSE(run("flaky t2 1").success);
  EXPECT_TRUE(run("flaky t2 1").success);
}

TEST_F(AgentTest, SshKeygenRequiresUserAndIsDeterministic) {
  EXPECT_FALSE(run("sshkeygen ghost").success);
  ASSERT_TRUE(run("hostname ws1\nifconfig 10.0.0.2\nadduser alice").success);
  auto out1 = run("sshkeygen alice");
  ASSERT_TRUE(out1.success);
  const std::string key1 = out1.outputs.at("SSHKey_alice");
  EXPECT_FALSE(key1.empty());
  EXPECT_TRUE(state_.files.count("/home/alice/.ssh/id_rsa.pub"));
  // Same identity -> same fingerprint; different host -> different key.
  auto out2 = run("sshkeygen alice");
  EXPECT_EQ(out2.outputs.at("SSHKey_alice"), key1);
  ASSERT_TRUE(run("hostname ws2").success);
  auto out3 = run("sshkeygen alice");
  EXPECT_NE(out3.outputs.at("SSHKey_alice"), key1);
}

TEST_F(AgentTest, GridCertWritesCredentialAndOutput) {
  EXPECT_FALSE(run("gridcert ghost /O=Grid/CN=x").success);
  ASSERT_TRUE(run("adduser bob").success);
  auto out = run("gridcert bob /O=Grid/OU=ACIS/CN=Bob Smith");
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.outputs.at("GSISubject_bob"), "/O=Grid/OU=ACIS/CN=Bob Smith");
  EXPECT_EQ(state_.files.at("/etc/grid-security/bob.pem"),
            "SUBJECT=/O=Grid/OU=ACIS/CN=Bob Smith");
  EXPECT_FALSE(run("gridcert bob").success);  // missing subject
}

TEST_F(AgentTest, UnknownCommandFails) {
  EXPECT_FALSE(run("explode now").success);
}

TEST_F(AgentTest, MissingArgumentsFail) {
  EXPECT_FALSE(run("install").success);
  EXPECT_FALSE(run("adduser").success);
  EXPECT_FALSE(run("mount just-one").success);
  EXPECT_FALSE(run("output keyonly").success);
  EXPECT_FALSE(run("flaky token notanumber").success);
}

// -- Hypervisor fixtures --------------------------------------------------------------

class HypervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-hv-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  CloneSource make_golden(bool suspended, std::uint64_t mem_mb = 64,
                          const std::string& dir = "warehouse/golden") {
    storage::MachineSpec spec;
    spec.os = "linux-mandrake-8.1";
    spec.memory_bytes = mem_mb << 20;
    spec.suspended = suspended;
    spec.disk = storage::DiskSpec{"disk0", 256ull << 20, suspended ? 4u : 1u,
                                  storage::DiskMode::kNonPersistent};
    storage::ImageLayout layout{dir};
    EXPECT_TRUE(storage::materialize_image(store_.get(), layout, spec).ok());

    CloneSource source;
    source.layout = layout;
    source.spec = spec;
    source.guest.os = spec.os;
    source.guest.packages = {"vnc-server"};
    return source;
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
};

// -- GSX -------------------------------------------------------------------------------

TEST_F(HypervisorTest, GsxCloneResumeLifecycle) {
  GsxHypervisor gsx(store_.get());
  EXPECT_EQ(gsx.type(), "vmware-gsx");
  EXPECT_TRUE(gsx.resumes_from_checkpoint());

  const CloneSource golden = make_golden(/*suspended=*/true);
  auto id = gsx.clone_vm(golden, "clones/vm1", "vm1");
  ASSERT_TRUE(id.ok()) << id.error().to_string();

  const VmInstance* vm = gsx.find("vm1");
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(vm->power, PowerState::kStopped);
  EXPECT_EQ(vm->guest.os, "linux-mandrake-8.1");
  EXPECT_TRUE(vm->guest.packages.count("vnc-server"));

  ASSERT_TRUE(gsx.start_vm("vm1").ok());
  EXPECT_EQ(gsx.find("vm1")->power, PowerState::kRunning);
  // Resume keeps services/state (no boot) — the golden's packages persist.
  EXPECT_TRUE(gsx.find("vm1")->guest.packages.count("vnc-server"));

  ASSERT_TRUE(gsx.power_off("vm1").ok());
  EXPECT_EQ(gsx.find("vm1")->power, PowerState::kStopped);
  ASSERT_TRUE(gsx.destroy_vm("vm1").ok());
  EXPECT_FALSE(store_->exists("clones/vm1"));
}

TEST_F(HypervisorTest, GsxRefusesBootOnlyGolden) {
  GsxHypervisor gsx(store_.get());
  const CloneSource golden = make_golden(/*suspended=*/false);
  auto id = gsx.clone_vm(golden, "clones/vm1", "vm1");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(HypervisorTest, GsxSuspendWritesCheckpoint) {
  GsxHypervisor gsx(store_.get());
  auto id = gsx.clone_vm(make_golden(true), "clones/vm1", "vm1");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(gsx.start_vm("vm1").ok());
  ASSERT_TRUE(gsx.execute_on_guest("vm1", "adduser eve").ok());
  ASSERT_TRUE(gsx.suspend_vm("vm1").ok());
  EXPECT_EQ(gsx.find("vm1")->power, PowerState::kSuspended);
  // guest.state on disk reflects the suspended guest.
  auto text = store_->read_file("clones/vm1/guest.state");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("eve"), std::string::npos);
}

TEST_F(HypervisorTest, DuplicateVmIdRejected) {
  GsxHypervisor gsx(store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true), "clones/a", "vm1").ok());
  auto dup = gsx.clone_vm(make_golden(true), "clones/b", "vm1");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code(), util::ErrorCode::kAlreadyExists);
}

TEST_F(HypervisorTest, OperationsOnMissingVmFail) {
  GsxHypervisor gsx(store_.get());
  EXPECT_FALSE(gsx.start_vm("ghost").ok());
  EXPECT_FALSE(gsx.power_off("ghost").ok());
  EXPECT_FALSE(gsx.destroy_vm("ghost").ok());
  EXPECT_FALSE(gsx.execute_on_guest("ghost", "install x").ok());
}

TEST_F(HypervisorTest, DoubleStartRejected) {
  GsxHypervisor gsx(store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true), "clones/a", "vm1").ok());
  ASSERT_TRUE(gsx.start_vm("vm1").ok());
  EXPECT_FALSE(gsx.start_vm("vm1").ok());
}

TEST_F(HypervisorTest, InjectedStartFailureFiresOnce) {
  GsxHypervisor gsx(store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true), "clones/a", "vm1").ok());
  fault::ScopedFaultPlan fail_resume(
      fault::FaultPlan::parse("hypervisor.resume:target=vm1,times=1").value());
  const util::Status failed = gsx.start_vm("vm1");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code(), util::ErrorCode::kInternal);
  EXPECT_EQ(gsx.find("vm1")->power, PowerState::kStopped);
  EXPECT_TRUE(gsx.start_vm("vm1").ok());  // recovers on retry
}

TEST_F(HypervisorTest, GuestExecutionRequiresRunning) {
  GsxHypervisor gsx(store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true), "clones/a", "vm1").ok());
  EXPECT_FALSE(gsx.execute_on_guest("vm1", "install x").ok());
}

TEST_F(HypervisorTest, IsoScriptPath) {
  GsxHypervisor gsx(store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true), "clones/a", "vm1").ok());
  ASSERT_TRUE(gsx.start_vm("vm1").ok());

  // No ISO connected yet.
  EXPECT_FALSE(gsx.execute_connected_script("vm1").ok());

  auto iso = gsx.connect_script_iso("vm1", "install emacs\noutput ed emacs");
  ASSERT_TRUE(iso.ok());
  EXPECT_TRUE(store_->exists(iso.value()));

  auto out = gsx.execute_connected_script("vm1");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().success);
  EXPECT_EQ(out.value().outputs.at("ed"), "emacs");
  EXPECT_TRUE(gsx.find("vm1")->guest.packages.count("emacs"));

  // Second ISO: the daemon executes the most recently connected CD.
  ASSERT_TRUE(gsx.connect_script_iso("vm1", "install vim").ok());
  ASSERT_TRUE(gsx.execute_connected_script("vm1").ok());
  EXPECT_TRUE(gsx.find("vm1")->guest.packages.count("vim"));
  EXPECT_EQ(gsx.find("vm1")->connected_isos.size(), 2u);
}

TEST_F(HypervisorTest, ResidentMemoryAccounting) {
  GsxHypervisor gsx(store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true, 64), "clones/a", "vm1").ok());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true, 32, "warehouse/golden32"),
                           "clones/b", "vm2")
                  .ok());
  EXPECT_EQ(gsx.resident_memory_bytes(), 0u);  // both stopped
  ASSERT_TRUE(gsx.start_vm("vm1").ok());
  EXPECT_EQ(gsx.resident_memory_bytes(), 64ull << 20);
  ASSERT_TRUE(gsx.start_vm("vm2").ok());
  EXPECT_EQ(gsx.resident_memory_bytes(), 96ull << 20);
  ASSERT_TRUE(gsx.destroy_vm("vm1").ok());
  EXPECT_EQ(gsx.resident_memory_bytes(), 32ull << 20);
  EXPECT_EQ(gsx.instance_ids().size(), 1u);
}

// A failed destroy puts the VM back as it was; a successful one leaves
// nothing behind.  The id is then unknown to every reader, and it may be
// registered again (the plant's id generator is what prevents reuse), with
// its ISO numbering starting over.
TEST_F(HypervisorTest, DestroyErasesTheInstance) {
  GsxHypervisor gsx(store_.get());
  const CloneSource golden = make_golden(true);
  ASSERT_TRUE(gsx.clone_vm(golden, "clones/a", "vm1").ok());
  ASSERT_TRUE(gsx.start_vm("vm1").ok());
  ASSERT_TRUE(gsx.connect_script_iso("vm1", "install x").ok());
  {
    fault::ScopedFaultPlan fail_removal(
        fault::FaultPlan::parse("store.remove:times=1").value());
    ASSERT_FALSE(gsx.destroy_vm("vm1").ok());
  }
  EXPECT_EQ(gsx.find("vm1")->power, PowerState::kRunning);
  EXPECT_EQ(gsx.find("vm1")->connected_isos.size(), 1u);
  EXPECT_EQ(gsx.resident_memory_bytes(), golden.spec.memory_bytes);
  auto second = gsx.connect_script_iso("vm1", "install y");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), "clones/a/config-cd-2.iso");

  ASSERT_TRUE(gsx.destroy_vm("vm1").ok());
  EXPECT_EQ(gsx.find("vm1"), nullptr);
  EXPECT_FALSE(gsx.snapshot_vm("vm1").has_value());
  EXPECT_FALSE(gsx.vm_status("vm1").has_value());
  EXPECT_TRUE(gsx.instance_ids().empty());
  EXPECT_EQ(gsx.instance_count(), 0u);
  EXPECT_EQ(gsx.active_instances(), 0u);
  EXPECT_EQ(gsx.resident_memory_bytes(), 0u);
  EXPECT_EQ(gsx.destroy_vm("vm1").error().code(), util::ErrorCode::kNotFound);

  ASSERT_TRUE(gsx.clone_vm(golden, "clones/b", "vm1").ok());
  ASSERT_TRUE(gsx.start_vm("vm1").ok());
  auto reused = gsx.connect_script_iso("vm1", "install z");
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused.value(), "clones/b/config-cd-1.iso");
}

// -- UML --------------------------------------------------------------------------------

TEST_F(HypervisorTest, UmlBootLifecycle) {
  UmlHypervisor uml(store_.get());
  EXPECT_EQ(uml.type(), "uml");
  EXPECT_FALSE(uml.resumes_from_checkpoint());

  CloneSource golden = make_golden(/*suspended=*/false);
  golden.guest.running_services = {"vnc-server"};  // was running at capture
  auto id = uml.clone_vm(golden, "clones/u1", "u1");
  ASSERT_TRUE(id.ok()) << id.error().to_string();

  ASSERT_TRUE(uml.start_vm("u1").ok());
  // Boot resets transient runtime state: services are not running.
  EXPECT_TRUE(uml.find("u1")->guest.running_services.empty());
  // But installed packages (disk state) survive.
  EXPECT_TRUE(uml.find("u1")->guest.packages.count("vnc-server"));
}

TEST_F(HypervisorTest, UmlRefusesSuspendedGolden) {
  UmlHypervisor uml(store_.get());
  auto id = uml.clone_vm(make_golden(/*suspended=*/true), "clones/u1", "u1");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(HypervisorTest, UmlHasNoSuspendSupport) {
  UmlHypervisor uml(store_.get());
  ASSERT_TRUE(uml.clone_vm(make_golden(false), "clones/u1", "u1").ok());
  ASSERT_TRUE(uml.start_vm("u1").ok());
  EXPECT_FALSE(uml.suspend_vm("u1").ok());
}

TEST_F(HypervisorTest, UmlCloneIsCowShared) {
  UmlHypervisor uml(store_.get());
  ASSERT_TRUE(uml.clone_vm(make_golden(false), "clones/u1", "u1").ok());
  const VmInstance* vm = uml.find("u1");
  // The root file-system span is a link; no memory state was copied.
  EXPECT_EQ(vm->clone_report.disk.links_created, 1u);
  EXPECT_EQ(vm->clone_report.memory.bytes_written, 0u);
}

// -- Load counters -----------------------------------------------------------------------

/// Reference for the O(1) load counters: a full scan of the live instances.
std::pair<std::size_t, std::uint64_t> scan_load(const Hypervisor& hv) {
  std::size_t active = 0;
  std::uint64_t resident = 0;
  for (const std::string& id : hv.instance_ids()) {
    const auto vm = hv.snapshot_vm(id);
    ++active;
    if (vm->power == PowerState::kRunning ||
        vm->power == PowerState::kSuspended) {
      resident += vm->spec.memory_bytes;
    }
  }
  return {active, resident};
}

// Seeded random sequences of clone, import, start, suspend, power-off and
// destroy — including destroys whose tree removal fails (injected
// store.remove) and roll back — keep both counters equal to a full scan.
TEST_F(HypervisorTest, LoadCountersMatchFullScanOverRandomTransitions) {
  const CloneSource goldens[] = {
      make_golden(true, 64), make_golden(true, 32, "warehouse/golden32")};
  std::size_t rollbacks = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GsxHypervisor gsx(store_.get());
    util::SplitMix64 rng(seed);
    std::vector<std::string> ids;
    for (int step = 0; step < 150; ++step) {
      std::string fresh(1, 's');  // appended: GCC 12 -Wrestrict at -O3
      fresh += std::to_string(seed);
      fresh += '-';
      fresh += std::to_string(step);
      const std::string id =
          ids.empty() ? fresh : ids[rng.next_below(ids.size())];
      const CloneSource& golden = goldens[rng.next_below(2)];
      switch (rng.next_below(8)) {
        case 0:
          if (gsx.clone_vm(golden, "clones/" + fresh, fresh).ok()) {
            ids.push_back(fresh);
          }
          break;
        case 1: {
          const std::string dir = "imports/" + fresh;
          ASSERT_TRUE(storage::clone_image(store_.get(), golden.layout,
                                           golden.spec, dir,
                                           storage::CloneStrategy::kLinked)
                          .ok());
          if (gsx.import_vm(dir, golden.spec, golden.guest, fresh,
                            /*suspended=*/rng.next_below(2) == 0)
                  .ok()) {
            ids.push_back(fresh);
          }
          break;
        }
        case 2:
        case 3:
          (void)gsx.start_vm(id);
          break;
        case 4:
          (void)gsx.suspend_vm(id);
          break;
        case 5:
          (void)gsx.power_off(id);
          break;
        case 6:
          (void)gsx.destroy_vm(id);
          break;
        default: {
          const bool live = gsx.snapshot_vm(id).has_value();
          fault::ScopedFaultPlan fail_removal(
              fault::FaultPlan::parse("store.remove:times=1").value());
          if (!gsx.destroy_vm(id).ok() && live) ++rollbacks;
          break;
        }
      }
      const auto [active, resident] = scan_load(gsx);
      ASSERT_EQ(gsx.active_instances(), active) << "step " << step;
      ASSERT_EQ(gsx.resident_memory_bytes(), resident) << "step " << step;
    }
  }
  EXPECT_GT(rollbacks, 0u);
}


// A destroy that an injected store.remove fault fails leaves the clone dir
// whole, its private checkpoint included, so the rolled-back VM resumes;
// the fault is consulted once, on the clone dir, before anything moves.
// The destroy that then succeeds retires the checkpoint into the store's
// spare pool, and the next clone reuses it.
TEST_F(HypervisorTest, FailedDestroyKeepsCheckpointForResume) {
  GsxHypervisor gsx(store_.get());
  const CloneSource golden = make_golden(/*suspended=*/true, /*mem_mb=*/4);
  ASSERT_TRUE(store_->write_file(golden.layout.memory_path(),
                                 std::string(4u << 20, 'g'))
                  .ok());
  ASSERT_TRUE(gsx.clone_vm(golden, "clones/vm1", "vm1").ok());
  struct stat before {};
  ASSERT_EQ(::stat((root_ / "clones/vm1/memory.vmss").c_str(), &before), 0);
  {
    fault::ScopedFaultPlan fail_removal(
        fault::FaultPlan::parse("store.remove:times=1").value());
    EXPECT_FALSE(gsx.destroy_vm("vm1").ok());
    EXPECT_EQ(fault::FaultRegistry::instance().checks(), 1u);
    EXPECT_EQ(fault::FaultRegistry::instance().sequence(),
              std::vector<std::string>{"store.remove@clones/vm1"});
  }
  struct stat after {};
  ASSERT_EQ(::stat((root_ / "clones/vm1/memory.vmss").c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino);
  EXPECT_EQ(after.st_size, before.st_size);
  EXPECT_EQ(store_->spare_count(), 0u);
  EXPECT_EQ(gsx.find("vm1")->power, PowerState::kStopped);
  ASSERT_TRUE(gsx.start_vm("vm1").ok());
  EXPECT_EQ(gsx.find("vm1")->power, PowerState::kRunning);
  ASSERT_TRUE(gsx.power_off("vm1").ok());

  ASSERT_TRUE(gsx.destroy_vm("vm1").ok());
  EXPECT_FALSE(store_->exists("clones/vm1"));
  EXPECT_EQ(store_->spare_count(), 1u);
  ASSERT_TRUE(gsx.clone_vm(golden, "clones/vm2", "vm2").ok());
  EXPECT_EQ(store_->spare_count(), 0u);
  struct stat reused {};
  ASSERT_EQ(::stat((root_ / "clones/vm2/memory.vmss").c_str(), &reused), 0);
  EXPECT_EQ(reused.st_ino, before.st_ino);
  EXPECT_EQ(store_->read_file("clones/vm2/memory.vmss").value(),
            std::string(4u << 20, 'g'));
}

}  // namespace
}  // namespace vmp::hv
