// Unit tests for the VM Warehouse: publishing, descriptors, lookup, rescan.
#include <gtest/gtest.h>

#include <filesystem>

#include "dag/matching.h"
#include "warehouse/warehouse.h"
#include "workload/dag_library.h"
#include "workload/request_gen.h"

namespace vmp::warehouse {
namespace {

storage::MachineSpec small_spec(std::uint64_t mem_mb = 32) {
  storage::MachineSpec spec;
  spec.os = "linux-mandrake-8.1";
  spec.memory_bytes = mem_mb << 20;
  spec.suspended = true;
  spec.disk = storage::DiskSpec{"disk0", 512ull << 20, 4,
                                storage::DiskMode::kNonPersistent};
  return spec;
}

class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-wh-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ = std::make_unique<Warehouse>(store_.get(), "warehouse");
  }
  void TearDown() override {
    warehouse_.reset();
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<Warehouse> warehouse_;
};

TEST_F(WarehouseTest, PublishMaterializesArtifacts) {
  hv::GuestState guest;
  guest.os = "linux-mandrake-8.1";
  guest.packages = {"vnc-server"};
  auto image = warehouse_->publish_new("golden-32mb", "vmware-gsx",
                                       small_spec(), guest,
                                       {"install-os{distro=r8}"});
  ASSERT_TRUE(image.ok()) << image.error().to_string();

  const std::string dir = image.value().layout.dir;
  EXPECT_EQ(dir, "warehouse/golden-32mb");
  EXPECT_TRUE(store_->exists(dir + "/machine.cfg"));
  EXPECT_TRUE(store_->exists(dir + "/memory.vmss"));
  EXPECT_TRUE(store_->exists(dir + "/descriptor.xml"));
  EXPECT_TRUE(store_->exists(dir + "/guest.state"));
  EXPECT_TRUE(store_->exists(dir + "/disk0-s001.vmdk"));
  EXPECT_EQ(warehouse_->size(), 1u);
}

TEST_F(WarehouseTest, DuplicateIdRejected) {
  ASSERT_TRUE(warehouse_
                  ->publish_new("g", "vmware-gsx", small_spec(),
                                hv::GuestState{}, {})
                  .ok());
  auto dup = warehouse_->publish_new("g", "vmware-gsx", small_spec(),
                                     hv::GuestState{}, {});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code(), util::ErrorCode::kAlreadyExists);
}

TEST_F(WarehouseTest, InvalidSpecRejected) {
  storage::MachineSpec bad;  // empty os, zero memory
  EXPECT_FALSE(warehouse_->publish_new("g", "x", bad, {}, {}).ok());
  EXPECT_FALSE(warehouse_
                   ->publish_new("", "x", small_spec(), hv::GuestState{}, {})
                   .ok());
}

TEST_F(WarehouseTest, LookupAndContains) {
  ASSERT_TRUE(warehouse_
                  ->publish_new("g1", "vmware-gsx", small_spec(),
                                hv::GuestState{}, {"sig-a", "sig-b"})
                  .ok());
  EXPECT_TRUE(warehouse_->contains("g1"));
  EXPECT_FALSE(warehouse_->contains("g2"));
  auto image = warehouse_->lookup("g1");
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image.value().performed,
            (std::vector<std::string>{"sig-a", "sig-b"}));
  EXPECT_FALSE(warehouse_->lookup("g2").ok());
}

TEST_F(WarehouseTest, ListFiltersByBackend) {
  ASSERT_TRUE(warehouse_
                  ->publish_new("g1", "vmware-gsx", small_spec(),
                                hv::GuestState{}, {})
                  .ok());
  storage::MachineSpec uml = small_spec();
  uml.suspended = false;
  ASSERT_TRUE(
      warehouse_->publish_new("u1", "uml", uml, hv::GuestState{}, {}).ok());
  EXPECT_EQ(warehouse_->list().size(), 2u);
  EXPECT_EQ(warehouse_->list_backend("vmware-gsx").size(), 1u);
  EXPECT_EQ(warehouse_->list_backend("uml").size(), 1u);
  EXPECT_TRUE(warehouse_->list_backend("xen").empty());
}

TEST_F(WarehouseTest, RemoveDeletesDirectory) {
  ASSERT_TRUE(warehouse_
                  ->publish_new("g1", "vmware-gsx", small_spec(),
                                hv::GuestState{}, {})
                  .ok());
  ASSERT_TRUE(warehouse_->remove("g1").ok());
  EXPECT_FALSE(store_->exists("warehouse/g1"));
  EXPECT_FALSE(warehouse_->remove("g1").ok());
  EXPECT_EQ(warehouse_->size(), 0u);
}

TEST_F(WarehouseTest, AttachRestoresADetachedImage) {
  ASSERT_TRUE(warehouse_
                  ->publish_new("g1", "vmware-gsx", small_spec(),
                                hv::GuestState{}, {"a", "b"})
                  .ok());
  auto detached = warehouse_->detach("g1");
  ASSERT_TRUE(detached.ok());
  EXPECT_FALSE(warehouse_->contains("g1"));
  EXPECT_TRUE(store_->exists("warehouse/g1/descriptor.xml"));

  // Attach is the pure index inverse of detach: no disk I/O, the image is
  // servable again with its action history (and digests) intact.
  ASSERT_TRUE(warehouse_->attach(detached.value()).ok());
  auto restored = warehouse_->lookup("g1");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().performed,
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(warehouse_->match_candidates(
                            "vmware-gsx",
                            [](const GoldenImage&) { return true; },
                            ~0ull)
                .candidates.size(),
            1u);

  // A taken id refuses attach, and an empty id is invalid.
  auto dup = warehouse_->attach(detached.value());
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code(), util::ErrorCode::kAlreadyExists);
  EXPECT_FALSE(warehouse_->attach(GoldenImage{}).ok());
}

TEST_F(WarehouseTest, CandidateViewOutlivesEviction) {
  // A scan's views share each image's history with the index: detaching,
  // removing or re-publishing the image afterwards leaves a view's history
  // (and its match) intact.
  workload::WorkspaceParams params;
  const dag::ConfigDag request = workload::invigo_workspace_dag(params);
  const std::vector<std::string> history = workload::invigo_golden_history();
  for (const char* id : {"g-detach", "g-remove"}) {
    ASSERT_TRUE(warehouse_
                    ->publish_new(id, "vmware-gsx", small_spec(),
                                  hv::GuestState{}, history)
                    .ok());
  }
  const auto any = [](const GoldenImage&) { return true; };
  const CandidateSet scan = warehouse_->match_candidates("vmware-gsx", any, ~0ull);
  ASSERT_EQ(scan.candidates.size(), 2u);

  ASSERT_TRUE(warehouse_->detach("g-detach").ok());
  ASSERT_TRUE(warehouse_->remove("g-remove").ok());
  EXPECT_TRUE(warehouse_->match_candidates("vmware-gsx", any, ~0ull)
                  .candidates.empty());
  ASSERT_TRUE(warehouse_
                  ->publish_new("g-remove", "vmware-gsx", small_spec(),
                                hv::GuestState{}, {"other-op{}"})
                  .ok());

  for (const CandidateView& view : scan.candidates) {
    SCOPED_TRACE(view.id);
    EXPECT_EQ(std::vector<std::string>(view.performed.begin(),
                                       view.performed.end()),
              history);
    auto eval = dag::evaluate_match(request, view.performed);
    ASSERT_TRUE(eval.ok());
    EXPECT_TRUE(eval.value().matches()) << eval.value().failure_reason;
    EXPECT_EQ(request.ids_at(eval.value().satisfied),
              (std::vector<std::string>{"A", "B", "C"}));
  }
}

TEST_F(WarehouseTest, DescriptorRoundTrip) {
  GoldenImage image;
  image.id = "golden-64mb";
  image.backend = "vmware-gsx";
  image.spec = small_spec(64);
  image.performed = {"install-os{distro=redhat-8.0}",
                     "install-package{package=vnc-server}"};
  auto parsed = parse_descriptor(render_descriptor(image));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().id, image.id);
  EXPECT_EQ(parsed.value().backend, image.backend);
  EXPECT_EQ(parsed.value().spec.memory_bytes, image.spec.memory_bytes);
  EXPECT_EQ(parsed.value().spec.disk.span_count, image.spec.disk.span_count);
  EXPECT_EQ(parsed.value().performed, image.performed);
}

TEST_F(WarehouseTest, DescriptorRejectsMalformed) {
  EXPECT_FALSE(parse_descriptor("<golden/>").ok());          // no id/machine
  EXPECT_FALSE(parse_descriptor("not xml at all").ok());
  EXPECT_FALSE(parse_descriptor("<golden id=\"g\"/>").ok()); // no machine
}

TEST_F(WarehouseTest, RescanRebuildsFromDisk) {
  hv::GuestState guest;
  guest.os = "linux-mandrake-8.1";
  guest.users["arijit"] = "/home/arijit";
  ASSERT_TRUE(warehouse_
                  ->publish_new("g1", "vmware-gsx", small_spec(), guest,
                                {"sig-a"})
                  .ok());
  ASSERT_TRUE(warehouse_
                  ->publish_new("g2", "uml",
                                [] {
                                  auto s = small_spec(64);
                                  s.suspended = false;
                                  return s;
                                }(),
                                hv::GuestState{}, {})
                  .ok());

  // A fresh warehouse instance over the same store starts empty, then
  // rebuilds its index from descriptor.xml files (paper §3.1: durable
  // state lives on disk, not in the service).
  Warehouse recovered(store_.get(), "warehouse");
  EXPECT_EQ(recovered.size(), 0u);
  ASSERT_TRUE(recovered.rescan().ok());
  EXPECT_EQ(recovered.size(), 2u);
  auto g1 = recovered.lookup("g1");
  ASSERT_TRUE(g1.ok());
  EXPECT_EQ(g1.value().performed, (std::vector<std::string>{"sig-a"}));
  EXPECT_EQ(g1.value().guest.users.at("arijit"), "/home/arijit");
  EXPECT_EQ(g1.value().layout.dir, "warehouse/g1");
}

TEST_F(WarehouseTest, RescanIgnoresStrayDirectories) {
  ASSERT_TRUE(store_->write_file("warehouse/not-an-image/file.txt", "x").ok());
  ASSERT_TRUE(warehouse_->rescan().ok());
  EXPECT_EQ(warehouse_->size(), 0u);
}

TEST_F(WarehouseTest, PaperGoldenFleet) {
  ASSERT_TRUE(workload::publish_paper_goldens(warehouse_.get()).ok());
  EXPECT_EQ(warehouse_->size(), 3u);
  auto g256 = warehouse_->lookup("golden-256mb");
  ASSERT_TRUE(g256.ok());
  EXPECT_EQ(g256.value().spec.memory_bytes, 256ull << 20);
  EXPECT_EQ(g256.value().spec.disk.capacity_bytes, 2048ull << 20);
  EXPECT_EQ(g256.value().spec.disk.span_count, 16u);  // paper: 16 files
  EXPECT_EQ(g256.value().performed.size(), 3u);        // In-VIGO A..C
  EXPECT_TRUE(g256.value().spec.suspended);

  ASSERT_TRUE(workload::publish_uml_golden(warehouse_.get(), 32).ok());
  auto uml = warehouse_->lookup("golden-uml-32mb");
  ASSERT_TRUE(uml.ok());
  EXPECT_FALSE(uml.value().spec.suspended);
  EXPECT_EQ(uml.value().backend, "uml");
}

}  // namespace
}  // namespace vmp::warehouse
