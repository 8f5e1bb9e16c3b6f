// Microbenchmarks (google-benchmark) for the hot middleware paths: XML
// parsing, classad evaluation, DAG topological sort, the three matching
// tests, request round-trips, and linked-clone artefact mechanics.
//
// After the google-benchmark tables, main() runs hand-timed codec rows —
// full encode+decode round trips of the same objects through the XML text
// format and the binary codec (net/codec.h) — and emits one BENCH_JSON
// line per row:
//   BENCH_JSON {"name": "codec.descriptor.binary", "ns_per_op": ...,
//               "mops": ..., "bytes": ..., "k": 7}
// The two sides of each gated ratio (codec.descriptor.* and
// codec.message.*) are timed interleaved in k batches — xml, binary, xml,
// binary, ... — so a host stall lands on both sides alike; each side's row
// reports the median of its k batches, and codec.descriptor.speedup the
// median of the k per-batch ratios.
// Two more rows time the bid request's XML work: building a workspace
// CreateRequest tree (request.to_xml) and one call() of an estimate
// (serialize + deserialize + CreateRequest::from_xml, bid.leg.xml).  A
// fan-out pays the serialize + deserialize once for all its plants, so
// this is a single call's cost, not a fan-out's per-plant one.
// dag.match.256 times one evaluate_match on a 256-node request DAG with
// half its nodes performed (the BM_EvaluateMatch/16 shape); its bytes
// field is the history's signature bytes.  dag.from_xml.invigo and
// dag.from_xml.64 time dag::from_xml over an already-parsed <dag> element
// (the 9-node In-VIGO DAG, and perfbench deep_dag_catalog's 64-node shape);
// their bytes field is the DAG's XML size.
// bid.fanout.256 times one VmShop::collect_bids over 256 stub plant
// endpoints (bench/federation's stubs: a cost from the plant index, no
// plant state), so it measures the shop + bus side of a bid round: the
// ordered phase and the parallel delivery of 256 XML estimate legs.  Its
// bytes field is the bus bytes of one round.  Its pace depends on the
// host's cores: the row "bid.fanout.256.helpers" names the helper threads
// each round woke and the bus's pool size.  One more row, "store.fs",
// names the file system under the temp directory, which holds the clone
// rows' stores; tools/bench_gate.py refuses the result unless it is tmpfs
// or ramfs.
// storage.clone_cycle.4m times one linked clone_image + destroy_clone of a
// golden with a 4 MiB non-sparse memory checkpoint and 16 disk spans (the
// perfbench clone_pipeline image), so it carries the §4.3 checkpoint copy
// and the spare-checkpoint reuse (the fastest of five batches); its bytes
// field is the clone's bytes written.
// classad.response.cycle times the classad work of one create response:
// build the plant's response ad, copy it twice (information-system store
// and query), to_xml + render + parse + ClassAd::from_xml on the shop side,
// and read its VMID; its bytes field is the rendered body's size.
// CI's bench-gate job feeds these to tools/bench_gate.py against
// bench/baselines/micro_core.json, which enforces the binary codec's >= 3x
// advantage over XML on descriptors (this PR's acceptance bar) plus
// conservative throughput floors.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "classad/classad.h"
#include "classad/matchmaker.h"
#include "common.h"
#include "core/request.h"
#include "core/shop.h"
#include "dag/dag_xml.h"
#include "dag/matching.h"
#include "net/codec.h"
#include "net/message.h"
#include "net/registry.h"
#include "util/strings.h"
#include "storage/clone_ops.h"
#include "warehouse/warehouse.h"
#include "workload/dag_library.h"
#include "workload/request_gen.h"
#include "xml/xml.h"

namespace {

using namespace vmp;

void BM_XmlParseWorkspaceRequest(benchmark::State& state) {
  const std::string wire =
      workload::workspace_request(64, 0, "ufl.edu").to_xml_string();
  for (auto _ : state) {
    auto doc = xml::parse(wire);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(state.iterations() * wire.size());
}
BENCHMARK(BM_XmlParseWorkspaceRequest);

void BM_RequestRoundTrip(benchmark::State& state) {
  const core::CreateRequest request =
      workload::workspace_request(64, 0, "ufl.edu");
  for (auto _ : state) {
    auto parsed = core::CreateRequest::from_xml_string(request.to_xml_string());
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_RequestRoundTrip);

void BM_ClassAdEvaluateRequirements(benchmark::State& state) {
  classad::ClassAd request;
  (void)request.set_expression(
      "Requirements",
      "other.Memory >= 64 && other.OS == \"linux\" && other.Disk > 1000");
  classad::ClassAd machine;
  machine.set_integer("Memory", 128);
  machine.set_string("OS", "linux");
  machine.set_integer("Disk", 2048);
  for (auto _ : state) {
    auto v = request.evaluate("Requirements", &machine);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ClassAdEvaluateRequirements);

void BM_ClassAdMatchAll(benchmark::State& state) {
  classad::ClassAd request;
  (void)request.set_expression("Requirements", "other.Memory >= 64");
  (void)request.set_expression("Rank", "other.Memory");
  std::vector<classad::ClassAd> machines;
  for (int i = 0; i < state.range(0); ++i) {
    classad::ClassAd m;
    m.set_integer("Memory", 32 + i);
    machines.push_back(std::move(m));
  }
  for (auto _ : state) {
    auto matches = classad::match_all(request, machines);
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_ClassAdMatchAll)->Arg(8)->Arg(64)->Arg(512);

void BM_TopologicalSort(benchmark::State& state) {
  const dag::ConfigDag d = workload::random_layered_dag(
      1, state.range(0), state.range(0), 0.3);
  for (auto _ : state) {
    auto order = d.topological_sort();
    benchmark::DoNotOptimize(order);
  }
  state.SetLabel(std::to_string(d.size()) + " nodes");
}
BENCHMARK(BM_TopologicalSort)->Arg(4)->Arg(8)->Arg(16);

void BM_EvaluateMatch(benchmark::State& state) {
  const dag::ConfigDag d =
      workload::random_layered_dag(2, state.range(0), state.range(0), 0.3);
  const auto order = d.topological_sort().value();
  std::vector<std::string> history;
  for (std::size_t i = 0; i < order.size() / 2; ++i) {
    history.push_back(d.action(order[i])->signature());
  }
  for (auto _ : state) {
    auto eval = dag::evaluate_match(d, history);
    benchmark::DoNotOptimize(eval);
  }
  state.SetLabel(std::to_string(d.size()) + " nodes, half performed");
}
BENCHMARK(BM_EvaluateMatch)->Arg(4)->Arg(8)->Arg(16);

void BM_InVigoMatch(benchmark::State& state) {
  workload::WorkspaceParams params;
  const dag::ConfigDag request = workload::invigo_workspace_dag(params);
  const auto history = workload::invigo_golden_history();
  for (auto _ : state) {
    auto eval = dag::evaluate_match(request, history);
    benchmark::DoNotOptimize(eval);
  }
}
BENCHMARK(BM_InVigoMatch);

void BM_DagXmlRoundTrip(benchmark::State& state) {
  workload::WorkspaceParams params;
  const dag::ConfigDag d = workload::invigo_workspace_dag(params);
  for (auto _ : state) {
    auto parsed = dag::from_xml_string(dag::to_xml_string(d));
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_DagXmlRoundTrip);

void BM_LinkedClone(benchmark::State& state) {
  const auto sandbox =
      std::filesystem::temp_directory_path() / "vmplants-microbench";
  std::filesystem::remove_all(sandbox);
  storage::ArtifactStore store(sandbox);
  storage::MachineSpec spec;
  spec.os = "linux";
  spec.memory_bytes = 64ull << 20;
  spec.suspended = true;
  spec.disk = {"disk0", 2048ull << 20, 16, storage::DiskMode::kNonPersistent};
  const storage::ImageLayout golden{"golden"};
  if (!storage::materialize_image(&store, golden, spec).ok()) {
    state.SkipWithError("materialize failed");
    return;
  }
  std::size_t n = 0;
  for (auto _ : state) {
    auto report = storage::clone_image(&store, golden, spec,
                                       "clones/c" + std::to_string(n++),
                                       storage::CloneStrategy::kLinked);
    benchmark::DoNotOptimize(report);
  }
  std::filesystem::remove_all(sandbox);
}
BENCHMARK(BM_LinkedClone);

// ---- Hand-timed codec rows (BENCH_JSON, consumed by tools/bench_gate.py) ----

/// A representative golden-image descriptor: the paper's 64 MB workspace
/// image with a configured guest (packages, users, mounts, services) and a
/// performed-action history — the object every warehouse rescan parses.
warehouse::GoldenImage make_codec_descriptor() {
  warehouse::GoldenImage image;
  image.id = "golden-64mb";
  image.backend = "vmware-gsx";
  image.layout.dir = "warehouse/golden-64mb";
  image.spec.os = "linux";
  image.spec.memory_bytes = 64ull << 20;
  image.spec.suspended = true;
  image.spec.disk = {"disk0", 2048ull << 20, 16,
                     storage::DiskMode::kNonPersistent};
  image.guest.os = "linux";
  image.guest.hostname = "workspace-00";
  image.guest.ip = "10.0.0.42";
  image.guest.mac = "02:00:0a:00:00:2a";
  image.guest.packages = {"openssh", "nfs-utils", "perl", "globus-gsi",
                          "condor", "gcc"};
  image.guest.users = {{"griduser", "/home/griduser"},
                       {"vmplant", "/home/vmplant"}};
  image.guest.mounts = {{"/mnt/nfs", "nfs-server:/export"}};
  image.guest.running_services = {"sshd", "nfslock", "condor_startd"};
  image.guest.files = {{"/etc/grid/vmplant.conf", "plant=plant0\nshop=shop0"},
                       {"/etc/hosts", "10.0.0.1 nfs-server"}};
  for (int i = 0; i < 8; ++i) {
    image.performed.push_back("action-sig-" + std::to_string(i));
  }
  return image;
}

/// A representative bus message: a create-request envelope with a small
/// XML body, the shape every shop->plant hop round-trips.
net::Message make_codec_message() {
  net::Message m = net::Message::request("vmplant.create", "shop0", "plant3",
                                         "req-0042");
  auto& req = m.body().add_child("create");
  req.set_attr("memory_mb", "64");
  req.set_attr("os", "linux");
  auto& reqs = req.add_child("requirements");
  reqs.set_text("other.Memory >= 64 && other.OS == \"linux\"");
  return m;
}

struct CodecRow {
  double ns_per_op = 0.0;
  std::size_t wire_bytes = 0;
};

/// Time `iters` full encode+decode round trips of `fn` (fn returns the
/// encoded size; decode success is asserted inside).
template <typename Fn>
CodecRow time_codec(int iters, Fn&& fn) {
  CodecRow row;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) row.wire_bytes = fn();
  row.ns_per_op = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count() *
                  1e9 / iters;
  return row;
}

/// The median of `values` (which it reorders).
double median(std::vector<double>* values) {
  std::sort(values->begin(), values->end());
  const std::size_t n = values->size();
  return n % 2 == 1 ? (*values)[n / 2]
                    : ((*values)[n / 2 - 1] + (*values)[n / 2]) / 2.0;
}

/// The two sides of a gated ratio, each the median of `reps` batches.
struct RatioPair {
  CodecRow left;
  CodecRow right;
  double ratio = 0.0;  // the median of the per-batch left/right ratios
  int reps = 0;
};

/// Times `reps` batches of `iters` round trips of each side, alternating
/// left, right, left, ... in this one process.
template <typename Left, typename Right>
RatioPair time_ratio_pair(int reps, int iters, Left&& left, Right&& right) {
  std::vector<double> left_ns;
  std::vector<double> right_ns;
  std::vector<double> ratios;
  RatioPair pair;
  pair.reps = reps;
  for (int rep = 0; rep < reps; ++rep) {
    pair.left = time_codec(iters, left);
    pair.right = time_codec(iters, right);
    left_ns.push_back(pair.left.ns_per_op);
    right_ns.push_back(pair.right.ns_per_op);
    ratios.push_back(pair.right.ns_per_op > 0.0
                         ? pair.left.ns_per_op / pair.right.ns_per_op
                         : 0.0);
  }
  pair.left.ns_per_op = median(&left_ns);
  pair.right.ns_per_op = median(&right_ns);
  pair.ratio = median(&ratios);
  return pair;
}

/// `reps` > 0 adds the row's batch count as "k".
void report_codec(const char* name, const CodecRow& row, int reps = 0) {
  const double mops = row.ns_per_op > 0.0 ? 1e3 / row.ns_per_op : 0.0;
  std::printf("%-24s %12.0f ns/op %10.3f Mop/s %8zu bytes\n", name,
              row.ns_per_op, mops, row.wire_bytes);
  std::printf("BENCH_JSON {\"name\": \"%s\", \"ns_per_op\": %.2f, "
              "\"mops\": %.6f, \"bytes\": %zu",
              name, row.ns_per_op, mops, row.wire_bytes);
  if (reps > 0) std::printf(", \"k\": %d", reps);
  std::printf("}\n");
}

/// The plant's create response (paper §3.1): the VM's identity, placement
/// and accounting attributes plus the configuration actions' outputs.
classad::ClassAd make_response_ad() {
  namespace attrs = core::attrs;
  classad::ClassAd ad;
  ad.set_string(attrs::kIp, "10.0.3.17");
  ad.set_string(attrs::kMac, "02:00:0a:00:03:11");
  ad.set_string("SshHostKeyFingerprint",
                "SHA256:3f9c2a7d41e0b8c5f6a1d2e3b4c5d6e7f8a9b0c1d2e3f4a5");
  ad.set_string(attrs::kVmId, "plant3-vm0042");
  ad.set_string(attrs::kPlant, "plant3");
  ad.set_string(attrs::kBackend, "vmware-gsx");
  ad.set_string(attrs::kRequestId, "req-0042");
  ad.set_string(attrs::kDomain, "ufl.edu");
  ad.set_string(attrs::kGoldenImage, "golden-64mb");
  ad.set_string(attrs::kOs, "linux");
  ad.set_integer(attrs::kMemoryBytes, 64ll << 20);
  ad.set_integer(attrs::kDiskBytes, 2048ll << 20);
  ad.set_string(attrs::kNetwork, "vmnet3");
  ad.set_integer(attrs::kActionsExecuted, 6);
  ad.set_integer(attrs::kActionsSatisfied, 3);
  ad.set_integer(attrs::kActionFailures, 0);
  ad.set_boolean(attrs::kSpeculativeHit, false);
  ad.set_integer(attrs::kCloneBytesCopied, 4ll << 20);
  ad.set_integer(attrs::kCloneLinks, 2);
  ad.set_integer(attrs::kResidentBeforeBytes, 128ll << 20);
  ad.set_integer(attrs::kActiveVmsBefore, 2);
  ad.set_integer(attrs::kIsosConnected, 3);
  ad.set_string(attrs::kState, "running");
  return ad;
}

/// One VmShop::collect_bids round over 256 stub plant endpoints (paper
/// §3.1, §3.4): bench/federation's stateless stubs, delivered in parallel.
/// The row's bytes are the bus bytes of one round.
CodecRow time_bid_fanout(const core::CreateRequest& request, int iters,
                         bool* ok) {
  net::MessageBus bus;
  net::ServiceRegistry registry;
  for (int i = 0; i < 256; ++i) {
    const std::string name = "plant" + std::to_string(i);
    const double cost =
        10.0 + static_cast<double>((i * 2654435761u) % 9973) / 100.0;
    (void)bus.register_endpoint(
        name,
        [cost](const net::Message& m) {
          net::Message response = net::Message::response_to(m);
          response.body().add_child("bid").set_attr(
              "cost", util::format_double(cost));
          return response;
        },
        net::Delivery::kParallel);
    registry.publish({"vmplant", name, {}});
  }
  core::VmShop shop(core::ShopConfig{}, &bus, &registry);
  (void)shop.collect_bids(request);  // starts the bus's helper threads
  return time_codec(iters, [&] {
    const std::uint64_t bytes_before = bus.bytes_total();
    auto bids = shop.collect_bids(request);
    if (bids.size() != 256) *ok = false;
    benchmark::DoNotOptimize(bids);
    return static_cast<std::size_t>(bus.bytes_total() - bytes_before);
  });
}

/// One linked clone + destroy of a golden with a 4 MiB non-sparse memory
/// checkpoint (paper §4.3: the checkpoint copy is the clone's
/// size-proportional cost).  Every destroy retires the checkpoint, so every
/// clone after the first overwrites a spare.
CodecRow time_clone_cycle(int iters, bool* ok) {
  const auto sandbox =
      std::filesystem::temp_directory_path() / "vmplants-microbench-cycle";
  std::filesystem::remove_all(sandbox);
  CodecRow row;
  {
    storage::ArtifactStore store(sandbox);
    storage::MachineSpec spec;
    spec.os = "linux";
    spec.memory_bytes = 4ull << 20;
    spec.suspended = true;
    spec.disk = {"disk0", 2048ull << 20, 16,
                 storage::DiskMode::kNonPersistent};
    const storage::ImageLayout golden{"golden"};
    if (!storage::materialize_image(&store, golden, spec).ok() ||
        !store.write_file(golden.memory_path(),
                          std::string(spec.memory_bytes, 'm'))
             .ok()) {
      *ok = false;
      return row;
    }
    // The fastest of five batches: on a disk-backed temp directory, the
    // host's writeback and I/O load can slow one batch several-fold.
    for (int batch = 0; batch < 5; ++batch) {
      const CodecRow timed = time_codec(iters / 5, [&] {
        auto report = storage::clone_image(&store, golden, spec, "clones/c",
                                           storage::CloneStrategy::kLinked);
        if (!report.ok() || !storage::destroy_clone(&store, "clones/c").ok()) {
          *ok = false;
          return std::size_t{0};
        }
        return static_cast<std::size_t>(report.value().total().bytes_written);
      });
      if (batch == 0 || timed.ns_per_op < row.ns_per_op) row = timed;
    }
  }
  std::filesystem::remove_all(sandbox);
  return row;
}

int run_codec_rows() {
  constexpr int kIters = 20'000;
  const warehouse::GoldenImage image = make_codec_descriptor();
  const net::Message message = make_codec_message();
  bool ok = true;

  std::printf("\ncodec round trips (encode + decode, %d iters)\n", kIters);

  // The gated ratios: each side gets kRatioReps interleaved batches.
  constexpr int kRatioReps = 7;
  constexpr int kRatioIters = kIters / 4;
  const RatioPair desc = time_ratio_pair(
      kRatioReps, kRatioIters,
      [&] {
        const std::string wire = warehouse::render_descriptor(image);
        auto parsed = warehouse::parse_descriptor(wire);
        if (!parsed.ok()) ok = false;
        benchmark::DoNotOptimize(parsed);
        return wire.size();
      },
      [&] {
        const std::string wire = net::codec::encode_descriptor(image);
        auto parsed = net::codec::decode_descriptor(wire);
        if (!parsed.ok()) ok = false;
        benchmark::DoNotOptimize(parsed);
        return wire.size();
      });
  const RatioPair msg = time_ratio_pair(
      kRatioReps, kRatioIters,
      [&] {
        const std::string wire = message.serialize();
        auto parsed = net::Message::deserialize(wire);
        if (!parsed.ok()) ok = false;
        benchmark::DoNotOptimize(parsed);
        return wire.size();
      },
      [&] {
        const std::string wire = net::codec::encode_message(message);
        auto parsed = net::codec::decode_message(wire);
        if (!parsed.ok()) ok = false;
        benchmark::DoNotOptimize(parsed);
        return wire.size();
      });

  // One estimate call (paper §3.1): the request goes out as XML and the
  // plant parses it back into a CreateRequest.  A fan-out serializes and
  // deserializes its request once for every plant, so there each plant
  // pays only the from_xml; a single call() pays the whole leg.
  const core::CreateRequest request =
      workload::workspace_request(64, 3, "ufl.edu");
  const std::size_t request_bytes = request.to_xml_string().size();
  const CodecRow request_build = time_codec(kIters, [&] {
    xml::Element body("message");
    request.to_xml(&body);
    benchmark::DoNotOptimize(body);
    return request_bytes;
  });
  net::Message estimate = net::Message::request(
      "vmplant.estimate", "shop0", "plant3", request.request_id);
  request.to_xml(&estimate.body());
  const CodecRow bid_leg = time_codec(kIters / 4, [&] {
    const std::string wire = estimate.serialize();
    auto received = net::Message::deserialize(wire);
    if (!received.ok()) {
      ok = false;
      return wire.size();
    }
    auto parsed = core::CreateRequest::from_xml(received.value().body());
    if (!parsed.ok()) ok = false;
    benchmark::DoNotOptimize(parsed);
    return wire.size();
  });

  // The PPP's per-candidate cost on a deep request DAG (paper §3.2).
  const dag::ConfigDag deep = workload::random_layered_dag(2, 16, 16, 0.3);
  const std::vector<std::string> deep_order = deep.topological_sort().value();
  std::vector<std::string> half_performed;
  std::size_t history_bytes = 0;
  for (std::size_t i = 0; i < deep_order.size() / 2; ++i) {
    half_performed.push_back(deep.action(deep_order[i])->signature());
    history_bytes += half_performed.back().size();
  }
  const CodecRow match_256 = time_codec(kIters / 10, [&] {
    auto eval = dag::evaluate_match(deep, half_performed);
    if (!eval.ok() || !eval.value().matches()) ok = false;
    benchmark::DoNotOptimize(eval);
    return history_bytes;
  });

  // The plant's DAG build from a parsed request (paper §4.1): dag::from_xml
  // over an already-parsed <dag> element, for the 9-node In-VIGO DAG and
  // for perfbench deep_dag_catalog's 64-node shape.
  const auto time_from_xml = [&](const dag::ConfigDag& d, int iters) {
    const std::string text = dag::to_xml_string(d);
    auto doc = xml::parse(text);
    if (!doc.ok()) {
      ok = false;
      return CodecRow{};
    }
    return time_codec(iters, [&] {
      auto parsed = dag::from_xml(*doc.value());
      if (!parsed.ok()) ok = false;
      benchmark::DoNotOptimize(parsed);
      return text.size();
    });
  };
  const CodecRow from_xml_invigo =
      time_from_xml(workload::invigo_workspace_dag({}), kIters);
  const CodecRow from_xml_64 = time_from_xml(
      workload::random_layered_dag(20040621, 8, 8, 0.25), kIters / 4);

  // A create response's classad work, plant to shop (paper §3.1-3.2).
  const CodecRow response_cycle = time_codec(kIters / 4, [&] {
    const classad::ClassAd built = make_response_ad();
    const classad::ClassAd stored = built;
    const classad::ClassAd queried = stored;
    xml::Element body("message");
    queried.to_xml(&body);
    const std::string wire = body.to_string();
    auto doc = xml::parse(wire);
    if (!doc.ok()) {
      ok = false;
      return wire.size();
    }
    auto received = classad::ClassAd::from_xml(*doc.value());
    if (!received.ok() ||
        !received.value().get_string(core::attrs::kVmId).has_value()) {
      ok = false;
    }
    benchmark::DoNotOptimize(received);
    return wire.size();
  });
  const CodecRow fanout_256 = time_bid_fanout(request, kIters / 100, &ok);
  const CodecRow clone_cycle = time_clone_cycle(kIters / 20, &ok);

  report_codec("codec.descriptor.xml", desc.left, desc.reps);
  report_codec("codec.descriptor.binary", desc.right, desc.reps);
  report_codec("codec.message.xml", msg.left, msg.reps);
  report_codec("codec.message.binary", msg.right, msg.reps);
  report_codec("request.to_xml", request_build);
  report_codec("bid.leg.xml", bid_leg);
  report_codec("dag.match.256", match_256);
  report_codec("dag.from_xml.invigo", from_xml_invigo);
  report_codec("dag.from_xml.64", from_xml_64);
  report_codec("classad.response.cycle", response_cycle);
  report_codec("bid.fanout.256", fanout_256);
  bench::print_fan_out_helpers("bid.fanout.256", 256);
  report_codec("storage.clone_cycle.4m", clone_cycle);
  bench::print_store_fs(std::filesystem::temp_directory_path());
  std::printf("BENCH_JSON {\"name\": \"codec.descriptor.speedup\", "
              "\"speedup\": %.2f, \"k\": %d}\n",
              desc.ratio, desc.reps);

  if (!ok) {
    std::printf(
        "FAILED: a codec round trip, the match or a clone cycle returned an "
        "error\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_codec_rows();
}
