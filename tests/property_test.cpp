// Property-based tests: parameterized sweeps over randomized inputs
// checking structural invariants of the DAG algorithms, the matching tests,
// the simulation resources, and serialization round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "core/plant.h"
#include "core/ppp.h"
#include "core/request.h"
#include "core/shop.h"
#include "dag/dag_xml.h"
#include "dag/matching.h"
#include "dag_reference.h"
#include "fault/fault.h"
#include "net/bus.h"
#include "net/registry.h"
#include "sim/engine.h"
#include "sim/resources.h"
#include "util/random.h"
#include "warehouse/warehouse.h"
#include "workload/dag_library.h"
#include "workload/request_gen.h"

namespace vmp {
namespace {

// =====================================================================
// Random DAG properties, swept over seeds and shapes.
// =====================================================================

struct DagShape {
  std::uint64_t seed;
  std::size_t layers;
  std::size_t width;
  double density;
};

class RandomDagProperty : public ::testing::TestWithParam<DagShape> {
 protected:
  dag::ConfigDag make() const {
    const DagShape& s = GetParam();
    return workload::random_layered_dag(s.seed, s.layers, s.width, s.density);
  }
};

TEST_P(RandomDagProperty, ValidatesAndSortsConsistently) {
  dag::ConfigDag d = make();
  ASSERT_TRUE(d.validate().ok());
  auto sorted = d.topological_sort();
  ASSERT_TRUE(sorted.ok());
  const auto& order = sorted.value();
  ASSERT_EQ(order.size(), d.size());

  // Topological property: every edge points forward in the order.
  std::map<std::string, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const std::string& id : d.node_ids()) {
    for (const std::string& succ : d.successors(id)) {
      EXPECT_LT(pos.at(id), pos.at(succ));
    }
  }
}

TEST_P(RandomDagProperty, AncestorsAgreeWithEdges) {
  dag::ConfigDag d = make();
  for (const std::string& id : d.node_ids()) {
    const auto ancestors = dag_reference::ancestors(d, id);
    // Direct predecessors are ancestors.
    for (const std::string& pred : d.predecessors(id)) {
      EXPECT_TRUE(ancestors.count(pred));
    }
    // Ancestor-of-ancestor is an ancestor (transitivity).
    for (const std::string& a : ancestors) {
      for (const std::string& aa : dag_reference::ancestors(d, a)) {
        EXPECT_TRUE(ancestors.count(aa));
      }
    }
    // Nothing is its own ancestor (acyclicity).
    EXPECT_FALSE(ancestors.count(id));
  }
}

TEST_P(RandomDagProperty, XmlRoundTripIsIdentity) {
  dag::ConfigDag d = make();
  auto parsed = dag::from_xml_string(dag::to_xml_string(d));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value() == d);
}

TEST_P(RandomDagProperty, EveryTopoPrefixPassesAllThreeTests) {
  // A history taken as a prefix of a valid topological order is by
  // construction subset-closed, prefix-closed, and order-consistent.
  dag::ConfigDag d = make();
  auto order = d.topological_sort().value();
  std::vector<std::string> history;
  for (std::size_t take = 0; take <= order.size(); ++take) {
    history.clear();
    for (std::size_t i = 0; i < take; ++i) {
      history.push_back(d.action(order[i])->signature());
    }
    auto eval = dag::evaluate_match(d, history);
    ASSERT_TRUE(eval.ok());
    EXPECT_TRUE(eval.value().matches())
        << "prefix of length " << take << ": "
        << eval.value().failure_reason;
    EXPECT_EQ(eval.value().satisfied.size(), take);
    EXPECT_EQ(eval.value().remaining.size(), order.size() - take);
  }
}

TEST_P(RandomDagProperty, MatchedPlanIsAValidCompletion) {
  // For a random downward-closed subset (not necessarily a topo prefix),
  // the remaining plan must respect all edges relative to the full graph.
  dag::ConfigDag d = make();
  util::SplitMix64 rng(GetParam().seed ^ 0xabcdef);

  // Build a random downward-closed set by including each node only if all
  // its predecessors are included.
  const auto topo_order = d.topological_sort().value();
  std::set<std::string> closed;
  for (const std::string& id : topo_order) {
    bool all_preds = true;
    for (const std::string& p : d.predecessors(id)) {
      if (!closed.count(p)) all_preds = false;
    }
    if (all_preds && rng.bernoulli(0.6)) closed.insert(id);
  }
  // History: the closed set in topo order (a valid execution).
  std::vector<std::string> history;
  for (const std::string& id : topo_order) {
    if (closed.count(id)) history.push_back(d.action(id)->signature());
  }

  auto eval = dag::evaluate_match(d, history);
  ASSERT_TRUE(eval.ok());
  ASSERT_TRUE(eval.value().matches()) << eval.value().failure_reason;

  // Concatenating history order + plan order yields a full linear
  // extension of the DAG.
  std::map<std::string, std::size_t> pos;
  std::size_t i = 0;
  for (const std::string& id : d.ids_at(eval.value().satisfied)) pos[id] = i++;
  for (const std::string& id : d.ids_at(eval.value().remaining)) pos[id] = i++;
  ASSERT_EQ(pos.size(), d.size());
  for (const std::string& id : d.node_ids()) {
    for (const std::string& succ : d.successors(id)) {
      EXPECT_LT(pos.at(id), pos.at(succ));
    }
  }
}

TEST_P(RandomDagProperty, ViolatingHistoriesAreRejected) {
  dag::ConfigDag d = make();
  auto order = d.topological_sort().value();

  // Find a node with at least one ancestor; performing it alone must fail
  // the prefix test.
  for (const std::string& id : order) {
    if (!dag_reference::ancestors(d, id).empty()) {
      auto eval = dag::evaluate_match(d, {d.action(id)->signature()});
      ASSERT_TRUE(eval.ok());
      EXPECT_FALSE(eval.value().matches());
      EXPECT_FALSE(eval.value().prefix_ok);
      break;
    }
  }

  // An alien action must fail the subset test.
  auto eval = dag::evaluate_match(d, {"alien-op{x=1}"});
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval.value().subset_ok);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomDagProperty,
    ::testing::Values(DagShape{1, 2, 2, 0.5}, DagShape{2, 3, 3, 0.4},
                      DagShape{3, 4, 4, 0.3}, DagShape{4, 5, 3, 0.6},
                      DagShape{5, 3, 6, 0.2}, DagShape{6, 6, 2, 0.7},
                      DagShape{7, 2, 8, 0.4}, DagShape{8, 8, 2, 0.3},
                      DagShape{9, 4, 5, 0.5}, DagShape{10, 5, 5, 0.25}));

// =====================================================================
// Differential tests: the O(V+E) topological sort and MatchIndex against
// reference copies of the algorithms they replaced.
// =====================================================================

/// The repeated-pass Kahn sort the O(V+E) version replaced: scan the
/// insertion order, emit every node whose predecessors are all emitted,
/// repeat until done; on no progress, name the first unemitted node.
util::Result<std::vector<std::string>> reference_topological_sort(
    const dag::ConfigDag& d) {
  std::map<std::string, std::size_t> in_degree;
  for (const std::string& id : d.node_ids()) {
    in_degree[id] = d.predecessors(id).size();
  }
  std::vector<std::string> result;
  std::set<std::string> emitted;
  while (result.size() < d.size()) {
    bool progressed = false;
    for (const std::string& id : d.node_ids()) {
      if (emitted.count(id) || in_degree[id] != 0) continue;
      result.push_back(id);
      emitted.insert(id);
      for (const std::string& succ : d.successors(id)) --in_degree[succ];
      progressed = true;
    }
    if (!progressed) {
      std::string member;
      for (const std::string& id : d.node_ids()) {
        if (!emitted.count(id)) {
          member = id;
          break;
        }
      }
      return util::Result<std::vector<std::string>>(util::Error(
          util::ErrorCode::kInvalidArgument,
          "configuration DAG contains a cycle through '" + member + "'"));
    }
  }
  return result;
}

/// The ancestor-walking matcher MatchIndex replaced: Prefix and Partial
/// Order check every ancestor of every performed node.
util::Result<dag_reference::IdEvaluation> reference_evaluate_match(
    const dag::ConfigDag& request, const std::vector<std::string>& performed) {
  auto index_result = request.signature_index();
  if (!index_result.ok()) {
    return index_result.propagate<dag_reference::IdEvaluation>();
  }
  const std::map<std::string, std::string>& sig_to_node = index_result.value();
  dag_reference::IdEvaluation eval;

  std::vector<std::string> performed_nodes;
  std::set<std::string> performed_set;
  eval.subset_ok = true;
  for (const std::string& sig : performed) {
    auto it = sig_to_node.find(sig);
    if (it == sig_to_node.end()) {
      eval.subset_ok = false;
      eval.failure_reason =
          "subset test failed: image performed unrequested action '" + sig + "'";
      break;
    }
    if (!performed_set.insert(it->second).second) {
      eval.subset_ok = false;
      eval.failure_reason =
          "subset test failed: image performed action '" + sig + "' twice";
      break;
    }
    performed_nodes.push_back(it->second);
  }
  if (!eval.subset_ok) return eval;

  eval.prefix_ok = true;
  for (const std::string& node : performed_nodes) {
    for (const std::string& ancestor :
         dag_reference::ancestors(request, node)) {
      if (!performed_set.count(ancestor)) {
        eval.prefix_ok = false;
        eval.failure_reason = "prefix test failed: image performed '" + node +
                              "' without its predecessor '" + ancestor + "'";
        break;
      }
    }
    if (!eval.prefix_ok) break;
  }
  if (!eval.prefix_ok) return eval;

  std::map<std::string, std::size_t> history_position;
  for (std::size_t i = 0; i < performed_nodes.size(); ++i) {
    history_position[performed_nodes[i]] = i;
  }
  eval.partial_order_ok = true;
  for (const std::string& node : performed_nodes) {
    for (const std::string& ancestor :
         dag_reference::ancestors(request, node)) {
      if (history_position.at(ancestor) > history_position.at(node)) {
        eval.partial_order_ok = false;
        eval.failure_reason = "partial order test failed: image performed '" +
                              node + "' before its predecessor '" + ancestor +
                              "'";
        break;
      }
    }
    if (!eval.partial_order_ok) break;
  }
  if (!eval.partial_order_ok) return eval;

  eval.satisfied_nodes = performed_nodes;
  auto topo = reference_topological_sort(request);
  if (!topo.ok()) return topo.propagate<dag_reference::IdEvaluation>();
  for (const std::string& id : topo.value()) {
    if (!performed_set.count(id)) eval.remaining_plan.push_back(id);
  }
  return eval;
}

template <typename T>
void shuffle(std::vector<T>* items, util::SplitMix64* rng) {
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->next_below(i)]);
  }
}

/// The same graph with nodes and edges inserted in a shuffled order.
dag::ConfigDag insertion_shuffled(const dag::ConfigDag& d,
                                  util::SplitMix64* rng) {
  std::vector<std::string> ids = d.node_ids();
  shuffle(&ids, rng);
  std::vector<std::pair<std::string, std::string>> edges;
  for (const std::string& id : d.node_ids()) {
    for (const std::string& succ : d.successors(id)) edges.emplace_back(id, succ);
  }
  shuffle(&edges, rng);
  dag::ConfigDag out;
  for (const std::string& id : ids) EXPECT_TRUE(out.add_action(*d.action(id)).ok());
  for (const auto& [from, to] : edges) EXPECT_TRUE(out.add_edge(from, to).ok());
  return out;
}

std::string failure_test(const std::string& reason) {
  return reason.substr(0, reason.find(':'));
}

void expect_same_evaluation(const dag::ConfigDag& d,
                            const std::vector<std::string>& history) {
  auto want = reference_evaluate_match(d, history);
  auto got = dag::evaluate_match(d, history);
  ASSERT_EQ(want.ok(), got.ok());
  if (!want.ok()) {
    EXPECT_EQ(want.error().message(), got.error().message());
    return;
  }
  const dag_reference::IdEvaluation& w = want.value();
  const dag::MatchEvaluation& g = got.value();
  EXPECT_EQ(w.subset_ok, g.subset_ok);
  EXPECT_EQ(w.prefix_ok, g.prefix_ok);
  EXPECT_EQ(w.partial_order_ok, g.partial_order_ok);
  EXPECT_EQ(w.satisfied_nodes, d.ids_at(g.satisfied));
  EXPECT_EQ(w.remaining_plan, d.ids_at(g.remaining));
  EXPECT_EQ(failure_test(w.failure_reason), failure_test(g.failure_reason))
      << "reference: " << w.failure_reason << "\nindex: " << g.failure_reason;
  if (!w.subset_ok) {
    EXPECT_EQ(w.failure_reason, g.failure_reason);
  }
}

class DifferentialDag : public ::testing::TestWithParam<DagShape> {
 protected:
  dag::ConfigDag make() const {
    const DagShape& s = GetParam();
    return workload::random_layered_dag(s.seed, s.layers, s.width, s.density);
  }
};

TEST_P(DifferentialDag, TopologicalSortMatchesRepeatedPassSort) {
  util::SplitMix64 rng(GetParam().seed ^ 0x5eed);
  const dag::ConfigDag base = make();
  std::vector<dag::ConfigDag> graphs{base};
  for (int i = 0; i < 8; ++i) graphs.push_back(insertion_shuffled(base, &rng));
  for (const dag::ConfigDag& d : graphs) {
    auto want = reference_topological_sort(d);
    auto got = d.topological_sort();
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want.value(), got.value());
  }
}

TEST_P(DifferentialDag, CycleErrorNamesTheSameNode) {
  util::SplitMix64 rng(GetParam().seed ^ 0xc7c1e);
  const dag::ConfigDag base = make();
  for (int i = 0; i < 8; ++i) {
    dag::ConfigDag d = insertion_shuffled(base, &rng);
    // Close a cycle: an edge from some descendant back to its ancestor.
    const std::vector<std::string>& ids = d.node_ids();
    std::string from;
    std::string to;
    for (std::size_t tries = 0; tries < 4 * ids.size() && from.empty(); ++tries) {
      const std::string& candidate = ids[rng.next_below(ids.size())];
      const std::set<std::string> below =
          dag_reference::descendants(d, candidate);
      if (below.empty()) continue;
      auto it = below.begin();
      std::advance(it, rng.next_below(below.size()));
      if (std::ranges::count(d.successors(*it), candidate) != 0) continue;
      from = *it;
      to = candidate;
    }
    ASSERT_FALSE(from.empty());
    ASSERT_TRUE(d.add_edge(from, to).ok());
    auto want = reference_topological_sort(d);
    auto got = d.topological_sort();
    ASSERT_FALSE(want.ok());
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(want.error().code(), got.error().code());
    EXPECT_EQ(want.error().message(), got.error().message());
    EXPECT_FALSE(dag::evaluate_match(d, {}).ok());
  }
}

TEST_P(DifferentialDag, MatchIndexAgreesWithAncestorWalks) {
  util::SplitMix64 rng(GetParam().seed ^ 0xd1ff);
  const dag::ConfigDag base = make();
  for (const dag::ConfigDag& d : {base, insertion_shuffled(base, &rng)}) {
    const std::vector<std::string> order = d.topological_sort().value();
    auto sig = [&d](const std::string& id) { return d.action(id)->signature(); };
    std::vector<std::vector<std::string>> histories{{}};
    for (std::size_t take = 0; take <= order.size(); ++take) {
      std::vector<std::string> prefix;
      for (std::size_t i = 0; i < take; ++i) prefix.push_back(sig(order[i]));
      histories.push_back(prefix);
      if (take == 0) continue;

      std::vector<std::string> shuffled = prefix;
      shuffle(&shuffled, &rng);
      histories.push_back(shuffled);

      // Drop an early (deep) ancestor from the prefix.
      std::vector<std::string> dropped = prefix;
      dropped.erase(dropped.begin() +
                    static_cast<std::ptrdiff_t>(rng.next_below(take / 2 + 1)));
      histories.push_back(dropped);

      std::vector<std::string> duplicate = prefix;
      duplicate.insert(duplicate.begin() + static_cast<std::ptrdiff_t>(
                                               rng.next_below(take + 1)),
                       prefix[rng.next_below(take)]);
      histories.push_back(duplicate);

      std::vector<std::string> unknown = prefix;
      unknown.insert(
          unknown.begin() +
              static_cast<std::ptrdiff_t>(rng.next_below(take + 1)),
          "alien-op{x=1}");
      histories.push_back(unknown);
    }
    // Random downward-closed sets in topological order, and swapped pairs.
    for (int round = 0; round < 8; ++round) {
      std::set<std::string> closed;
      std::vector<std::string> history;
      for (const std::string& id : order) {
        bool all_preds = true;
        for (const std::string& p : d.predecessors(id)) {
          if (!closed.count(p)) all_preds = false;
        }
        if (all_preds && rng.bernoulli(0.6)) {
          closed.insert(id);
          history.push_back(sig(id));
        }
      }
      histories.push_back(history);
      if (history.size() >= 2) {
        const std::size_t i = rng.next_below(history.size() - 1);
        std::swap(history[i], history[i + 1]);
        histories.push_back(history);
      }
    }
    for (const auto& history : histories) {
      SCOPED_TRACE("history of " + std::to_string(history.size()));
      expect_same_evaluation(d, history);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DifferentialDag,
    ::testing::Values(DagShape{1, 2, 2, 0.5}, DagShape{2, 3, 3, 0.4},
                      DagShape{3, 4, 4, 0.3}, DagShape{4, 5, 3, 0.6},
                      DagShape{6, 6, 2, 0.7}, DagShape{8, 8, 2, 0.3},
                      DagShape{20040621, 8, 8, 0.25}));

TEST(DifferentialDagTest, DuplicateSignatureErrorIsUnchanged) {
  dag::ConfigDag d;
  ASSERT_TRUE(d.add_action(dag::Action("A", "op")).ok());
  ASSERT_TRUE(d.add_action(dag::Action("B", "op")).ok());
  for (const std::vector<std::string>& history :
       {std::vector<std::string>{}, std::vector<std::string>{"op{}"}}) {
    auto want = reference_evaluate_match(d, history);
    auto got = dag::evaluate_match(d, history);
    ASSERT_FALSE(want.ok());
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(want.error().message(), got.error().message());
  }
}

/// The PPP over a deep prefix catalog (one 64-node DAG, goldens on its
/// topological prefixes plus goldens that fail each test) picks the golden,
/// plan and match-kind counts the reference matcher implies.
class PppPrefixCatalog : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-prop-ppp-" + std::to_string(::getpid()) + "-" +
             std::to_string(GetParam()));
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ = std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
  }
  void TearDown() override {
    warehouse_.reset();
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  void publish(const std::string& id, const std::vector<std::string>& performed) {
    storage::MachineSpec spec;
    spec.os = "linux";
    spec.memory_bytes = 64ull << 20;
    spec.suspended = true;
    spec.disk = {"disk0", 2048ull << 20, 4, storage::DiskMode::kNonPersistent};
    hv::GuestState guest;
    guest.os = "linux";
    ASSERT_TRUE(warehouse_->publish_new(id, "vmware-gsx", spec, guest, performed).ok());
    catalog_[id] = performed;
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  std::map<std::string, std::vector<std::string>> catalog_;  // id order
};

TEST_P(PppPrefixCatalog, PlanAndMatchCountsEqualTheReference) {
  util::SplitMix64 rng(GetParam());
  const dag::ConfigDag shape = workload::random_layered_dag(GetParam(), 8, 8, 0.25);
  const std::vector<std::string> order = shape.topological_sort().value();
  auto sig = [&shape](const std::string& id) {
    return shape.action(id)->signature();
  };
  constexpr std::size_t kGoldens = 16;
  constexpr std::size_t kSuffix = 4;
  const std::size_t step = (order.size() - kSuffix) / (kGoldens - 1);
  for (std::size_t k = 0; k < kGoldens; ++k) {
    std::vector<std::string> performed;
    for (std::size_t n = 0; n < k * step; ++n) performed.push_back(sig(order[n]));
    char id[32];
    std::snprintf(id, sizeof id, "golden-deep-%02zu", k);
    publish(id, performed);
  }
  std::vector<std::string> deep;
  for (std::size_t n = 0; n + kSuffix < order.size(); ++n) deep.push_back(sig(order[n]));
  std::vector<std::string> shuffled = deep;
  shuffle(&shuffled, &rng);
  publish("golden-bad-order", shuffled);
  std::vector<std::string> dropped = deep;
  dropped.erase(dropped.begin() + 1);
  publish("golden-bad-prefix", dropped);
  std::vector<std::string> twice = deep;
  twice.push_back(deep.front());
  publish("golden-bad-twice", twice);
  std::vector<std::string> alien = deep;
  alien.push_back("alien-op{x=1}");
  publish("golden-bad-alien", alien);

  // The request: the same DAG with the uncached suffix's parameters
  // varied, so no golden matches fully and every candidate is evaluated.
  core::CreateRequest request = workload::workspace_request(64, 0, "ufl.edu");
  request.hardware.os = "linux";
  const std::set<std::string> suffix(order.end() - kSuffix, order.end());
  dag::ConfigDag config;
  for (const std::string& id : shape.node_ids()) {
    dag::Action action = *shape.action(id);
    if (suffix.count(id)) action.set_param("package", "pkg-" + id + "-req");
    ASSERT_TRUE(config.add_action(std::move(action)).ok());
  }
  for (const std::string& id : shape.node_ids()) {
    for (const std::string& next : shape.successors(id)) {
      ASSERT_TRUE(config.add_edge(id, next).ok());
    }
  }
  request.config = config;

  std::string want_golden;
  dag_reference::IdEvaluation want_eval;
  std::map<std::string, std::uint64_t> want_counts;
  for (const auto& [id, performed] : catalog_) {
    auto eval = reference_evaluate_match(request.config, performed);
    ASSERT_TRUE(eval.ok());
    const dag_reference::IdEvaluation& e = eval.value();
    if (e.matches()) {
      ++want_counts["ppp.match_hit.count"];
      if (want_golden.empty() ||
          e.satisfied_nodes.size() > want_eval.satisfied_nodes.size()) {
        want_golden = id;
        want_eval = e;
      }
    } else if (!e.subset_ok) {
      ++want_counts["ppp.match_subset_fail.count"];
    } else if (!e.prefix_ok) {
      ++want_counts["ppp.match_prefix_fail.count"];
    } else {
      ++want_counts["ppp.match_order_fail.count"];
    }
  }
  EXPECT_EQ(want_counts["ppp.match_hit.count"], kGoldens);
  EXPECT_EQ(want_counts["ppp.match_subset_fail.count"], 2u);
  EXPECT_EQ(want_counts["ppp.match_prefix_fail.count"], 1u);
  EXPECT_EQ(want_counts["ppp.match_order_fail.count"], 1u);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  std::map<std::string, std::uint64_t> before;
  for (const auto& [name, count] : want_counts) {
    before[name] = metrics.counter(name)->value();
  }
  core::ProductionProcessPlanner ppp(warehouse_.get());
  auto plan = ppp.plan(request);
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  EXPECT_EQ(plan.value().golden.id, want_golden);
  EXPECT_EQ(plan.value().satisfied_nodes, want_eval.satisfied_nodes);
  EXPECT_EQ(plan.value().remaining_plan, want_eval.remaining_plan);
  EXPECT_EQ(plan.value().hardware_candidates, catalog_.size());
  for (const auto& [name, count] : want_counts) {
    EXPECT_EQ(metrics.counter(name)->value() - before[name], count) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PppPrefixCatalog,
                         ::testing::Values(20040621u, 7u, 11u));

// =====================================================================
// Ranking properties.
// =====================================================================

class RankingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RankingProperty, RankedMatchesAreSortedAndConsistent) {
  dag::ConfigDag d = workload::random_layered_dag(GetParam(), 4, 3, 0.4);
  auto order = d.topological_sort().value();

  // Candidate images: topo prefixes of various lengths + one broken.
  std::vector<std::vector<std::string>> images;
  for (std::size_t take = 0; take <= order.size(); take += 2) {
    std::vector<std::string> history;
    for (std::size_t i = 0; i < take; ++i) {
      history.push_back(d.action(order[i])->signature());
    }
    images.push_back(history);
  }
  images.push_back({"alien-op{}"});

  auto ranked = dag::rank_matches(d, images);
  ASSERT_TRUE(ranked.ok());
  // The alien image must be absent; all others present.
  EXPECT_EQ(ranked.value().size(), images.size() - 1);
  // Sorted by satisfied_count descending; satisfied+remaining == |dag|.
  for (std::size_t i = 0; i < ranked.value().size(); ++i) {
    if (i > 0) {
      EXPECT_GE(ranked.value()[i - 1].satisfied_count,
                ranked.value()[i].satisfied_count);
    }
    EXPECT_EQ(ranked.value()[i].satisfied_count +
                  ranked.value()[i].remaining_count,
              d.size());
  }
  // The best match is the longest prefix.
  EXPECT_EQ(ranked.value().front().satisfied_count,
            images[images.size() - 2].size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankingProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// =====================================================================
// Simulation resource conservation properties.
// =====================================================================

class BandwidthProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthProperty, WorkConservationAndOrdering) {
  // N random transfers: total transferred equals total offered, and the
  // pipe is never idle while work remains -> makespan == total/capacity
  // when all jobs start at t=0.
  util::SplitMix64 rng(GetParam());
  sim::Engine engine;
  const double capacity = 8.0;
  sim::SharedBandwidth pipe(&engine, capacity);

  double total = 0.0;
  std::size_t completions = 0;
  const std::size_t n = 2 + rng.next_below(10);
  for (std::size_t i = 0; i < n; ++i) {
    const double units = 1.0 + rng.uniform(0.0, 100.0);
    total += units;
    pipe.start(units, [&] { ++completions; });
  }
  engine.run();
  EXPECT_EQ(completions, n);
  EXPECT_NEAR(pipe.total_transferred(), total, 1e-6);
  EXPECT_NEAR(engine.now(), total / capacity, 1e-6);
}

TEST_P(BandwidthProperty, StaggeredArrivalsStillConserveWork) {
  util::SplitMix64 rng(GetParam() ^ 0x777);
  sim::Engine engine;
  sim::SharedBandwidth pipe(&engine, 5.0);
  double total = 0.0;
  std::size_t completions = 0;
  const std::size_t n = 3 + rng.next_below(8);
  for (std::size_t i = 0; i < n; ++i) {
    const double units = 1.0 + rng.uniform(0.0, 50.0);
    const double arrival = rng.uniform(0.0, 10.0);
    total += units;
    engine.schedule(arrival, [&pipe, units, &completions] {
      pipe.start(units, [&completions] { ++completions; });
    });
  }
  engine.run();
  EXPECT_EQ(completions, n);
  EXPECT_NEAR(pipe.total_transferred(), total, 1e-6);
  // Makespan is at least the lower bound (work/capacity).
  EXPECT_GE(engine.now() + 1e-9, total / 5.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// =====================================================================
// In-VIGO workspace DAG sweep: every (memory, request-index) combination
// builds a valid request whose XML round-trips.
// =====================================================================

class WorkspaceSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::size_t>> {
};

TEST_P(WorkspaceSweep, RequestsAreValidAndRoundTrip) {
  const auto [mem, index] = GetParam();
  core::CreateRequest r = workload::workspace_request(mem, index, "ufl.edu");
  ASSERT_TRUE(r.validate().ok());
  auto parsed = core::CreateRequest::from_xml_string(r.to_xml_string());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value().config == r.config);
  EXPECT_EQ(parsed.value().hardware.memory_bytes, r.hardware.memory_bytes);

  // Each request matches the golden prefix regardless of parameters.
  auto eval =
      dag::evaluate_match(r.config, workload::invigo_golden_history());
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval.value().matches());
}

INSTANTIATE_TEST_SUITE_P(
    MemAndIndex, WorkspaceSweep,
    ::testing::Combine(::testing::Values(32u, 64u, 256u),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{17}, std::size_t{127},
                                         std::size_t{300})));

// =====================================================================
// Fault-schedule properties: random single-fault schedules against the
// full shop->plant->store path.  Whatever fires, a creation either
// succeeds or fails with a typed error, and the store never keeps
// half-written clone or image directories.
// =====================================================================

class SingleFaultScheduleProperty
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-prop-fault-" + std::to_string(::getpid()) + "-" +
             std::to_string(GetParam()));
    std::filesystem::remove_all(root_);
  }
  void TearDown() override {
    fault::FaultRegistry::instance().clear();
    std::filesystem::remove_all(root_);
  }

  // Every directory under the plants' clone areas must be a complete
  // clone (its guest.state exists — the last artefact written), and every
  // directory under the warehouse must hold a descriptor.
  void check_no_partial_dirs(storage::ArtifactStore* store,
                             const std::vector<std::string>& clone_areas) {
    for (const std::string& area : clone_areas) {
      auto entries = store->list_dir(area);
      ASSERT_TRUE(entries.ok()) << entries.error().to_string();
      for (const std::string& entry : entries.value()) {
        EXPECT_TRUE(store->exists(area + "/" + entry + "/guest.state"))
            << "half-written clone dir: " << area << "/" << entry;
      }
    }
    auto images = store->list_dir("warehouse");
    ASSERT_TRUE(images.ok());
    for (const std::string& entry : images.value()) {
      EXPECT_TRUE(store->exists("warehouse/" + entry + "/descriptor.xml"))
          << "half-written image dir: warehouse/" << entry;
    }
  }

  std::filesystem::path root_;
};

TEST_P(SingleFaultScheduleProperty, CreationsFailTypedAndStoreStaysClean) {
  const std::uint64_t seed = GetParam();
  util::SplitMix64 rng(seed);
  storage::ArtifactStore store(root_);
  warehouse::Warehouse warehouse(&store, "warehouse");
  ASSERT_TRUE(workload::publish_paper_goldens(&warehouse).ok());
  net::MessageBus bus;
  net::ServiceRegistry registry;
  std::vector<std::unique_ptr<core::VmPlant>> plants;
  std::vector<std::string> clone_areas;
  for (int i = 0; i < 2; ++i) {
    core::PlantConfig pc;
    pc.name = "plant" + std::to_string(i);
    plants.push_back(
        std::make_unique<core::VmPlant>(pc, &store, &warehouse));
    ASSERT_TRUE(plants.back()->attach_to_bus(&bus, &registry).ok());
    clone_areas.push_back(pc.name + "/clones");
  }
  core::VmShop shop(core::ShopConfig{}, &bus, &registry);
  ASSERT_TRUE(shop.attach_to_bus().ok());

  const std::vector<std::string>& points = fault::known_points();
  for (int iter = 0; iter < 8; ++iter) {
    // One random fault rule per iteration: random point, random onset.
    const std::string& point = points[rng.next_below(points.size())];
    const std::string spec = point + ":after=" +
                             std::to_string(rng.next_below(6)) + ",times=1";
    fault::ScopedFaultPlan scoped(
        fault::FaultPlan::parse(spec, seed + iter).value());

    // Mix well-formed workspace requests with random-DAG requests (whose
    // configuration may not match any golden image at all).
    core::CreateRequest request = workload::workspace_request(32, iter, "d");
    if (rng.bernoulli(0.25)) {
      request.config = workload::random_layered_dag(
          seed * 31 + iter, 2 + rng.next_below(3), 2 + rng.next_below(3), 0.4);
    }

    auto ad = shop.create(request);
    if (ad.ok()) {
      EXPECT_TRUE(ad.value().get_string(core::attrs::kVmId).has_value());
    } else {
      // Failure must be a typed error with a message, never a crash or an
      // untagged fault.
      EXPECT_NE(ad.error().code(), util::ErrorCode::kOk);
      EXPECT_FALSE(ad.error().message().empty());
    }
    check_no_partial_dirs(&store, clone_areas);
  }
}

TEST_P(SingleFaultScheduleProperty, WarehouseNeverKeepsHalfWrittenImages) {
  const std::uint64_t seed = GetParam();
  util::SplitMix64 rng(seed ^ 0x5A5A5A5Aull);
  storage::ArtifactStore store(root_);
  warehouse::Warehouse warehouse(&store, "warehouse");

  storage::MachineSpec spec;
  spec.os = "linux";
  spec.memory_bytes = 32ull << 20;
  spec.suspended = true;
  spec.disk = {"disk0", 128ull << 20, 2, storage::DiskMode::kNonPersistent};

  int published = 0;
  for (int iter = 0; iter < 10; ++iter) {
    warehouse::GoldenImage image;
    image.id = "image-" + std::to_string(iter);
    image.backend = "vmware-gsx";
    image.spec = spec;

    util::Status publish_status;
    if (rng.bernoulli(0.6)) {
      fault::ScopedFaultPlan scoped(fault::FaultPlan::parse(
          "store.write:after=" + std::to_string(rng.next_below(8)) +
              ",times=1",
          seed + iter).value());
      publish_status = warehouse.publish(image);
    } else {
      publish_status = warehouse.publish(image);
    }
    if (publish_status.ok()) {
      ++published;
    } else {
      EXPECT_NE(publish_status.error().code(), util::ErrorCode::kOk);
    }
    // Invariant after every attempt: all image dirs are complete.
    auto entries = store.list_dir("warehouse");
    ASSERT_TRUE(entries.ok());
    for (const std::string& entry : entries.value()) {
      EXPECT_TRUE(store.exists("warehouse/" + entry + "/descriptor.xml"))
          << "half-written image dir: warehouse/" << entry;
    }
  }

  // A fresh rescan agrees with the surviving set.
  warehouse::Warehouse reloaded(&store, "warehouse");
  ASSERT_TRUE(reloaded.rescan().ok());
  EXPECT_EQ(reloaded.size(), static_cast<std::size_t>(published));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleFaultScheduleProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace vmp
