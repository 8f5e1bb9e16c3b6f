// Unit tests for the configuration-DAG container, algorithms, and XML form.
#include <gtest/gtest.h>

#include <algorithm>

#include "dag/dag.h"
#include "dag/dag_xml.h"
#include "dag/matching.h"
#include "dag_reference.h"
#include "util/random.h"
#include "workload/dag_library.h"

namespace vmp::dag {
namespace {

using dag_reference::ancestors;
using dag_reference::descendants;
using dag_reference::orders_before;

ConfigDag diamond() {
  // A -> {B, C} -> D
  return DagBuilder()
      .guest("A", "install-os", {{"distro", "r8"}})
      .guest("B", "install-package", {{"package", "p1"}})
      .guest("C", "install-package", {{"package", "p2"}})
      .guest("D", "create-user", {{"name", "u"}})
      .edge("A", "B")
      .edge("A", "C")
      .edge("B", "D")
      .edge("C", "D")
      .build();
}

// -- Action -----------------------------------------------------------------------

TEST(ActionTest, SignatureIsCanonical) {
  Action a("id1", "install-package");
  a.set_param("version", "2");
  a.set_param("package", "vnc");
  Action b("other-id", "install-package");
  b.set_param("package", "vnc");
  b.set_param("version", "2");
  EXPECT_EQ(a.signature(), b.signature());
  EXPECT_EQ(a.signature(), "install-package{package=vnc,version=2}");
}

TEST(ActionTest, SignatureIgnoresScriptAndPolicy) {
  Action a("x", "op");
  Action b("y", "op");
  b.set_script("echo hi");
  b.set_error_policy(ErrorPolicy::kContinue);
  EXPECT_EQ(a.signature(), b.signature());
}

TEST(ActionTest, DifferentParamsDifferentSignature) {
  Action a("x", "op");
  a.set_param("k", "1");
  Action b("y", "op");
  b.set_param("k", "2");
  EXPECT_NE(a.signature(), b.signature());
}

TEST(ActionTest, ScopeAndPolicyParsing) {
  EXPECT_EQ(parse_action_scope("guest").value(), ActionScope::kGuest);
  EXPECT_EQ(parse_action_scope("host").value(), ActionScope::kHost);
  EXPECT_FALSE(parse_action_scope("bogus").ok());
  EXPECT_EQ(parse_error_policy("retry").value(), ErrorPolicy::kRetry);
  EXPECT_FALSE(parse_error_policy("bogus").ok());
}

// -- Construction ------------------------------------------------------------------

TEST(ConfigDagTest, AddActionRejectsDuplicatesAndReservedIds) {
  ConfigDag dag;
  EXPECT_TRUE(dag.add_action(Action("A", "op")).ok());
  EXPECT_FALSE(dag.add_action(Action("A", "op")).ok());
  EXPECT_FALSE(dag.add_action(Action("", "op")).ok());
  EXPECT_FALSE(dag.add_action(Action("X", "")).ok());
  EXPECT_FALSE(dag.add_action(Action("START", "op")).ok());
  EXPECT_FALSE(dag.add_action(Action("FINISH", "op")).ok());
}

TEST(ConfigDagTest, AddEdgeValidation) {
  ConfigDag dag;
  ASSERT_TRUE(dag.add_action(Action("A", "op")).ok());
  ASSERT_TRUE(dag.add_action(Action("B", "op2")).ok());
  EXPECT_TRUE(dag.add_edge("A", "B").ok());
  EXPECT_FALSE(dag.add_edge("A", "B").ok());   // duplicate
  EXPECT_FALSE(dag.add_edge("A", "A").ok());   // self loop
  EXPECT_FALSE(dag.add_edge("A", "Z").ok());   // missing target
  EXPECT_FALSE(dag.add_edge("Z", "A").ok());   // missing source
  EXPECT_EQ(dag.edge_count(), 1u);
}

TEST(ConfigDagTest, PredecessorsAndSuccessors) {
  ConfigDag d = diamond();
  const auto ids = [](ConfigDag::IdRange range) {
    return std::vector<std::string>(range.begin(), range.end());
  };
  EXPECT_EQ(ids(d.successors("A")), (std::vector<std::string>{"B", "C"}));
  EXPECT_EQ(ids(d.predecessors("D")), (std::vector<std::string>{"B", "C"}));
  EXPECT_TRUE(d.successors("D").empty());
  EXPECT_TRUE(d.predecessors("nonexistent").empty());
}

// -- Validation / cycles --------------------------------------------------------------

TEST(ConfigDagTest, ValidatesAcyclicGraph) {
  EXPECT_TRUE(diamond().validate().ok());
}

TEST(ConfigDagTest, DetectsCycle) {
  ConfigDag dag;
  ASSERT_TRUE(dag.add_action(Action("A", "op")).ok());
  ASSERT_TRUE(dag.add_action(Action("B", "op2")).ok());
  ASSERT_TRUE(dag.add_action(Action("C", "op3")).ok());
  ASSERT_TRUE(dag.add_edge("A", "B").ok());
  ASSERT_TRUE(dag.add_edge("B", "C").ok());
  ASSERT_TRUE(dag.add_edge("C", "A").ok());
  auto status = dag.validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.error().message().find("cycle"), std::string::npos);
}

TEST(ConfigDagTest, EmptyGraphIsValid) {
  ConfigDag dag;
  EXPECT_TRUE(dag.validate().ok());
  EXPECT_TRUE(dag.topological_sort().value().empty());
}

// -- Topological sort -------------------------------------------------------------------

TEST(ConfigDagTest, TopologicalSortRespectsEdges) {
  ConfigDag d = diamond();
  auto sorted = d.topological_sort();
  ASSERT_TRUE(sorted.ok());
  const auto& order = sorted.value();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](const std::string& id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos("A"), pos("B"));
  EXPECT_LT(pos("A"), pos("C"));
  EXPECT_LT(pos("B"), pos("D"));
  EXPECT_LT(pos("C"), pos("D"));
}

TEST(ConfigDagTest, TopologicalSortIsDeterministic) {
  // Insertion order breaks ties: B added before C -> B sorts first.
  ConfigDag d = diamond();
  auto order = d.topological_sort().value();
  EXPECT_EQ(order, (std::vector<std::string>{"A", "B", "C", "D"}));
}

// -- Ancestors / descendants ----------------------------------------------------------

TEST(ConfigDagTest, AncestorsAndDescendants) {
  ConfigDag d = diamond();
  EXPECT_EQ(ancestors(d, "D"), (std::set<std::string>{"A", "B", "C"}));
  EXPECT_EQ(ancestors(d, "A"), (std::set<std::string>{}));
  EXPECT_EQ(descendants(d, "A"), (std::set<std::string>{"B", "C", "D"}));
  EXPECT_EQ(descendants(d, "D"), (std::set<std::string>{}));
}

TEST(ConfigDagTest, OrdersBefore) {
  ConfigDag d = diamond();
  EXPECT_TRUE(orders_before(d, "A", "D"));
  EXPECT_TRUE(orders_before(d, "B", "D"));
  EXPECT_FALSE(orders_before(d, "B", "C"));  // incomparable
  EXPECT_FALSE(orders_before(d, "D", "A"));
}

// -- Signature index ---------------------------------------------------------------------

TEST(ConfigDagTest, SignatureIndexMapsUniquely) {
  ConfigDag d = diamond();
  auto index = d.signature_index();
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().size(), 4u);
  EXPECT_EQ(index.value().at("install-os{distro=r8}"), "A");
}

TEST(ConfigDagTest, DuplicateSignaturesRejected) {
  ConfigDag dag;
  Action a("A", "op");
  Action b("B", "op");  // same op, same (empty) params
  ASSERT_TRUE(dag.add_action(a).ok());
  ASSERT_TRUE(dag.add_action(b).ok());
  EXPECT_FALSE(dag.signature_index().ok());
}

// -- Error sub-graphs ----------------------------------------------------------------------

TEST(ConfigDagTest, ErrorSubgraphAttachment) {
  ConfigDag d = diamond();
  ConfigDag recovery = DagBuilder()
                           .guest("fix", "remove-package", {{"package", "p1"}})
                           .build();
  EXPECT_TRUE(d.set_error_subgraph("B", recovery).ok());
  EXPECT_NE(d.error_subgraph("B"), nullptr);
  EXPECT_EQ(d.error_subgraph("A"), nullptr);
  EXPECT_FALSE(d.set_error_subgraph("nope", ConfigDag()).ok());
  EXPECT_EQ(d.total_nodes_with_subgraphs(), 5u);
}

TEST(ConfigDagTest, CyclicErrorSubgraphRejected) {
  ConfigDag d = diamond();
  ConfigDag bad;
  ASSERT_TRUE(bad.add_action(Action("X", "op")).ok());
  ASSERT_TRUE(bad.add_action(Action("Y", "op2")).ok());
  ASSERT_TRUE(bad.add_edge("X", "Y").ok());
  ASSERT_TRUE(bad.add_edge("Y", "X").ok());
  EXPECT_FALSE(d.set_error_subgraph("B", bad).ok());
}

// -- Copying --------------------------------------------------------------------------------

TEST(ConfigDagTest, CopyIsDeep) {
  ConfigDag d = diamond();
  ConfigDag recovery =
      DagBuilder().guest("fix", "emit", {{"key", "k"}, {"value", "v"}}).build();
  ASSERT_TRUE(d.set_error_subgraph("B", recovery).ok());

  ConfigDag copy = d;
  EXPECT_TRUE(copy == d);
  ASSERT_TRUE(copy.add_action(Action("E", "extra-op")).ok());
  EXPECT_FALSE(copy == d);
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(copy.size(), 5u);
  EXPECT_NE(copy.error_subgraph("B"), d.error_subgraph("B"));  // distinct objects
}

// -- Builder ---------------------------------------------------------------------------------

TEST(DagBuilderTest, TryBuildReportsFirstError) {
  auto result = DagBuilder()
                    .guest("A", "op")
                    .edge("A", "missing")
                    .try_build();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), util::ErrorCode::kNotFound);
}

TEST(DagBuilderTest, ChainBuildsLinearOrder) {
  ConfigDag d = DagBuilder()
                    .guest("A", "op1")
                    .guest("B", "op2")
                    .guest("C", "op3")
                    .chain({"A", "B", "C"})
                    .build();
  EXPECT_TRUE(orders_before(d, "A", "C"));
  EXPECT_EQ(d.edge_count(), 2u);
}

TEST(DagBuilderTest, CyclicTryBuildFails) {
  auto result = DagBuilder()
                    .guest("A", "op1")
                    .guest("B", "op2")
                    .edge("A", "B")
                    .edge("B", "A")
                    .try_build();
  EXPECT_FALSE(result.ok());
}

// -- XML round trip ----------------------------------------------------------------------------

TEST(DagXmlTest, RoundTripPreservesStructure) {
  ConfigDag d = diamond();
  Action flaky("E", "inject-flaky");
  flaky.set_param("token", "t1");
  flaky.set_param("count", "2");
  flaky.set_error_policy(ErrorPolicy::kRetry);
  flaky.set_max_retries(3);
  ASSERT_TRUE(d.add_action(flaky).ok());
  ASSERT_TRUE(d.add_edge("D", "E").ok());
  ConfigDag recovery =
      DagBuilder().guest("fix", "emit", {{"key", "a"}, {"value", "b"}}).build();
  ASSERT_TRUE(d.set_error_subgraph("E", recovery).ok());

  const std::string xml_text = to_xml_string(d);
  auto parsed = from_xml_string(xml_text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value() == d);

  const Action* e = parsed.value().action("E");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->error_policy(), ErrorPolicy::kRetry);
  EXPECT_EQ(e->max_retries(), 3);
  EXPECT_NE(parsed.value().error_subgraph("E"), nullptr);
}

TEST(DagXmlTest, ScriptsSurviveRoundTrip) {
  Action a("S", "run-script");
  a.set_script("install foo\noutput key value <&>\n");
  ConfigDag d;
  ASSERT_TRUE(d.add_action(a).ok());
  auto parsed = from_xml_string(to_xml_string(d));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().action("S")->script(), a.script());
}

TEST(DagXmlTest, RejectsMalformedDags) {
  EXPECT_FALSE(from_xml_string("<dag><action id=\"A\"/></dag>").ok());  // no op
  EXPECT_FALSE(from_xml_string("<dag><edge from=\"A\" to=\"B\"/></dag>").ok());
  EXPECT_FALSE(from_xml_string("<notdag/>").ok());
  // Cycle in the wire form.
  EXPECT_FALSE(from_xml_string(
                   "<dag><action id=\"A\" op=\"x\"/><action id=\"B\" op=\"y\"/>"
                   "<edge from=\"A\" to=\"B\"/><edge from=\"B\" to=\"A\"/></dag>")
                   .ok());
}

TEST(DagXmlTest, RejectsBadMaxRetries) {
  const auto parse = [](const std::string& retries) {
    return from_xml_string(
        "<dag><action id=\"A\" op=\"x\" on-error=\"retry\" max-retries=\"" +
        retries + "\"/></dag>");
  };
  for (const std::string bad :
       {"", "x", "3x", "1.5", "-1", "2147483648", "99999999999999999999"}) {
    auto parsed = parse(bad);
    ASSERT_FALSE(parsed.ok()) << "max-retries=" << bad;
    EXPECT_EQ(parsed.error().code(), util::ErrorCode::kParseError) << bad;
    EXPECT_NE(parsed.error().message().find("max-retries"), std::string::npos);
  }
  auto top = parse("2147483647");
  ASSERT_TRUE(top.ok()) << top.error().to_string();
  EXPECT_EQ(top.value().action("A")->max_retries(), 2147483647);
  auto zero = parse("0");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.value().action("A")->max_retries(), 0);
}

// -- Dense graph vs the map/set reference ---------------------------------------------------

void expect_same_status(const util::Status& dense, const util::Status& ref) {
  ASSERT_EQ(dense.ok(), ref.ok())
      << (dense.ok() ? ref : dense).error().to_string();
  if (!ref.ok()) {
    EXPECT_EQ(dense.error().code(), ref.error().code());
    EXPECT_EQ(dense.error().message(), ref.error().message());
  }
}

template <typename T, typename U>
void expect_same_result(const util::Result<T>& dense,
                        const util::Result<U>& ref) {
  expect_same_status(dense.ok() ? util::Status() : util::Status(dense.error()),
                     ref.ok() ? util::Status() : util::Status(ref.error()));
}

struct DagPair {
  ConfigDag dense;
  dag_reference::MapDag ref;
};

/// One seeded edit sequence applied to both graphs, each edit's status
/// compared: duplicate and reserved ids, empty operations, duplicate
/// signatures, self-loops, duplicate edges, missing endpoints, cycles and
/// (cyclic or valid) error sub-graphs.
DagPair random_edits(util::SplitMix64* rng, bool with_subgraphs) {
  DagPair out;
  const std::size_t pool = 2 + rng->next_below(10);
  const auto pick_id = [&] {
    switch (rng->next_below(12)) {
      case 0: return std::string("ghost");  // never added
      case 1: return std::string(rng->bernoulli(0.5) ? "START" : "");
      default: return "n" + std::to_string(rng->next_below(pool));
    }
  };
  const std::size_t actions = pool + rng->next_below(4);
  for (std::size_t k = 0; k < actions; ++k) {
    // One draw per statement, so the sequence is the same on every compiler.
    const std::string id = pick_id();
    const std::string op =
        rng->bernoulli(0.05) ? "" : "op" + std::to_string(rng->next_below(3));
    const bool host = rng->bernoulli(0.3);
    Action a(id, op, host ? ActionScope::kHost : ActionScope::kGuest);
    for (const char* key : {"pkg", "ver"}) {
      if (rng->bernoulli(0.5)) {
        a.set_param(key, std::to_string(rng->next_below(3)));
      }
    }
    if (rng->bernoulli(0.2)) {
      a.set_error_policy(ErrorPolicy::kRetry);
      a.set_max_retries(static_cast<int>(rng->next_below(4)));
    }
    if (rng->bernoulli(0.2)) a.set_script("echo <" + a.id() + "> & done");
    expect_same_status(out.dense.add_action(a), out.ref.add_action(a));
  }
  const std::size_t edges = rng->next_below(3 * pool + 1);
  for (std::size_t k = 0; k < edges; ++k) {
    std::string from = pick_id();
    std::string to = pick_id();
    // Mostly forward edges, so a good share of the graphs stay acyclic.
    if (rng->bernoulli(0.85) && to < from) std::swap(from, to);
    expect_same_status(out.dense.add_edge(from, to), out.ref.add_edge(from, to));
  }
  if (with_subgraphs) {
    for (int k = 0; k < 2; ++k) {
      DagPair sub = random_edits(rng, false);
      const std::string id = pick_id();
      expect_same_status(out.dense.set_error_subgraph(id, std::move(sub.dense)),
                         out.ref.set_error_subgraph(id, std::move(sub.ref)));
    }
  }
  return out;
}

TEST(DenseDagDifferential, AgreesWithMapSetReference) {
  std::size_t acyclic = 0;
  std::size_t matched = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::SplitMix64 rng(seed);
    const DagPair g = random_edits(&rng, true);
    const ConfigDag& d = g.dense;

    expect_same_status(d.validate(), g.ref.validate());
    const auto order = d.topological_sort();
    const auto ref_order = g.ref.topological_sort();
    expect_same_result(order, ref_order);
    if (order.ok() && ref_order.ok()) {
      EXPECT_EQ(order.value(), ref_order.value());
    }
    const auto index = d.signature_index();
    const auto ref_index = g.ref.signature_index();
    expect_same_result(index, ref_index);
    if (index.ok() && ref_index.ok()) {
      EXPECT_EQ(index.value(), ref_index.value());
    }

    const std::string xml = to_xml_string(d);
    EXPECT_EQ(xml, g.ref.to_xml_string());
    if (order.ok()) {
      ++acyclic;
      auto parsed = from_xml_string(xml);
      ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
      EXPECT_TRUE(parsed.value() == d);
    }

    // Histories: prefixes of an order (the topological one when there is
    // one), shuffled, with a repeat, with an alien action, and random sets.
    std::vector<std::string> sigs;
    for (const std::string& id : order.ok() ? order.value() : d.node_ids()) {
      sigs.push_back(d.action(id)->signature());
    }
    std::vector<std::vector<std::string>> histories{{}};
    for (std::size_t take = 1; take <= sigs.size(); ++take) {
      std::vector<std::string> prefix(sigs.begin(), sigs.begin() + take);
      histories.push_back(prefix);
      std::vector<std::string> shuffled = prefix;
      const std::size_t i = rng.next_below(take);
      const std::size_t j = rng.next_below(take);
      std::swap(shuffled[i], shuffled[j]);
      histories.push_back(shuffled);
      prefix.push_back(prefix[rng.next_below(take)]);
      histories.push_back(prefix);
      prefix.back() = "alien{}";
      histories.push_back(prefix);
      std::vector<std::string> subset;
      for (const std::string& sig : sigs) {
        if (rng.bernoulli(0.5)) subset.push_back(sig);
      }
      histories.push_back(subset);
    }
    for (const auto& history : histories) {
      const auto got = evaluate_match(d, history);
      const auto want = g.ref.evaluate(history);
      expect_same_result(got, want);
      if (!got.ok() || !want.ok()) continue;
      const MatchEvaluation& e = got.value();
      EXPECT_EQ(e.subset_ok, want.value().subset_ok);
      EXPECT_EQ(e.prefix_ok, want.value().prefix_ok);
      EXPECT_EQ(e.partial_order_ok, want.value().partial_order_ok);
      EXPECT_EQ(e.failure_reason, want.value().failure_reason);
      EXPECT_EQ(d.ids_at(e.satisfied), want.value().satisfied_nodes);
      EXPECT_EQ(d.ids_at(e.remaining), want.value().remaining_plan);
      if (e.matches()) ++matched;
    }
  }
  // The generator covers both sides of every check.
  EXPECT_GT(acyclic, 100u);
  EXPECT_LT(acyclic, 390u);
  EXPECT_GT(matched, 200u);
}

// -- The paper's Figure 3 DAG -------------------------------------------------------------------

TEST(InVigoDagTest, HasNineActions) {
  workload::WorkspaceParams params;
  ConfigDag d = workload::invigo_workspace_dag(params);
  EXPECT_EQ(d.size(), 9u);
  EXPECT_TRUE(d.validate().ok());
}

TEST(InVigoDagTest, TopologicalOrderMatchesPaperConstraints) {
  workload::WorkspaceParams params;
  ConfigDag d = workload::invigo_workspace_dag(params);
  auto order = d.topological_sort().value();
  auto pos = [&](const std::string& id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  // The install prefix is strictly ordered.
  EXPECT_LT(pos("A"), pos("B"));
  EXPECT_LT(pos("B"), pos("C"));
  // Configuration happens after install, VNC startup last.
  EXPECT_LT(pos("C"), pos("D"));
  EXPECT_LT(pos("E"), pos("F"));
  EXPECT_LT(pos("G"), pos("H"));
  EXPECT_LT(pos("G"), pos("I"));
}

TEST(InVigoDagTest, GoldenHistoryIsTheBasePrefix) {
  const auto history = workload::invigo_golden_history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0], "install-os{distro=redhat-8.0}");
}

}  // namespace
}  // namespace vmp::dag
