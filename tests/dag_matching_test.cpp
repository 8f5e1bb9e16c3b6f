// Tests for the PPP's partial-matching algorithm: the Subset, Prefix, and
// Partial Order tests of paper Section 3.2, including the Figure 3 example.
#include <gtest/gtest.h>

#include "dag/matching.h"
#include "workload/dag_library.h"

namespace vmp::dag {
namespace {

/// Signature helper: look up a node's signature in a DAG.
std::string sig(const ConfigDag& d, const std::string& id) {
  return d.action(id)->signature();
}

ConfigDag chain_dag() {
  // A -> B -> C
  return DagBuilder()
      .guest("A", "install-os", {{"distro", "r8"}})
      .guest("B", "install-package", {{"package", "vnc"}})
      .guest("C", "install-package", {{"package", "wfm"}})
      .chain({"A", "B", "C"})
      .build();
}

ConfigDag diamond_dag() {
  // A -> {B, C} -> D (B and C incomparable)
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

// -- Subset test ---------------------------------------------------------------

TEST(SubsetTest, EmptyHistoryAlwaysMatches) {
  auto eval = evaluate_match(chain_dag(), {});
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval.value().matches());
  EXPECT_TRUE(eval.value().satisfied.empty());
  EXPECT_EQ(eval.value().remaining.size(), 3u);
}

TEST(SubsetTest, UnrequestedActionFails) {
  ConfigDag d = chain_dag();
  auto eval = evaluate_match(d, {sig(d, "A"), "install-package{package=emacs}"});
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval.value().matches());
  EXPECT_FALSE(eval.value().subset_ok);
  EXPECT_NE(eval.value().failure_reason.find("subset"), std::string::npos);
}

TEST(SubsetTest, RepeatedActionFails) {
  ConfigDag d = chain_dag();
  auto eval = evaluate_match(d, {sig(d, "A"), sig(d, "A")});
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval.value().subset_ok);
}

TEST(SubsetTest, FullHistoryMatchesWithEmptyPlan) {
  ConfigDag d = chain_dag();
  auto eval = evaluate_match(d, {sig(d, "A"), sig(d, "B"), sig(d, "C")});
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval.value().matches());
  EXPECT_TRUE(eval.value().remaining.empty());
}

// -- Prefix test ----------------------------------------------------------------

TEST(PrefixTest, HistoryMustBeDownwardClosed) {
  ConfigDag d = chain_dag();
  // B performed without its predecessor A.
  auto eval = evaluate_match(d, {sig(d, "B")});
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval.value().subset_ok);
  EXPECT_FALSE(eval.value().prefix_ok);
  EXPECT_NE(eval.value().failure_reason.find("prefix"), std::string::npos);
}

TEST(PrefixTest, IncomparableBranchAloneIsFine) {
  ConfigDag d = diamond_dag();
  // A then C (skipping B) is downward-closed: C's only ancestor is A.
  auto eval = evaluate_match(d, {sig(d, "A"), sig(d, "C")});
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval.value().matches());
  EXPECT_EQ(d.ids_at(eval.value().remaining),
            (std::vector<std::string>{"B", "D"}));
}

TEST(PrefixTest, DeepMissingAncestorDetected) {
  ConfigDag d = diamond_dag();
  // D performed with B but not C (C is also an ancestor of D).
  auto eval = evaluate_match(d, {sig(d, "A"), sig(d, "B"), sig(d, "D")});
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval.value().prefix_ok);
}

// -- Partial order test ------------------------------------------------------------

TEST(PartialOrderTest, HistoryOrderMustRefineDagOrder) {
  ConfigDag d = chain_dag();
  // Both A and B performed, but recorded in the wrong order.
  auto eval = evaluate_match(d, {sig(d, "B"), sig(d, "A")});
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval.value().subset_ok);
  EXPECT_TRUE(eval.value().prefix_ok);  // both sets closed
  EXPECT_FALSE(eval.value().partial_order_ok);
  EXPECT_NE(eval.value().failure_reason.find("partial order"),
            std::string::npos);
}

TEST(PartialOrderTest, IncomparableActionsMayAppearInAnyOrder) {
  ConfigDag d = diamond_dag();
  auto bc = evaluate_match(d, {sig(d, "A"), sig(d, "B"), sig(d, "C")});
  auto cb = evaluate_match(d, {sig(d, "A"), sig(d, "C"), sig(d, "B")});
  ASSERT_TRUE(bc.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_TRUE(bc.value().matches());
  EXPECT_TRUE(cb.value().matches());
}

// -- Remaining plan validity ----------------------------------------------------------

TEST(RemainingPlanTest, PlanIsAValidLinearExtension) {
  ConfigDag d = diamond_dag();
  auto eval = evaluate_match(d, {sig(d, "A")});
  ASSERT_TRUE(eval.ok());
  const std::vector<std::string> plan = d.ids_at(eval.value().remaining);
  ASSERT_EQ(plan.size(), 3u);
  // D must come after both B and C in the plan.
  EXPECT_EQ(plan.back(), "D");
}

TEST(RemainingPlanTest, PlanDisjointFromSatisfied) {
  ConfigDag d = diamond_dag();
  auto eval = evaluate_match(d, {sig(d, "A"), sig(d, "B")});
  ASSERT_TRUE(eval.ok());
  for (const auto& id : d.ids_at(eval.value().remaining)) {
    for (const auto& done : d.ids_at(eval.value().satisfied)) {
      EXPECT_NE(id, done);
    }
  }
  EXPECT_EQ(eval.value().satisfied.size() + eval.value().remaining.size(),
            d.size());
}

// -- Ranking ---------------------------------------------------------------------------

TEST(RankMatchesTest, PrefersMostSatisfiedActions) {
  ConfigDag d = chain_dag();
  std::vector<std::vector<std::string>> images{
      {},                                      // blank
      {sig(d, "A")},                           // 1 action
      {sig(d, "A"), sig(d, "B")},              // 2 actions  <- best
      {sig(d, "B")},                           // fails prefix
  };
  auto ranked = rank_matches(d, images);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked.value().size(), 3u);
  EXPECT_EQ(ranked.value()[0].image_index, 2u);
  EXPECT_EQ(ranked.value()[0].satisfied_count, 2u);
  EXPECT_EQ(ranked.value()[0].remaining_count, 1u);
  EXPECT_EQ(ranked.value()[1].image_index, 1u);
  EXPECT_EQ(ranked.value()[2].image_index, 0u);
}

TEST(RankMatchesTest, StableOnTies) {
  ConfigDag d = chain_dag();
  std::vector<std::vector<std::string>> images{
      {sig(d, "A")},
      {sig(d, "A")},
  };
  auto ranked = rank_matches(d, images);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked.value().size(), 2u);
  EXPECT_EQ(ranked.value()[0].image_index, 0u);
  EXPECT_EQ(ranked.value()[1].image_index, 1u);
}

TEST(RankMatchesTest, DuplicateSignatureInRequestIsAnError) {
  ConfigDag d;
  ASSERT_TRUE(d.add_action(Action("A", "op")).ok());
  ASSERT_TRUE(d.add_action(Action("B", "op")).ok());
  EXPECT_FALSE(rank_matches(d, {{}}).ok());
}

// -- The paper's Figure 3 example ---------------------------------------------------------

TEST(Figure3Test, GoldenWorkspaceSatisfiesBasePrefix) {
  workload::WorkspaceParams params;
  ConfigDag request = workload::invigo_workspace_dag(params);
  auto eval = evaluate_match(request, workload::invigo_golden_history());
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval.value().matches());
  EXPECT_EQ(request.ids_at(eval.value().satisfied),
            (std::vector<std::string>{"A", "B", "C"}));
  // D..I remain: the paper's per-instance configuration actions.
  EXPECT_EQ(eval.value().remaining.size(), 6u);
  EXPECT_EQ(request.ids_at(eval.value().remaining).front(), "D");
}

TEST(Figure3Test, WorkspaceWithDifferentUserStillMatchesGolden) {
  // The golden prefix (A,B,C) carries no user-specific parameters, so any
  // user's workspace request matches the same cached image.
  workload::WorkspaceParams alice;
  alice.user = "alice";
  alice.ip = "10.1.2.3";
  ConfigDag request = workload::invigo_workspace_dag(alice);
  auto eval = evaluate_match(request, workload::invigo_golden_history());
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval.value().matches());
}

TEST(Figure3Test, ImageWithUserBakedInDoesNotMatchOtherUsers) {
  // An image checkpointed after creating user "arijit" fails the Subset
  // test for a request configuring user "alice".
  workload::WorkspaceParams arijit;  // default user "arijit"
  ConfigDag arijit_dag = workload::invigo_workspace_dag(arijit);
  std::vector<std::string> history = workload::invigo_golden_history();
  history.push_back(sig(arijit_dag, "D"));
  history.push_back(sig(arijit_dag, "E"));  // create-user{name=arijit}

  workload::WorkspaceParams alice;
  alice.user = "alice";
  // Use the same ip/mac so only the user differs.
  ConfigDag alice_dag = workload::invigo_workspace_dag(alice);
  auto eval = evaluate_match(alice_dag, history);
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval.value().matches());
  EXPECT_FALSE(eval.value().subset_ok);
}

}  // namespace
}  // namespace vmp::dag
