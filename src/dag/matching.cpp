#include "dag/matching.h"

#include <algorithm>
#include <limits>

namespace vmp::dag {

using util::Result;

namespace {
constexpr std::size_t kNotPerformed = std::numeric_limits<std::size_t>::max();
}  // namespace

Result<MatchIndex> MatchIndex::build(const ConfigDag& request) {
  VMP_RETURN_IF_ERROR_AS(request.check_unique_signatures(), MatchIndex);
  auto topo = request.topological_indices();
  if (!topo.ok()) return topo.propagate<MatchIndex>();
  MatchIndex index(&request);
  index.topological_order_ = std::move(topo).value();
  return index;
}

MatchEvaluation MatchIndex::evaluate(
    std::span<const std::string> performed_signatures) const {
  const std::vector<std::string>& ids = dag_->node_ids();
  MatchEvaluation eval;

  // -- Subset Test ----------------------------------------------------------
  // Every performed signature must name a node of the request DAG, and no
  // signature may repeat (an image cannot have performed the same action
  // twice for a DAG in which it appears once).  position[node] is the
  // node's place in the history.
  std::vector<std::size_t> performed_nodes;  // node indices, history order
  performed_nodes.reserve(performed_signatures.size());
  std::vector<std::size_t> position(ids.size(), kNotPerformed);
  for (const std::string& sig : performed_signatures) {
    const std::size_t node = dag_->index_of_signature(sig);
    if (node == ConfigDag::npos) {
      eval.failure_reason =
          "subset test failed: image performed unrequested action '" + sig + "'";
      return eval;
    }
    if (position[node] != kNotPerformed) {
      eval.failure_reason =
          "subset test failed: image performed action '" + sig + "' twice";
      return eval;
    }
    position[node] = performed_nodes.size();
    performed_nodes.push_back(node);
  }
  eval.subset_ok = true;

  // -- Prefix Test ----------------------------------------------------------
  // The performed set must be downward-closed: every direct predecessor of
  // a performed node is performed.
  for (const std::size_t node : performed_nodes) {
    for (const std::size_t pred : dag_->predecessor_indices(node)) {
      if (position[pred] == kNotPerformed) {
        eval.failure_reason = "prefix test failed: image performed '" +
                              ids[node] + "' without its predecessor '" +
                              ids[pred] + "'";
        return eval;
      }
    }
  }
  eval.prefix_ok = true;

  // -- Partial Order Test ---------------------------------------------------
  // History order must refine the DAG partial order: every direct edge
  // between performed nodes points forward in the history.
  for (const std::size_t node : performed_nodes) {
    for (const std::size_t pred : dag_->predecessor_indices(node)) {
      if (position[pred] > position[node]) {
        eval.failure_reason = "partial order test failed: image performed '" +
                              ids[node] + "' before its predecessor '" +
                              ids[pred] + "'";
        return eval;
      }
    }
  }
  eval.partial_order_ok = true;

  // -- Plan the remaining suffix ---------------------------------------------
  eval.remaining.reserve(ids.size() - performed_nodes.size());
  for (const std::size_t node : topological_order_) {
    if (position[node] == kNotPerformed) eval.remaining.push_back(node);
  }
  eval.satisfied = std::move(performed_nodes);
  return eval;
}

Result<MatchEvaluation> evaluate_match(
    const ConfigDag& request,
    std::span<const std::string> performed_signatures) {
  auto index = MatchIndex::build(request);
  if (!index.ok()) return index.propagate<MatchEvaluation>();
  return index.value().evaluate(performed_signatures);
}

Result<std::vector<RankedMatch>> rank_matches(
    const ConfigDag& request,
    const std::vector<std::vector<std::string>>& image_histories) {
  std::vector<RankedMatch> ranked;
  // No image to rank: no error either, even for a DAG that cannot compile.
  if (image_histories.empty()) return ranked;
  auto index = MatchIndex::build(request);
  if (!index.ok()) return index.propagate<std::vector<RankedMatch>>();
  for (std::size_t i = 0; i < image_histories.size(); ++i) {
    MatchEvaluation eval = index.value().evaluate(image_histories[i]);
    if (!eval.matches()) continue;
    ranked.push_back(
        RankedMatch{i, eval.satisfied.size(), eval.remaining.size()});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedMatch& a, const RankedMatch& b) {
                     return a.satisfied_count > b.satisfied_count;
                   });
  return ranked;
}

}  // namespace vmp::dag
