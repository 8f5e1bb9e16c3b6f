#include "dag/matching.h"

#include <algorithm>
#include <limits>

namespace vmp::dag {

using util::Result;

namespace {
constexpr std::size_t kNotPerformed = std::numeric_limits<std::size_t>::max();
}  // namespace

Result<MatchIndex> MatchIndex::build(const ConfigDag& request) {
  MatchIndex index;
  index.ids_ = request.node_ids();
  index.signatures_.reserve(index.ids_.size());
  index.by_signature_.reserve(index.ids_.size());
  for (std::size_t i = 0; i < index.ids_.size(); ++i) {
    index.signatures_.push_back(request.action(index.ids_[i])->signature());
    if (!index.by_signature_.emplace(index.signatures_.back(), i).second) {
      return request.signature_index().propagate<MatchIndex>();
    }
  }
  index.predecessors_ = request.predecessor_indices();
  auto topo = request.topological_indices();
  if (!topo.ok()) return topo.propagate<MatchIndex>();
  index.topological_order_ = std::move(topo).value();
  return index;
}

MatchEvaluation MatchIndex::evaluate(
    const std::vector<std::string>& performed_signatures) const {
  MatchEvaluation eval;

  // -- Subset Test ----------------------------------------------------------
  // Every performed signature must name a node of the request DAG, and no
  // signature may repeat (an image cannot have performed the same action
  // twice for a DAG in which it appears once).  position[node] is the
  // node's place in the history.
  std::vector<std::size_t> performed_nodes;  // node indices, history order
  performed_nodes.reserve(performed_signatures.size());
  std::vector<std::size_t> position(ids_.size(), kNotPerformed);
  for (const std::string& sig : performed_signatures) {
    auto it = by_signature_.find(sig);
    if (it == by_signature_.end()) {
      eval.failure_reason =
          "subset test failed: image performed unrequested action '" + sig + "'";
      return eval;
    }
    if (position[it->second] != kNotPerformed) {
      eval.failure_reason =
          "subset test failed: image performed action '" + sig + "' twice";
      return eval;
    }
    position[it->second] = performed_nodes.size();
    performed_nodes.push_back(it->second);
  }
  eval.subset_ok = true;

  // -- Prefix Test ----------------------------------------------------------
  // The performed set must be downward-closed: every direct predecessor of
  // a performed node is performed.
  for (const std::size_t node : performed_nodes) {
    for (const std::size_t pred : predecessors_[node]) {
      if (position[pred] == kNotPerformed) {
        eval.failure_reason = "prefix test failed: image performed '" +
                              ids_[node] + "' without its predecessor '" +
                              ids_[pred] + "'";
        return eval;
      }
    }
  }
  eval.prefix_ok = true;

  // -- Partial Order Test ---------------------------------------------------
  // History order must refine the DAG partial order: every direct edge
  // between performed nodes points forward in the history.
  for (const std::size_t node : performed_nodes) {
    for (const std::size_t pred : predecessors_[node]) {
      if (position[pred] > position[node]) {
        eval.failure_reason = "partial order test failed: image performed '" +
                              ids_[node] + "' before its predecessor '" +
                              ids_[pred] + "'";
        return eval;
      }
    }
  }
  eval.partial_order_ok = true;

  // -- Plan the remaining suffix ---------------------------------------------
  eval.satisfied_nodes.reserve(performed_nodes.size());
  for (const std::size_t node : performed_nodes) {
    eval.satisfied_nodes.push_back(ids_[node]);
  }
  eval.remaining_plan.reserve(ids_.size() - performed_nodes.size());
  for (const std::size_t node : topological_order_) {
    if (position[node] == kNotPerformed) eval.remaining_plan.push_back(ids_[node]);
  }
  return eval;
}

Result<MatchEvaluation> evaluate_match(
    const ConfigDag& request,
    const std::vector<std::string>& performed_signatures) {
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
    ranked.push_back(RankedMatch{i, eval.satisfied_nodes.size(),
                                 eval.remaining_plan.size()});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedMatch& a, const RankedMatch& b) {
                     return a.satisfied_count > b.satisfied_count;
                   });
  return ranked;
}

}  // namespace vmp::dag
