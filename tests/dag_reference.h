// Reference graph code for the DAG tests.
//
// * ancestors / descendants / orders_before: string-set closures over a
//   ConfigDag, which the library itself does not need.
// * MapDag: the string-keyed ConfigDag the dense one replaced — a
//   std::map<std::string, Node> with std::set edges, the repeated-pass
//   topological sort and the direct-edge matcher over that map.  It is the
//   oracle the differential tests compare the dense ConfigDag against.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dag/dag.h"
#include "util/error.h"
#include "xml/xml.h"

namespace vmp::dag_reference {

/// All strict ancestors of `id` (every node with a path to `id`).
inline std::set<std::string> ancestors(const dag::ConfigDag& d,
                                       const std::string& id) {
  std::set<std::string> out;
  std::deque<std::string> frontier(d.predecessors(id).begin(),
                                   d.predecessors(id).end());
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    if (!out.insert(current).second) continue;
    for (const std::string& pred : d.predecessors(current)) {
      if (!out.count(pred)) frontier.push_back(pred);
    }
  }
  return out;
}

/// All strict descendants of `id`.
inline std::set<std::string> descendants(const dag::ConfigDag& d,
                                         const std::string& id) {
  std::set<std::string> out;
  std::deque<std::string> frontier(d.successors(id).begin(),
                                   d.successors(id).end());
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    if (!out.insert(current).second) continue;
    for (const std::string& succ : d.successors(current)) {
      if (!out.count(succ)) frontier.push_back(succ);
    }
  }
  return out;
}

/// True if the graph orders `before` strictly before `after`.
inline bool orders_before(const dag::ConfigDag& d, const std::string& before,
                          const std::string& after) {
  return ancestors(d, after).count(before) != 0;
}

/// A match outcome with node ids (MatchEvaluation with its indices named).
struct IdEvaluation {
  bool subset_ok = false;
  bool prefix_ok = false;
  bool partial_order_ok = false;
  bool matches() const { return subset_ok && prefix_ok && partial_order_ok; }
  std::vector<std::string> satisfied_nodes;
  std::vector<std::string> remaining_plan;
  std::string failure_reason;
};

class MapDag {
 public:
  util::Status add_action(dag::Action action) {
    using util::ErrorCode;
    if (action.id().empty()) {
      return util::Status(ErrorCode::kInvalidArgument,
                          "action id must not be empty");
    }
    if (action.operation().empty()) {
      return util::Status(
          ErrorCode::kInvalidArgument,
          "action operation must not be empty (id=" + action.id() + ")");
    }
    if (action.id() == "START" || action.id() == "FINISH") {
      return util::Status(ErrorCode::kInvalidArgument,
                          "START/FINISH are reserved node ids");
    }
    if (nodes_.count(action.id())) {
      return util::Status(ErrorCode::kAlreadyExists,
                          "duplicate action id: " + action.id());
    }
    order_.push_back(action.id());
    nodes_[order_.back()].action = std::move(action);
    return util::Status();
  }

  util::Status add_edge(const std::string& from, const std::string& to) {
    using util::ErrorCode;
    if (from == to) {
      return util::Status(ErrorCode::kInvalidArgument, "self-loop on " + from);
    }
    auto from_it = nodes_.find(from);
    auto to_it = nodes_.find(to);
    if (from_it == nodes_.end()) {
      return util::Status(ErrorCode::kNotFound, "edge source not found: " + from);
    }
    if (to_it == nodes_.end()) {
      return util::Status(ErrorCode::kNotFound, "edge target not found: " + to);
    }
    if (!from_it->second.successors.insert(to).second) {
      return util::Status(ErrorCode::kAlreadyExists,
                          "duplicate edge " + from + " -> " + to);
    }
    to_it->second.predecessors.insert(from);
    return util::Status();
  }

  util::Status set_error_subgraph(const std::string& action_id,
                                  MapDag subgraph) {
    auto it = nodes_.find(action_id);
    if (it == nodes_.end()) {
      return util::Status(util::ErrorCode::kNotFound,
                          "no action for error sub-graph: " + action_id);
    }
    util::Status valid = subgraph.validate();
    if (!valid.ok()) return valid;
    it->second.error_subgraph = std::make_shared<MapDag>(std::move(subgraph));
    return util::Status();
  }

  /// Repeated in-order passes, each emitting every node whose predecessors
  /// are all emitted; on no progress, names the first unemitted node.
  util::Result<std::vector<std::string>> topological_sort() const {
    std::map<std::string, std::size_t> in_degree;
    for (const auto& [id, node] : nodes_) {
      in_degree[id] = node.predecessors.size();
    }
    std::vector<std::string> result;
    std::set<std::string> emitted;
    while (result.size() < order_.size()) {
      bool progressed = false;
      for (const std::string& id : order_) {
        if (emitted.count(id) || in_degree[id] != 0) continue;
        result.push_back(id);
        emitted.insert(id);
        for (const std::string& succ : nodes_.at(id).successors) {
          --in_degree[succ];
        }
        progressed = true;
      }
      if (!progressed) {
        std::string member;
        for (const std::string& id : order_) {
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

  util::Status validate() const {
    auto sorted = topological_sort();
    return sorted.ok() ? util::Status() : util::Status(sorted.error());
  }

  util::Result<std::map<std::string, std::string>> signature_index() const {
    std::map<std::string, std::string> index;
    for (const std::string& id : order_) {
      const std::string sig = nodes_.at(id).action.signature();
      auto [it, inserted] = index.emplace(sig, id);
      if (!inserted) {
        return util::Result<std::map<std::string, std::string>>(util::Error(
            util::ErrorCode::kInvalidArgument,
            "duplicate action signature '" + sig + "' (nodes '" + it->second +
                "' and '" + id + "'); matching requires unique signatures"));
      }
    }
    return index;
  }

  /// The <dag> wire form: actions in insertion order, then each node's
  /// edges in successor id order.
  std::string to_xml_string() const {
    xml::Element wrapper("wrapper");
    to_xml(&wrapper);
    return wrapper.children().front().to_string();
  }

  /// Subset by signature, then Prefix and Partial Order over direct
  /// predecessors in id order, then the unperformed nodes in topological
  /// order.
  util::Result<IdEvaluation> evaluate(
      const std::vector<std::string>& performed) const {
    auto index = signature_index();
    if (!index.ok()) return index.propagate<IdEvaluation>();
    auto topo = topological_sort();
    if (!topo.ok()) return topo.propagate<IdEvaluation>();
    IdEvaluation eval;
    std::vector<std::string> nodes;
    std::map<std::string, std::size_t> position;
    for (const std::string& sig : performed) {
      auto it = index.value().find(sig);
      if (it == index.value().end()) {
        eval.failure_reason =
            "subset test failed: image performed unrequested action '" + sig +
            "'";
        return eval;
      }
      if (!position.emplace(it->second, nodes.size()).second) {
        eval.failure_reason =
            "subset test failed: image performed action '" + sig + "' twice";
        return eval;
      }
      nodes.push_back(it->second);
    }
    eval.subset_ok = true;
    for (const std::string& node : nodes) {
      for (const std::string& pred : nodes_.at(node).predecessors) {
        if (!position.count(pred)) {
          eval.failure_reason = "prefix test failed: image performed '" + node +
                                "' without its predecessor '" + pred + "'";
          return eval;
        }
      }
    }
    eval.prefix_ok = true;
    for (const std::string& node : nodes) {
      for (const std::string& pred : nodes_.at(node).predecessors) {
        if (position.at(pred) > position.at(node)) {
          eval.failure_reason = "partial order test failed: image performed '" +
                                node + "' before its predecessor '" + pred +
                                "'";
          return eval;
        }
      }
    }
    eval.partial_order_ok = true;
    eval.satisfied_nodes = nodes;
    for (const std::string& id : topo.value()) {
      if (!position.count(id)) eval.remaining_plan.push_back(id);
    }
    return eval;
  }

 private:
  struct Node {
    dag::Action action;
    std::set<std::string> successors;
    std::set<std::string> predecessors;
    std::shared_ptr<MapDag> error_subgraph;
  };

  void to_xml(xml::Element* parent) const {
    xml::Element& root = parent->add_child("dag");
    for (const std::string& id : order_) {
      const Node& n = nodes_.at(id);
      const dag::Action& a = n.action;
      xml::Element& node = root.add_child("action");
      node.set_attr("id", a.id());
      node.set_attr("op", a.operation());
      node.set_attr("scope", dag::action_scope_name(a.scope()));
      if (a.error_policy() != dag::ErrorPolicy::kAbort) {
        node.set_attr("on-error", dag::error_policy_name(a.error_policy()));
      }
      if (a.max_retries() > 0) {
        node.set_attr("max-retries", std::to_string(a.max_retries()));
      }
      for (const auto& [key, value] : a.params()) {
        xml::Element& p = node.add_child("param");
        p.set_attr("name", key);
        p.set_text(value);
      }
      if (!a.script().empty()) node.add_child("script").set_text(a.script());
      if (n.error_subgraph) n.error_subgraph->to_xml(&node.add_child("error-dag"));
    }
    for (const std::string& id : order_) {
      for (const std::string& succ : nodes_.at(id).successors) {
        xml::Element& e = root.add_child("edge");
        e.set_attr("from", id);
        e.set_attr("to", succ);
      }
    }
  }

  std::map<std::string, Node> nodes_;
  std::vector<std::string> order_;
};

}  // namespace vmp::dag_reference
