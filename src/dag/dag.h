// The configuration DAG.
//
// A ConfigDag holds action nodes and precedence edges, plus the implicit
// START and FINISH nodes of the paper's Figure 3.  START/FINISH are managed
// by the class (every source node is an implicit successor of START, every
// sink an implicit predecessor of FINISH) so client code only names real
// actions.
//
// Beyond the container, this header exposes the graph algorithms the PPP
// depends on: cycle detection, deterministic topological sorting, ancestor
// closure, and per-node custom error-handling sub-graphs.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dag/action.h"
#include "util/error.h"

namespace vmp::dag {

class ConfigDag {
 public:
  ConfigDag() = default;
  ConfigDag(const ConfigDag& other);
  ConfigDag& operator=(const ConfigDag& other);
  ConfigDag(ConfigDag&&) = default;
  ConfigDag& operator=(ConfigDag&&) = default;

  // -- Construction ---------------------------------------------------------
  /// Add an action node.  Fails on duplicate id or empty id/operation.
  util::Status add_action(Action action);

  /// Add a precedence edge from->to.  Both nodes must exist; self-loops and
  /// duplicate edges are rejected.  (Cycles are detected by validate(), not
  /// here, so graphs can be built in any order.)
  util::Status add_edge(const std::string& from, const std::string& to);

  /// Attach a custom error-handling sub-graph to an action node (paper:
  /// "the client can also explicitly configure custom error-handling
  /// sub-graphs for action nodes").  The sub-graph must itself validate.
  util::Status set_error_subgraph(const std::string& action_id,
                                  ConfigDag subgraph);

  // -- Introspection --------------------------------------------------------
  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  bool has_action(const std::string& id) const;
  const Action* action(const std::string& id) const;

  /// Node ids in insertion order.
  const std::vector<std::string>& node_ids() const { return order_; }

  const std::set<std::string>& successors(const std::string& id) const;
  const std::set<std::string>& predecessors(const std::string& id) const;
  std::size_t edge_count() const;

  const ConfigDag* error_subgraph(const std::string& action_id) const;

  // -- Algorithms -----------------------------------------------------------
  /// Full validation: ids unique (guaranteed by construction), acyclic.
  /// Returns the offending cycle in the error message when cyclic.
  util::Status validate() const;

  /// Deterministic topological order: repeated in-order passes over the
  /// insertion order, each emitting every node whose predecessors are all
  /// emitted, so equal graphs built identically sort identically.  Computed
  /// in one O(V+E) Kahn traversal as the sort by (pass, insertion index),
  /// where a node's pass is the largest pass(p) + [p inserted after it]
  /// over its predecessors p (sources: pass 0).  Fails if the graph is
  /// cyclic, naming the first node in insertion order left unsorted.
  util::Result<std::vector<std::string>> topological_sort() const;

  /// topological_sort() as insertion indices (positions in node_ids()).
  util::Result<std::vector<std::size_t>> topological_indices() const;

  /// Direct predecessors of every node as insertion indices:
  /// entry i lists node_ids()[i]'s predecessors in id order.
  std::vector<std::vector<std::size_t>> predecessor_indices() const;

  /// All strict ancestors of `id` (every node with a path to `id`).
  std::set<std::string> ancestors(const std::string& id) const;

  /// All strict descendants of `id`.
  std::set<std::string> descendants(const std::string& id) const;

  /// True if the graph orders `before` strictly before `after`
  /// (i.e. `before` is an ancestor of `after`).
  bool orders_before(const std::string& before, const std::string& after) const;

  /// Signature -> node id map.  Fails if two nodes share a signature
  /// (matching requires signatures to identify actions uniquely).
  util::Result<std::map<std::string, std::string>> signature_index() const;

  /// Sum of nodes in this graph and all error sub-graphs (recursively).
  std::size_t total_nodes_with_subgraphs() const;

  bool operator==(const ConfigDag& other) const;

 private:
  struct Node {
    Action action;
    std::set<std::string> successors;
    std::set<std::string> predecessors;
    std::unique_ptr<ConfigDag> error_subgraph;
  };

  std::map<std::string, Node> nodes_;
  std::vector<std::string> order_;  // insertion order of node ids
};

/// Fluent builder for tests, examples, and the workload library:
///   auto dag = DagBuilder()
///       .guest("A", "install-os", {{"distro", "redhat-8.0"}})
///       .guest("B", "install-package", {{"package", "vnc-server"}})
///       .edge("A", "B")
///       .build();
class DagBuilder {
 public:
  DagBuilder& guest(const std::string& id, const std::string& operation,
                    std::map<std::string, std::string> params = {});
  DagBuilder& host(const std::string& id, const std::string& operation,
                   std::map<std::string, std::string> params = {});
  DagBuilder& action(Action a);
  DagBuilder& edge(const std::string& from, const std::string& to);
  /// Convenience: chain edges a->b->c->...
  DagBuilder& chain(const std::vector<std::string>& ids);
  DagBuilder& error_subgraph(const std::string& action_id, ConfigDag subgraph);

  /// Returns the built DAG; aborts the process on construction errors
  /// (builder misuse is a programming bug, not runtime input).
  ConfigDag build();

  /// Error-checking variant.
  util::Result<ConfigDag> try_build();

 private:
  ConfigDag dag_;
  util::Status first_error_;
};

}  // namespace vmp::dag
