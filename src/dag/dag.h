// The configuration DAG.
//
// A ConfigDag holds action nodes and precedence edges, plus the implicit
// START and FINISH nodes of the paper's Figure 3.  START/FINISH are managed
// by the class (every source node is an implicit successor of START, every
// sink an implicit predecessor of FINISH) so client code only names real
// actions.
//
// The graph is dense: nodes in one insertion-order vector, found by id or
// signature (computed once, on insertion) through flat hash indexes, with
// edges as index lists in id byte order.  Only mutators update state, so
// threads may share a const DAG.  The PPP's graph algorithms live here too:
// cycle detection, deterministic topological sorting, and per-node custom
// error-handling sub-graphs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dag/action.h"
#include "util/error.h"

namespace vmp::dag {

class ConfigDag {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  struct IdOf {  // node index -> id
    const std::string* ids = nullptr;
    const std::string& operator()(std::size_t node) const { return ids[node]; }
  };
  /// One node's successor or predecessor ids, in id byte order: a view,
  /// valid until the DAG is next modified.
  using IdRange = std::ranges::transform_view<std::span<const std::size_t>, IdOf>;

  // -- Construction ---------------------------------------------------------
  /// Make room for `nodes` nodes and `edges` edges in total.
  void reserve(std::size_t nodes, std::size_t edges = 0);

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
  bool has_action(const std::string& id) const { return index_of(id) != npos; }
  const Action* action(const std::string& id) const;

  /// Node ids in insertion order; a node's index is its position here.
  const std::vector<std::string>& node_ids() const { return ids_; }
  /// Action::signature() of every node, in insertion order.
  const std::vector<std::string>& signatures() const { return signatures_; }

  /// Index of the node with this id, or npos.
  std::size_t index_of(std::string_view id) const;
  /// Index of the first node with this signature, or npos.
  std::size_t index_of_signature(std::string_view signature) const;
  /// The ids of the given node indices, in the same order.
  std::vector<std::string> ids_at(std::span<const std::size_t> nodes) const;

  /// Empty for an unknown id.
  IdRange successors(const std::string& id) const {
    return id_range(id, &Node::successors);
  }
  IdRange predecessors(const std::string& id) const {
    return id_range(id, &Node::predecessors);
  }
  std::size_t edge_count() const { return edge_count_; }

  /// Direct predecessors of node `node` as indices, in id order.
  std::span<const std::size_t> predecessor_indices(std::size_t node) const {
    return edges(nodes_[node].predecessors);
  }

  const ConfigDag* error_subgraph(const std::string& action_id) const;

  // -- Algorithms -----------------------------------------------------------
  /// Full validation: acyclic (ids are unique by construction; error
  /// sub-graphs validate when attached).  Names a cycle node when cyclic.
  util::Status validate() const;

  /// Deterministic topological order: repeated in-order passes over the
  /// insertion order, each emitting every node whose predecessors are all
  /// emitted, so equal graphs built identically sort identically.  Computed
  /// in one O(V+E) Kahn traversal as the sort by (pass, insertion index),
  /// where a node's pass is the largest pass(p) + [p inserted after it]
  /// over its predecessors p (sources: pass 0).  Fails if the graph is
  /// cyclic, naming the first node in insertion order left unsorted.
  util::Result<std::vector<std::string>> topological_sort() const;

  /// topological_sort() as node indices.
  util::Result<std::vector<std::size_t>> topological_indices() const;

  /// Fails if two nodes share a signature (matching requires signatures to
  /// identify actions uniquely), naming the first repeat in insertion order.
  util::Status check_unique_signatures() const;

  /// Signature -> node id map; fails as check_unique_signatures() does.
  util::Result<std::map<std::string, std::string>> signature_index() const;

  /// Sum of nodes in this graph and all error sub-graphs (recursively).
  std::size_t total_nodes_with_subgraphs() const;

  bool operator==(const ConfigDag& other) const;

 private:
  struct EdgeList {  // edges_[begin, begin + size), room for `capacity`
    std::uint32_t begin = 0, size = 0, capacity = 0;
  };

  struct Node {
    Action action;
    EdgeList successors;    // id order
    EdgeList predecessors;  // id order
    std::size_t error_subgraph = npos;  // index into subgraphs_
  };

  std::span<const std::size_t> edges(const EdgeList& list) const {
    return {edges_.data() + list.begin, list.size};
  }
  IdRange id_range(const std::string& id, EdgeList Node::*list) const;
  /// Insert `node` into an id-ordered edge list; false if present.
  bool insert_by_id(EdgeList* list, std::size_t node);

  std::vector<Node> nodes_;
  std::vector<std::size_t> edges_;  // every node's edge lists, pooled
  std::vector<ConfigDag> subgraphs_;  // error sub-graphs, owned (deep copies)
  std::vector<std::string> ids_;
  std::vector<std::string> signatures_;
  std::vector<std::uint32_t> id_slots_;         // id -> index (see dag.cpp)
  std::vector<std::uint32_t> signature_slots_;  // -> first node with it
  std::size_t duplicate_signature_ = npos;  // first node repeating one
  std::size_t edge_count_ = 0;
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
