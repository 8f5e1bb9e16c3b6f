#include "dag/dag.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <deque>
#include <functional>
#include <string_view>

#include "util/logging.h"
#include "util/strings.h"

namespace vmp::dag {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

ConfigDag::ConfigDag(const ConfigDag& other) { *this = other; }

ConfigDag& ConfigDag::operator=(const ConfigDag& other) {
  if (this == &other) return *this;
  nodes_.clear();
  order_ = other.order_;
  for (const auto& [id, node] : other.nodes_) {
    Node copy;
    copy.action = node.action;
    copy.successors = node.successors;
    copy.predecessors = node.predecessors;
    if (node.error_subgraph) {
      copy.error_subgraph = std::make_unique<ConfigDag>(*node.error_subgraph);
    }
    nodes_.emplace(id, std::move(copy));
  }
  return *this;
}

Status ConfigDag::add_action(Action action) {
  if (action.id().empty()) {
    return Status(ErrorCode::kInvalidArgument, "action id must not be empty");
  }
  if (action.operation().empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "action operation must not be empty (id=" + action.id() + ")");
  }
  if (action.id() == "START" || action.id() == "FINISH") {
    return Status(ErrorCode::kInvalidArgument,
                  "START/FINISH are reserved node ids");
  }
  if (nodes_.count(action.id())) {
    return Status(ErrorCode::kAlreadyExists,
                  "duplicate action id: " + action.id());
  }
  order_.push_back(action.id());
  Node node;
  node.action = std::move(action);
  nodes_.emplace(order_.back(), std::move(node));
  return Status();
}

Status ConfigDag::add_edge(const std::string& from, const std::string& to) {
  if (from == to) {
    return Status(ErrorCode::kInvalidArgument, "self-loop on " + from);
  }
  auto from_it = nodes_.find(from);
  auto to_it = nodes_.find(to);
  if (from_it == nodes_.end()) {
    return Status(ErrorCode::kNotFound, "edge source not found: " + from);
  }
  if (to_it == nodes_.end()) {
    return Status(ErrorCode::kNotFound, "edge target not found: " + to);
  }
  if (from_it->second.successors.count(to)) {
    return Status(ErrorCode::kAlreadyExists,
                  "duplicate edge " + from + " -> " + to);
  }
  from_it->second.successors.insert(to);
  to_it->second.predecessors.insert(from);
  return Status();
}

Status ConfigDag::set_error_subgraph(const std::string& action_id,
                                     ConfigDag subgraph) {
  auto it = nodes_.find(action_id);
  if (it == nodes_.end()) {
    return Status(ErrorCode::kNotFound,
                  "no action for error sub-graph: " + action_id);
  }
  VMP_RETURN_IF_ERROR(subgraph.validate());
  it->second.error_subgraph = std::make_unique<ConfigDag>(std::move(subgraph));
  return Status();
}

bool ConfigDag::has_action(const std::string& id) const {
  return nodes_.count(id) != 0;
}

const Action* ConfigDag::action(const std::string& id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second.action;
}

const std::set<std::string>& ConfigDag::successors(const std::string& id) const {
  static const std::set<std::string> kEmpty;
  auto it = nodes_.find(id);
  return it == nodes_.end() ? kEmpty : it->second.successors;
}

const std::set<std::string>& ConfigDag::predecessors(
    const std::string& id) const {
  static const std::set<std::string> kEmpty;
  auto it = nodes_.find(id);
  return it == nodes_.end() ? kEmpty : it->second.predecessors;
}

std::size_t ConfigDag::edge_count() const {
  std::size_t n = 0;
  for (const auto& [id, node] : nodes_) n += node.successors.size();
  return n;
}

const ConfigDag* ConfigDag::error_subgraph(const std::string& action_id) const {
  auto it = nodes_.find(action_id);
  return it == nodes_.end() ? nullptr : it->second.error_subgraph.get();
}

namespace {
/// Node id -> position in the insertion order: open addressing over views
/// of the ids, in one allocation (the ids must outlive the index).
class IdIndex {
 public:
  explicit IdIndex(const std::vector<std::string>& order)
      : slots_(std::bit_ceil(2 * order.size() + 1)) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      slots_[probe(order[i])] = {order[i], i};
    }
  }

  /// Position of an id that is in the index.
  std::size_t at(std::string_view id) const { return slots_[probe(id)].second; }

 private:
  std::size_t probe(std::string_view id) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = std::hash<std::string_view>{}(id) & mask;
    while (slots_[slot].first.data() != nullptr && slots_[slot].first != id) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  std::vector<std::pair<std::string_view, std::size_t>> slots_;
};
}  // namespace

std::vector<std::vector<std::size_t>> ConfigDag::predecessor_indices() const {
  const IdIndex index(order_);
  std::vector<std::vector<std::size_t>> preds(order_.size());
  for (const auto& [id, node] : nodes_) {
    std::vector<std::size_t>& out = preds[index.at(id)];
    out.reserve(node.predecessors.size());
    for (const std::string& pred : node.predecessors) {
      out.push_back(index.at(pred));
    }
  }
  return preds;
}

Result<std::vector<std::size_t>> ConfigDag::topological_indices() const {
  // Kahn's algorithm in any order computes each node's pass (see dag.h);
  // a counting sort by pass over insertion order then yields the order
  // the repeated-pass scan would emit.  Successors are held in compressed
  // rows: node i's are succs[row[i] .. row[i + 1]).
  const IdIndex index(order_);
  const std::size_t n = order_.size();
  std::vector<std::size_t> row(n + 1, 0);
  std::vector<std::size_t> in_degree(n);
  for (const auto& [id, node] : nodes_) {
    const std::size_t i = index.at(id);
    row[i + 1] = node.successors.size();
    in_degree[i] = node.predecessors.size();
  }
  for (std::size_t i = 0; i < n; ++i) row[i + 1] += row[i];
  std::vector<std::size_t> succs(row[n]);
  for (const auto& [id, node] : nodes_) {
    std::size_t next = row[index.at(id)];
    for (const std::string& succ : node.successors) {
      succs[next++] = index.at(succ);
    }
  }

  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) ready.push_back(i);
  }
  std::vector<std::size_t> pass(n, 0);
  std::size_t emitted = 0;
  std::size_t max_pass = 0;
  while (!ready.empty()) {
    const std::size_t node = ready.back();
    ready.pop_back();
    ++emitted;
    max_pass = std::max(max_pass, pass[node]);
    for (std::size_t k = row[node]; k < row[node + 1]; ++k) {
      const std::size_t succ = succs[k];
      pass[succ] = std::max(pass[succ], pass[node] + (node > succ ? 1 : 0));
      if (--in_degree[succ] == 0) ready.push_back(succ);
    }
  }
  if (emitted < n) {
    // Cycle members never reach in-degree 0.  Name the first in order.
    const std::size_t member = static_cast<std::size_t>(
        std::find_if(in_degree.begin(), in_degree.end(),
                     [](std::size_t d) { return d != 0; }) -
        in_degree.begin());
    return Result<std::vector<std::size_t>>(
        Error(ErrorCode::kInvalidArgument,
              "configuration DAG contains a cycle through '" +
                  order_[member] + "'"));
  }
  std::vector<std::size_t> bucket_start(max_pass + 2, 0);
  for (std::size_t i = 0; i < n; ++i) ++bucket_start[pass[i] + 1];
  for (std::size_t p = 1; p < bucket_start.size(); ++p) {
    bucket_start[p] += bucket_start[p - 1];
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[bucket_start[pass[i]]++] = i;
  return order;
}

Result<std::vector<std::string>> ConfigDag::topological_sort() const {
  auto indices = topological_indices();
  if (!indices.ok()) return indices.propagate<std::vector<std::string>>();
  std::vector<std::string> result;
  result.reserve(indices.value().size());
  for (const std::size_t i : indices.value()) result.push_back(order_[i]);
  return result;
}

Status ConfigDag::validate() const {
  auto sorted = topological_sort();
  if (!sorted.ok()) return sorted.error();
  // Validate error sub-graphs recursively.
  for (const auto& [id, node] : nodes_) {
    if (node.error_subgraph) {
      Status s = node.error_subgraph->validate();
      if (!s.ok()) {
        return Status(s.error().code(),
                      "error sub-graph of '" + id + "': " + s.error().message());
      }
    }
  }
  return Status();
}

std::set<std::string> ConfigDag::ancestors(const std::string& id) const {
  std::set<std::string> out;
  std::deque<std::string> frontier(predecessors(id).begin(),
                                   predecessors(id).end());
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    if (!out.insert(current).second) continue;
    for (const std::string& pred : predecessors(current)) {
      if (!out.count(pred)) frontier.push_back(pred);
    }
  }
  return out;
}

std::set<std::string> ConfigDag::descendants(const std::string& id) const {
  std::set<std::string> out;
  std::deque<std::string> frontier(successors(id).begin(),
                                   successors(id).end());
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    if (!out.insert(current).second) continue;
    for (const std::string& succ : successors(current)) {
      if (!out.count(succ)) frontier.push_back(succ);
    }
  }
  return out;
}

bool ConfigDag::orders_before(const std::string& before,
                              const std::string& after) const {
  return ancestors(after).count(before) != 0;
}

Result<std::map<std::string, std::string>> ConfigDag::signature_index() const {
  std::map<std::string, std::string> index;
  for (const std::string& id : order_) {
    const std::string sig = nodes_.at(id).action.signature();
    auto [it, inserted] = index.emplace(sig, id);
    if (!inserted) {
      return Result<std::map<std::string, std::string>>(Error(
          ErrorCode::kInvalidArgument,
          "duplicate action signature '" + sig + "' (nodes '" + it->second +
              "' and '" + id + "'); matching requires unique signatures"));
    }
  }
  return index;
}

std::size_t ConfigDag::total_nodes_with_subgraphs() const {
  std::size_t n = nodes_.size();
  for (const auto& [id, node] : nodes_) {
    if (node.error_subgraph) n += node.error_subgraph->total_nodes_with_subgraphs();
  }
  return n;
}

bool ConfigDag::operator==(const ConfigDag& other) const {
  if (order_ != other.order_) return false;
  for (const auto& [id, node] : nodes_) {
    auto it = other.nodes_.find(id);
    if (it == other.nodes_.end()) return false;
    const Node& theirs = it->second;
    if (node.action.signature() != theirs.action.signature() ||
        node.action.scope() != theirs.action.scope() ||
        node.action.script() != theirs.action.script() ||
        node.successors != theirs.successors) {
      return false;
    }
    const bool mine_has = node.error_subgraph != nullptr;
    const bool theirs_has = theirs.error_subgraph != nullptr;
    if (mine_has != theirs_has) return false;
    if (mine_has && !(*node.error_subgraph == *theirs.error_subgraph)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// DagBuilder
// ---------------------------------------------------------------------------

namespace {
void record(util::Status* first_error, util::Status status) {
  if (first_error->ok() && !status.ok()) *first_error = std::move(status);
}
}  // namespace

DagBuilder& DagBuilder::guest(const std::string& id,
                              const std::string& operation,
                              std::map<std::string, std::string> params) {
  Action a(id, operation, ActionScope::kGuest);
  for (auto& [k, v] : params) a.set_param(k, std::move(v));
  return action(std::move(a));
}

DagBuilder& DagBuilder::host(const std::string& id,
                             const std::string& operation,
                             std::map<std::string, std::string> params) {
  Action a(id, operation, ActionScope::kHost);
  for (auto& [k, v] : params) a.set_param(k, std::move(v));
  return action(std::move(a));
}

DagBuilder& DagBuilder::action(Action a) {
  record(&first_error_, dag_.add_action(std::move(a)));
  return *this;
}

DagBuilder& DagBuilder::edge(const std::string& from, const std::string& to) {
  record(&first_error_, dag_.add_edge(from, to));
  return *this;
}

DagBuilder& DagBuilder::chain(const std::vector<std::string>& ids) {
  for (std::size_t i = 1; i < ids.size(); ++i) {
    edge(ids[i - 1], ids[i]);
  }
  return *this;
}

DagBuilder& DagBuilder::error_subgraph(const std::string& action_id,
                                       ConfigDag subgraph) {
  record(&first_error_, dag_.set_error_subgraph(action_id, std::move(subgraph)));
  return *this;
}

ConfigDag DagBuilder::build() {
  auto result = try_build();
  if (!result.ok()) {
    util::Logger("dag-builder").error()
        << "build failed: " << result.error().to_string();
    std::abort();
  }
  return std::move(result).value();
}

Result<ConfigDag> DagBuilder::try_build() {
  if (!first_error_.ok()) return first_error_.propagate<ConfigDag>();
  Status valid = dag_.validate();
  if (!valid.ok()) return valid.propagate<ConfigDag>();
  return std::move(dag_);
}

}  // namespace vmp::dag
