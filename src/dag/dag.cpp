#include "dag/dag.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <functional>

#include "util/logging.h"

namespace vmp::dag {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {
// Open-addressed key -> index maps over the DAG's ids or signatures: a slot
// holds index + 1 (0 is empty), so appending keys never invalidates a map.
std::size_t probe(const std::vector<std::uint32_t>& slots,
                  const std::vector<std::string>& keys, std::string_view key) {
  const std::size_t mask = slots.size() - 1;
  std::size_t slot = std::hash<std::string_view>{}(key) & mask;
  while (slots[slot] != 0 && keys[slots[slot] - 1] != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

std::size_t find_key(const std::vector<std::uint32_t>& slots,
                     const std::vector<std::string>& keys, std::string_view key) {
  const std::uint32_t entry = slots.empty() ? 0 : slots[probe(slots, keys, key)];
  return entry == 0 ? ConfigDag::npos : entry - 1;
}

void reserve_keys(std::vector<std::uint32_t>* slots,
                  const std::vector<std::string>& keys, std::size_t size) {
  if (2 * size < slots->size()) return;
  std::vector<std::uint32_t> old = std::move(*slots);
  slots->assign(std::bit_ceil(std::max<std::size_t>(16, 4 * size)), 0);
  for (const std::uint32_t entry : old) {
    if (entry != 0) (*slots)[probe(*slots, keys, keys[entry - 1])] = entry;
  }
}

/// Index keys.back(), unless an equal key is indexed already: then return
/// that key's index and leave the map unchanged (else npos).
std::size_t insert_key(std::vector<std::uint32_t>* slots,
                       const std::vector<std::string>& keys) {
  reserve_keys(slots, keys, keys.size());
  const std::size_t slot = probe(*slots, keys, keys.back());
  if ((*slots)[slot] != 0) return (*slots)[slot] - 1;
  (*slots)[slot] = keys.size();
  return ConfigDag::npos;
}
}  // namespace

bool ConfigDag::insert_by_id(EdgeList* list, std::size_t node) {
  const auto by_id = [this](std::size_t a, std::size_t b) {
    return ids_[a] < ids_[b];
  };
  std::size_t* first = edges_.data() + list->begin;
  const auto at = static_cast<std::size_t>(
      std::lower_bound(first, first + list->size, node, by_id) - first);
  if (at < list->size && first[at] == node) return false;
  if (list->size == list->capacity) {
    // Full: move the list to the end of the pool with twice the room.  Its
    // old slots stay unused, so the pool holds under 4 slots per entry.
    const std::size_t begin = edges_.size();
    list->capacity = std::max<std::size_t>(2, 2 * list->capacity);
    edges_.resize(begin + list->capacity);
    std::copy_n(edges_.data() + list->begin, list->size, edges_.data() + begin);
    list->begin = begin;
  }
  first = edges_.data() + list->begin;
  std::copy_backward(first + at, first + list->size, first + list->size + 1);
  first[at] = node;
  ++list->size;
  return true;
}

void ConfigDag::reserve(std::size_t nodes, std::size_t edges) {
  nodes_.reserve(nodes);
  edges_.reserve(4 * edges);
  ids_.reserve(nodes);
  signatures_.reserve(nodes);
  reserve_keys(&id_slots_, ids_, nodes);
  reserve_keys(&signature_slots_, signatures_, nodes);
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
  ids_.push_back(action.id());
  if (insert_key(&id_slots_, ids_) != npos) {
    ids_.pop_back();
    return Status(ErrorCode::kAlreadyExists,
                  "duplicate action id: " + action.id());
  }
  signatures_.push_back(action.signature());
  if (insert_key(&signature_slots_, signatures_) != npos &&
      duplicate_signature_ == npos) {
    duplicate_signature_ = nodes_.size();
  }
  nodes_.emplace_back().action = std::move(action);
  return Status();
}

Status ConfigDag::add_edge(const std::string& from, const std::string& to) {
  if (from == to) {
    return Status(ErrorCode::kInvalidArgument, "self-loop on " + from);
  }
  const std::size_t f = index_of(from);
  const std::size_t t = index_of(to);
  if (f == npos) {
    return Status(ErrorCode::kNotFound, "edge source not found: " + from);
  }
  if (t == npos) {
    return Status(ErrorCode::kNotFound, "edge target not found: " + to);
  }
  if (!insert_by_id(&nodes_[f].successors, t)) {
    return Status(ErrorCode::kAlreadyExists,
                  "duplicate edge " + from + " -> " + to);
  }
  insert_by_id(&nodes_[t].predecessors, f);
  ++edge_count_;
  return Status();
}

Status ConfigDag::set_error_subgraph(const std::string& action_id,
                                     ConfigDag subgraph) {
  const std::size_t i = index_of(action_id);
  if (i == npos) {
    return Status(ErrorCode::kNotFound,
                  "no action for error sub-graph: " + action_id);
  }
  VMP_RETURN_IF_ERROR(subgraph.validate());
  if (nodes_[i].error_subgraph == npos) {
    nodes_[i].error_subgraph = subgraphs_.size();
    subgraphs_.push_back(std::move(subgraph));
  } else {
    subgraphs_[nodes_[i].error_subgraph] = std::move(subgraph);
  }
  return Status();
}

std::size_t ConfigDag::index_of(std::string_view id) const {
  return find_key(id_slots_, ids_, id);
}

std::size_t ConfigDag::index_of_signature(std::string_view signature) const {
  return find_key(signature_slots_, signatures_, signature);
}

std::vector<std::string> ConfigDag::ids_at(
    std::span<const std::size_t> nodes) const {
  const IdRange ids(nodes, {ids_.data()});
  return {ids.begin(), ids.end()};
}

const Action* ConfigDag::action(const std::string& id) const {
  const std::size_t i = index_of(id);
  return i == npos ? nullptr : &nodes_[i].action;
}

ConfigDag::IdRange ConfigDag::id_range(const std::string& id,
                                       EdgeList Node::*list) const {
  const std::size_t i = index_of(id);
  return i == npos ? IdRange() : IdRange(edges(nodes_[i].*list), {ids_.data()});
}

const ConfigDag* ConfigDag::error_subgraph(const std::string& action_id) const {
  const std::size_t i = index_of(action_id);
  if (i == npos || nodes_[i].error_subgraph == npos) return nullptr;
  return &subgraphs_[nodes_[i].error_subgraph];
}

Result<std::vector<std::size_t>> ConfigDag::topological_indices() const {
  // Kahn's algorithm in any order computes each node's pass (see dag.h);
  // a counting sort by pass over insertion order then yields the order the
  // repeated-pass scan would emit.  `order` doubles as the ready stack, and
  // the in-degrees (all zero once every node is out) as the pass buckets.
  const std::size_t n = nodes_.size();
  std::vector<std::size_t> scratch(2 * n + 2, 0);
  const std::span<std::size_t> pass(scratch.data(), n);
  const std::span<std::size_t> in_degree(scratch.data() + n, n + 2);
  std::vector<std::size_t> order(n);
  std::size_t ready = 0;
  for (std::size_t i = 0; i < n; ++i) {
    in_degree[i] = nodes_[i].predecessors.size;
    if (in_degree[i] == 0) order[ready++] = i;
  }
  std::size_t max_pass = 0;
  while (ready > 0) {
    const std::size_t node = order[--ready];
    max_pass = std::max(max_pass, pass[node]);
    for (const std::size_t succ : edges(nodes_[node].successors)) {
      pass[succ] = std::max(pass[succ], pass[node] + (node > succ ? 1 : 0));
      if (--in_degree[succ] == 0) order[ready++] = succ;
    }
  }
  // Cycle members never reach in-degree 0.  Name the first in order.
  const auto member = std::ranges::find_if(in_degree, [](std::size_t d) {
    return d != 0;
  }) - in_degree.begin();
  if (member < static_cast<std::ptrdiff_t>(n)) {
    return Result<std::vector<std::size_t>>(Error(
        ErrorCode::kInvalidArgument,
        "configuration DAG contains a cycle through '" + ids_[member] + "'"));
  }
  const std::span<std::size_t> bucket_start = in_degree.first(max_pass + 2);
  for (std::size_t i = 0; i < n; ++i) ++bucket_start[pass[i] + 1];
  for (std::size_t p = 1; p < bucket_start.size(); ++p) {
    bucket_start[p] += bucket_start[p - 1];
  }
  for (std::size_t i = 0; i < n; ++i) order[bucket_start[pass[i]]++] = i;
  return order;
}

Result<std::vector<std::string>> ConfigDag::topological_sort() const {
  auto indices = topological_indices();
  if (!indices.ok()) return indices.propagate<std::vector<std::string>>();
  return ids_at(indices.value());
}

Status ConfigDag::validate() const {
  // Error sub-graphs were validated when attached, and are immutable.
  auto sorted = topological_indices();
  return sorted.ok() ? Status() : Status(sorted.error());
}

Status ConfigDag::check_unique_signatures() const {
  if (duplicate_signature_ >= nodes_.size()) return Status();  // or moved-from
  const std::string& sig = signatures_[duplicate_signature_];
  return Status(ErrorCode::kInvalidArgument,
                "duplicate action signature '" + sig + "' (nodes '" +
                    ids_[index_of_signature(sig)] + "' and '" +
                    ids_[duplicate_signature_] +
                    "'); matching requires unique signatures");
}

Result<std::map<std::string, std::string>> ConfigDag::signature_index() const {
  using Index = std::map<std::string, std::string>;
  VMP_RETURN_IF_ERROR_AS(check_unique_signatures(), Index);
  Index index;
  for (std::size_t i = 0; i < ids_.size(); ++i) index.emplace(signatures_[i], ids_[i]);
  return index;
}

std::size_t ConfigDag::total_nodes_with_subgraphs() const {
  std::size_t n = nodes_.size();
  for (const ConfigDag& sub : subgraphs_) n += sub.total_nodes_with_subgraphs();
  return n;
}

bool ConfigDag::operator==(const ConfigDag& other) const {
  // Equal id orders make equal indices name equal nodes.
  if (ids_ != other.ids_ || signatures_ != other.signatures_) return false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& mine = nodes_[i];
    const Node& theirs = other.nodes_[i];
    if (mine.action.scope() != theirs.action.scope() ||
        mine.action.script() != theirs.action.script() ||
        !std::ranges::equal(edges(mine.successors),
                            other.edges(theirs.successors)) ||
        (mine.error_subgraph == npos) != (theirs.error_subgraph == npos) ||
        (mine.error_subgraph != npos &&
         !(subgraphs_[mine.error_subgraph] ==
           other.subgraphs_[theirs.error_subgraph]))) {
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
