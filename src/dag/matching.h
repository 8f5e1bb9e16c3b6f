// Partial matching of configuration DAGs against cached golden images.
//
// Paper, Section 3.2.  Each cached image records the ordered sequence of
// configuration actions already performed on it.  For a cached image to be
// usable as a clone source for a requested DAG, three conditions must hold:
//
//  * Subset Test — every performed action is required by the DAG (no
//    extraneous operations baked into the image).
//  * Prefix Test — the performed set is downward-closed under the DAG's
//    precedence: if action A was performed, every DAG-predecessor of A was
//    performed too.
//  * Partial Order Test — the order in which actions were performed on the
//    image is consistent with the DAG's partial order: if the DAG requires
//    A before B and both were performed, A appears before B in the image's
//    history.
//
// Identity between a performed action and a DAG node is by Action signature
// (operation + canonical parameters); see dag/action.h.
//
// Direct edges are enough for the last two tests.  If a performed node has
// an unperformed ancestor, the last unperformed node on the path between
// them is a direct predecessor of a performed node, so checking direct
// predecessors proves downward closure.  Once the performed set is
// downward-closed, every path between two performed nodes stays inside it,
// so history order respecting each direct edge respects every ancestor pair
// by transitivity.  MatchIndex therefore tests one image in O(V+E).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "dag/dag.h"
#include "util/error.h"

namespace vmp::dag {

/// Outcome of testing one cached image description against a request DAG.
/// Nodes are request-DAG indices (positions in ConfigDag::node_ids());
/// ConfigDag::ids_at names them.
struct MatchEvaluation {
  bool subset_ok = false;
  bool prefix_ok = false;
  bool partial_order_ok = false;

  /// All three tests passed.
  bool matches() const { return subset_ok && prefix_ok && partial_order_ok; }

  /// Nodes already satisfied by the image, history order (empty unless
  /// matches()).
  std::vector<std::size_t> satisfied;

  /// Nodes still to be executed, in a valid topological order of the
  /// remaining sub-graph (empty unless matches()).
  std::vector<std::size_t> remaining;

  /// Diagnostic for the first failed test ("" when matches()).
  std::string failure_reason;
};

/// A request DAG prepared once for matching many images against it.  It is
/// a view: it borrows the DAG's ids, signatures, signature map and
/// predecessor lists and owns only one topological order.  The DAG must
/// outlive the index and must not be modified while the index is in use.
class MatchIndex {
 public:
  /// Fails if two nodes share a signature (the ConfigDag::signature_index
  /// error) or if the DAG is cyclic (the topological_sort error).
  static util::Result<MatchIndex> build(const ConfigDag& request);

  /// The three tests for one image history, oldest action first, in
  /// O(V+E).  Unknown signatures fail the Subset test; they are not errors.
  MatchEvaluation evaluate(
      std::span<const std::string> performed_signatures) const;

 private:
  explicit MatchIndex(const ConfigDag* dag) : dag_(dag) {}

  const ConfigDag* dag_;
  std::vector<std::size_t> topological_order_;
};

/// Evaluate the three tests for one image (MatchIndex build + evaluate).
///
/// `performed_signatures` is the image's action history, oldest first.
/// The request DAG must be acyclic with unique signatures
/// (ConfigDag::signature_index); an error is returned otherwise.  Unknown
/// signatures in the history are not an error — they simply fail the Subset
/// test, because the image has an operation the request does not want.
util::Result<MatchEvaluation> evaluate_match(
    const ConfigDag& request, std::span<const std::string> performed_signatures);

/// evaluate_match over a literal history.
inline util::Result<MatchEvaluation> evaluate_match(
    const ConfigDag& request, std::initializer_list<std::string> performed) {
  return evaluate_match(request, std::span(performed.begin(), performed.size()));
}

/// A scored candidate (index into the caller's image list).
struct RankedMatch {
  std::size_t image_index = 0;
  std::size_t satisfied_count = 0;
  std::size_t remaining_count = 0;
};

/// Rank all matching images: most satisfied actions first (fewest remaining
/// configuration actions to execute), stable on ties.  Non-matching images
/// are absent from the result.
util::Result<std::vector<RankedMatch>> rank_matches(
    const ConfigDag& request,
    const std::vector<std::vector<std::string>>& image_histories);

}  // namespace vmp::dag
