// The ClassAd container: attributes in insertion order, names compared
// case-insensitively (per Condor), each bound to an immutable expression
// shared by reference between copies (DESIGN.md §8).
//
// VMPlant uses classads in three places (paper Sections 3.1-3.2):
//   * the creation response handed back to the client (VMID, IP address,
//     SSH key fingerprints, action outputs);
//   * the per-plant VM Information System, which stores one ad per active
//     VM and refreshes dynamic attributes from the VM monitor;
//   * hardware-requirement matching between a creation request and golden
//     machine descriptors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "classad/expr.h"
#include "util/error.h"

namespace vmp::xml {
class Element;
}

namespace vmp::classad {

/// A copy shares every expression with its source (one count bump per
/// attribute); editing either side rebinds a slot and never changes the
/// other.  Like a standard container, one ad may be read from many threads
/// at once but must not be edited while another thread uses it.
class ClassAd {
 public:
  // -- Building -------------------------------------------------------------
  void set(const std::string& name, ExprPtr expr);
  void set_integer(const std::string& name, std::int64_t v);
  void set_real(const std::string& name, double v);
  void set_string(const std::string& name, std::string v);
  void set_boolean(const std::string& name, bool v);
  /// Parses `expr_text` as an expression; returns parse failure unchanged.
  util::Status set_expression(const std::string& name,
                              const std::string& expr_text);

  /// Set every attribute of `updates` here, in its order, sharing its
  /// expressions (a replaced attribute keeps its position).
  void merge(const ClassAd& updates);

  bool erase(const std::string& name);
  bool has(const std::string& name) const;
  std::size_t size() const { return slots_.size(); }

  /// Attribute names in insertion order.
  std::vector<std::string> names() const;

  /// Unevaluated expression (nullptr if absent).
  const Expr* lookup(const std::string& name) const;

  // -- Evaluation -----------------------------------------------------------
  /// Evaluate an attribute with this ad as `self` (and optionally a match
  /// candidate as `other`).  Missing attributes evaluate to UNDEFINED;
  /// cyclic definitions to ERROR.
  Value evaluate(const std::string& name, const ClassAd* other = nullptr) const;

  /// Typed convenience accessors: value if present and of the right type.
  /// A literal attribute is read in place, without an evaluation.
  std::optional<std::int64_t> get_integer(const std::string& name) const;
  std::optional<double> get_number(const std::string& name) const;
  std::optional<std::string> get_string(const std::string& name) const;
  std::optional<bool> get_boolean(const std::string& name) const;

  // -- Serialization --------------------------------------------------------
  /// Condor-style "[ a = 1; b = "x"; ]" rendering.
  std::string to_string() const;
  /// XML rendering used in wire messages: <classad><attr name="a">1</attr>...
  void to_xml(xml::Element* parent) const;
  static util::Result<ClassAd> from_xml(const xml::Element& element);

  bool operator==(const ClassAd& other) const;

 private:
  friend class AttrRefExpr;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  struct Slot {
    std::uint32_t key;  // hash of the case-folded name: the scan's filter
    std::string name;   // original spelling
    SharedExpr expr;
  };

  /// Index of the slot named `name` (any case), or kNoSlot.
  std::size_t find(std::string_view name, std::uint32_t key) const;
  std::size_t find(std::string_view name) const;
  void put(std::uint32_t key, const std::string& name, SharedExpr expr);
  /// Evaluate one slot with this ad as `self`.
  Value evaluate_slot(std::size_t slot, const ClassAd* other) const;
  /// `pick` applied to the attribute's value (read in place for a literal).
  template <typename Pick>
  auto read(const std::string& name, Pick pick) const
      -> decltype(pick(std::declval<const Value&>()));

  std::vector<Slot> slots_;  // insertion order
};

/// Parse "[ a = 1; b = 2 ]" or a bare attribute list "a = 1\nb = 2".
util::Result<ClassAd> parse_classad(const std::string& text);

/// Parse a single expression.
util::Result<ExprPtr> parse_expression(const std::string& text);

}  // namespace vmp::classad
