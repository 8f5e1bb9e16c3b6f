// Minimal XML document model, parser and writer.
//
// VMPlant service requests travel as XML strings (Section 4.1 of the paper:
// "Services requested by VMShop clients are specified as XML strings. The
// Create VM service specification contains the DAG of configuration
// actions").  This module implements the subset of XML those messages need:
// elements, attributes, text content, comments, CDATA, and the five
// predefined entities.  It does not implement namespaces, DTDs or processing
// instruction semantics (a leading <?xml ...?> declaration is tolerated and
// skipped).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.h"

namespace vmp::xml {

/// Attributes of one element: unique keys, sorted by key (byte order), so
/// rendering is deterministic and an element costs one allocation for all
/// of its attributes.
using Attributes = std::vector<std::pair<std::string, std::string>>;

/// A borrowed attribute, for rendering an element that is never built.
struct AttrView {
  std::string_view key;
  std::string_view value;
};

/// One element node.  Children are held by value, in document order, in
/// one vector per parent; text interleaved between child elements is
/// concatenated into `text` (mixed content is rare in our messages, and
/// ordering relative to children is not preserved).
///
/// Reference rule: add_child and adopt_child may move the parent's
/// existing children, so a reference or pointer to a child (the one an
/// earlier add_child returned, or one from child() or children()) is
/// valid only until the next add_child, adopt_child or release_children
/// on the same parent, or until the parent itself is moved or destroyed.
/// Deeper descendants do not move: a child's own children stay where they
/// are when the child moves.  Build each child fully before adding its
/// next sibling, or take the sibling references again afterwards.
///
/// Whitespace rule: the parser drops the text of an element that has child
/// elements when that text is only whitespace (the indentation a pretty
/// render puts between children), so render(parse(render(x))) ==
/// render(x).  Leaf text is kept byte-exact, blank or not.
class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}
  Element(Element&&) noexcept = default;
  Element& operator=(Element&&) noexcept = default;
  /// Copies are explicit: see clone().
  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  const std::string& name() const { return name_; }

  // -- Attributes -----------------------------------------------------------
  bool has_attr(std::string_view key) const;
  /// Returns "" when absent; use has_attr to distinguish.
  const std::string& attr(std::string_view key) const;
  /// Inserts in key order, or overwrites the value of an existing key.
  void set_attr(std::string_view key, std::string value);
  /// Inserts in key order; false (and no change) when the key exists.
  bool add_attr(std::string_view key, std::string value);
  const Attributes& attrs() const { return attrs_; }
  /// Room for `n` attributes in all, so adding up to that many allocates
  /// at most once.
  void reserve_attrs(std::size_t n) { attrs_.reserve(n); }

  /// Attribute parsed as integer/double; falls back to `fallback` when the
  /// attribute is missing or malformed.
  long long attr_int(std::string_view key, long long fallback) const;
  double attr_double(std::string_view key, double fallback) const;

  // -- Text -----------------------------------------------------------------
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }
  void append_text(std::string_view more) { text_ += more; }

  // -- Children -------------------------------------------------------------
  /// Appends an empty child; see the reference rule above.
  Element& add_child(std::string name);
  /// Appends an already-built subtree; see the reference rule above.
  Element& adopt_child(Element child);
  const std::vector<Element>& children() const { return children_; }
  /// Room for `n` children in all, so adding up to that many moves none.
  void reserve_children(std::size_t n) { children_.reserve(n); }
  /// Moves every child out, leaving this element childless.
  std::vector<Element> release_children();
  /// First child with the given name, or nullptr.
  const Element* child(std::string_view name) const;
  Element* child(std::string_view name);
  /// All children with the given name.
  std::vector<const Element*> children_named(std::string_view name) const;

  /// Text of the first child with the given name ("" if absent).
  const std::string& child_text(std::string_view name) const;

  // -- Serialization --------------------------------------------------------
  /// Render with 2-space indentation.
  std::string to_string() const;
  /// Render without any whitespace between elements (canonical-ish form used
  /// for equality in tests).
  std::string to_compact_string() const;

  bool deep_equal(const Element& other) const;

  /// Deep copy of this subtree.
  Element clone() const;

 private:
  friend class Parser;
  friend std::string render_wrapped(std::string_view,
                                    std::span<const AttrView>,
                                    const Element&, const std::string*);
  friend std::string render_children(const Element&);
  void render(std::string* out, int indent, bool pretty) const;
  Attributes::const_iterator find_attr(std::string_view key) const;
  /// Where `key` is or would go, and whether it is there.
  std::pair<Attributes::iterator, bool> locate_attr(std::string_view key);
  void insert_attr(Attributes::iterator pos, std::string_view key,
                   std::string value);

  std::string name_;
  Attributes attrs_;
  std::string text_;
  std::vector<Element> children_;
};

/// Appends `raw` to `out`, escaped for element content / attribute value.
void append_escaped(std::string* out, std::string_view raw);
/// The number of bytes append_escaped(out, raw) appends.
std::size_t escaped_size(std::string_view raw);

/// Renders, with 2-space indentation, an element called `name` carrying
/// `attrs` (sorted by key, as an Element keeps its own) whose children are
/// `content`'s children: the bytes that building that element and calling
/// to_string() would give, without building it or copying `content`.
/// `content`'s own name, attributes and text are not rendered.  Given
/// `rendered_children` (render_children(content)), those bytes are copied
/// in instead of rendering the children again.
std::string render_wrapped(std::string_view name,
                           std::span<const AttrView> attrs,
                           const Element& content,
                           const std::string* rendered_children = nullptr);

/// The bytes render_wrapped writes for `content`'s children, rendered once
/// so that many wrappers can share them.
std::string render_children(const Element& content);

/// Parse a document; returns its root element.  The tree is built with
/// every attribute list and child list sized exactly, in one pass.
util::Result<std::unique_ptr<Element>> parse(std::string_view input);

}  // namespace vmp::xml
