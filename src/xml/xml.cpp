#include "xml/xml.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <tuple>
#include <utility>

#include "util/strings.h"

namespace vmp::xml {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

// ---------------------------------------------------------------------------
// Element
// ---------------------------------------------------------------------------

Attributes::const_iterator Element::find_attr(std::string_view key) const {
  // An element has a handful of attributes: a scan that compares lengths
  // first beats a binary search of whole-string compares.
  return std::find_if(attrs_.begin(), attrs_.end(),
                      [key](const auto& attr) { return attr.first == key; });
}

bool Element::has_attr(std::string_view key) const {
  return find_attr(key) != attrs_.end();
}

const std::string& Element::attr(std::string_view key) const {
  static const std::string kEmpty;
  auto it = find_attr(key);
  return it == attrs_.end() ? kEmpty : it->second;
}

std::pair<Attributes::iterator, bool> Element::locate_attr(
    std::string_view key) {
  // Parsed and rendered attributes arrive in key order: append in O(1).
  if (attrs_.empty() || attrs_.back().first < key) {
    return {attrs_.end(), false};
  }
  auto it = std::lower_bound(
      attrs_.begin(), attrs_.end(), key,
      [](const auto& attr, std::string_view k) { return attr.first < k; });
  return {it, it != attrs_.end() && it->first == key};
}

void Element::set_attr(std::string_view key, std::string value) {
  auto [it, found] = locate_attr(key);
  if (found) {
    it->second = std::move(value);
  } else {
    insert_attr(it, key, std::move(value));
  }
}

bool Element::add_attr(std::string_view key, std::string value) {
  auto [it, found] = locate_attr(key);
  if (!found) insert_attr(it, key, std::move(value));
  return !found;
}

void Element::insert_attr(Attributes::iterator pos, std::string_view key,
                          std::string value) {
  // Unless reserve_attrs sized the list, a built element's first
  // attribute makes room for a second: most carry one to three, and the
  // list then doubles.
  if (attrs_.capacity() == 0) {
    attrs_.reserve(2);
    pos = attrs_.end();
  }
  attrs_.emplace(pos, std::string(key), std::move(value));
}

long long Element::attr_int(std::string_view key, long long fallback) const {
  auto it = find_attr(key);
  long long v = 0;
  if (it != attrs_.end() && util::parse_int64(it->second, &v)) return v;
  return fallback;
}

double Element::attr_double(std::string_view key, double fallback) const {
  auto it = find_attr(key);
  double v = 0;
  if (it != attrs_.end() && util::parse_double(it->second, &v)) return v;
  return fallback;
}

Element& Element::add_child(std::string name) {
  return children_.emplace_back(std::move(name));
}

Element& Element::adopt_child(Element child) {
  return children_.emplace_back(std::move(child));
}

std::vector<Element> Element::release_children() {
  return std::exchange(children_, {});
}

const Element* Element::child(std::string_view name) const {
  for (const Element& c : children_) {
    if (c.name_ == name) return &c;
  }
  return nullptr;
}

Element* Element::child(std::string_view name) {
  for (Element& c : children_) {
    if (c.name_ == name) return &c;
  }
  return nullptr;
}

std::vector<const Element*> Element::children_named(
    std::string_view name) const {
  std::vector<const Element*> out;
  for (const Element& c : children_) {
    if (c.name_ == name) out.push_back(&c);
  }
  return out;
}

const std::string& Element::child_text(std::string_view name) const {
  static const std::string kEmpty;
  const Element* c = child(name);
  return c ? c->text() : kEmpty;
}

namespace {

/// The entity that stands for `c` in escaped text; empty when `c` needs
/// none.
std::string_view entity_for(char c) {
  switch (c) {
    case '&': return "&amp;";
    case '<': return "&lt;";
    case '>': return "&gt;";
    case '"': return "&quot;";
    case '\'': return "&apos;";
    default: return {};
  }
}

constexpr std::array<bool, 256> make_needs_escape() {
  std::array<bool, 256> table{};
  for (const char c : {'&', '<', '>', '"', '\''}) {
    table[static_cast<unsigned char>(c)] = true;
  }
  return table;
}
/// Whether entity_for(c) is not empty, in one lookup.
constexpr std::array<bool, 256> kNeedsEscape = make_needs_escape();

}  // namespace

void append_escaped(std::string* out, std::string_view raw) {
  std::size_t run = 0;  // start of the pending run that needs no escaping
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (!kNeedsEscape[static_cast<unsigned char>(raw[i])]) continue;
    out->append(raw.substr(run, i - run));
    out->append(entity_for(raw[i]));
    run = i + 1;
  }
  out->append(raw.substr(run));
}

std::size_t escaped_size(std::string_view raw) {
  std::size_t size = raw.size();
  for (const char c : raw) {
    if (kNeedsEscape[static_cast<unsigned char>(c)]) {
      size += entity_for(c).size() - 1;
    }
  }
  return size;
}

namespace {

template <typename Attrs>
void append_start_tag(std::string* out, std::string_view name,
                      const Attrs& attrs) {
  *out += '<';
  out->append(name);
  for (const auto& [key, value] : attrs) {
    *out += ' ';
    out->append(key);
    out->append("=\"");
    append_escaped(out, value);
    *out += '"';
  }
}

void append_pad(std::string* out, int indent) {
  out->append(2 * static_cast<std::size_t>(indent), ' ');
}

}  // namespace

void Element::render(std::string* out, int indent, bool pretty) const {
  if (pretty) append_pad(out, indent);
  append_start_tag(out, name_, attrs_);
  if (children_.empty() && text_.empty()) {
    *out += "/>";
    if (pretty) *out += '\n';
    return;
  }
  *out += '>';
  append_escaped(out, text_);
  if (!children_.empty()) {
    if (pretty) *out += '\n';
    for (const Element& c : children_) c.render(out, indent + 1, pretty);
    if (pretty) append_pad(out, indent);
  }
  *out += "</";
  *out += name_;
  *out += '>';
  if (pretty) *out += '\n';
}

std::string render_wrapped(std::string_view name,
                           std::span<const AttrView> attrs,
                           const Element& content,
                           const std::string* rendered_children) {
  std::string out;
  out.reserve(512 + (rendered_children ? rendered_children->size() : 0));
  append_start_tag(&out, name, attrs);
  if (content.children_.empty()) {
    out += "/>\n";
    return out;
  }
  out += ">\n";
  if (rendered_children != nullptr) {
    out += *rendered_children;
  } else {
    for (const Element& c : content.children_) {
      c.render(&out, 1, /*pretty=*/true);
    }
  }
  out += "</";
  out.append(name);
  out += ">\n";
  return out;
}

std::string render_children(const Element& content) {
  std::string out;
  for (const Element& c : content.children_) c.render(&out, 1, /*pretty=*/true);
  return out;
}

std::string Element::to_string() const {
  std::string out;
  render(&out, 0, /*pretty=*/true);
  return out;
}

std::string Element::to_compact_string() const {
  std::string out;
  render(&out, 0, /*pretty=*/false);
  return out;
}

Element Element::clone() const {
  Element out(name_);
  out.attrs_ = attrs_;
  out.text_ = text_;
  out.children_.reserve(children_.size());
  for (const Element& c : children_) out.children_.push_back(c.clone());
  return out;
}

bool Element::deep_equal(const Element& other) const {
  if (name_ != other.name_ || attrs_ != other.attrs_) return false;
  if (util::trim(text_) != util::trim(other.text_)) return false;
  if (children_.size() != other.children_.size()) return false;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i].deep_equal(other.children_[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

// Character classes of the "C" locale's isspace/isalpha/isdigit, looked up
// in one table rather than compared in turn.
constexpr unsigned char kSpace = 1;      // whitespace
constexpr unsigned char kNameStart = 2;  // may start a name
constexpr unsigned char kNameChar = 4;   // may continue a name

constexpr std::array<unsigned char, 256> make_char_classes() {
  std::array<unsigned char, 256> table{};
  for (const char c : {' ', '\n', '\t', '\r', '\v', '\f'}) {
    table[static_cast<unsigned char>(c)] = kSpace;
  }
  for (int c = 0; c < 256; ++c) {
    const bool start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    if (start) table[c] = kNameStart | kNameChar;
    if ((c >= '0' && c <= '9') || c == '-' || c == '.') table[c] = kNameChar;
  }
  return table;
}
constexpr std::array<unsigned char, 256> kCharClasses = make_char_classes();

bool has_class(char c, unsigned char cls) {
  return (kCharClasses[static_cast<unsigned char>(c)] & cls) != 0;
}
bool is_space(char c) { return has_class(c, kSpace); }
bool is_blank(std::string_view text) {
  for (const char c : text) {
    if (!is_space(c)) return false;
  }
  return true;
}

}  // namespace

/// One pass over the text: attributes are gathered as slices of the input
/// and each element's list is built at its final size; each element's
/// children gather in a scratch list per depth and move into a list of
/// their final size when the element closes; character data is kept as
/// slices until the close says whether it is content or layout.  The
/// scratch lists are the calling thread's, kept from one parse to the
/// next, so a warm parse allocates only what the tree keeps.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input), s_(scratch()) {
    // A parse that failed part way leaves its scratch behind.
    s_.runs.clear();
    s_.decoded.clear();
    for (auto& level : s_.children) level.clear();
  }

  Result<std::unique_ptr<Element>> parse_document() {
    skip_prolog();
    auto root = std::make_unique<Element>(std::string());
    if (Status s = parse_element(root.get(), 0); !s.ok()) {
      return s.propagate<std::unique_ptr<Element>>();
    }
    skip_misc();
    if (pos_ != input_.size()) {
      return Result<std::unique_ptr<Element>>(
          error("trailing content after document element"));
    }
    return root;
  }

 private:
  /// An attribute seen in a start tag: its value a slice of the input, or,
  /// when that slice holds an entity, `size` decoded bytes at `begin` in
  /// the scratch attr_decoded.
  struct PendingAttr {
    std::string_view key;
    std::string_view raw;
    std::size_t begin = 0;
    std::size_t size = 0;
    bool has_entity = false;
  };
  /// A run of character data: `size` bytes at `begin` in the input, or in
  /// `s_.decoded` when the run held an entity.
  struct TextRun {
    std::size_t begin = 0;
    std::size_t size = 0;
    bool in_decoded = false;
  };

  Error error(const std::string& message) const {
    return Error(ErrorCode::kParseError,
                 "xml: " + message + " at offset " + std::to_string(pos_));
  }
  Status fail(const std::string& message) const { return Status(error(message)); }

  bool eof() const { return pos_ >= input_.size(); }
  char peek() const { return input_[pos_]; }
  bool consume(std::string_view token) {
    // Tokens are a few bytes: compare in line, usually failing on the first.
    if (input_.size() - pos_ < token.size()) return false;
    for (std::size_t i = 0; i < token.size(); ++i) {
      if (input_[pos_ + i] != token[i]) return false;
    }
    pos_ += token.size();
    return true;
  }
  void skip_ws() {
    while (!eof() && is_space(peek())) ++pos_;
  }

  /// Skips whitespace, comments, and the XML declaration before the root.
  void skip_prolog() {
    skip_misc();
    if (consume("<?")) {
      const std::size_t end = input_.find("?>", pos_);
      pos_ = end == std::string_view::npos ? input_.size() : end + 2;
    }
    skip_misc();
  }

  /// Skips whitespace and comments.
  void skip_misc() {
    while (true) {
      skip_ws();
      if (consume("<!--")) {
        const std::size_t end = input_.find("-->", pos_);
        pos_ = end == std::string_view::npos ? input_.size() : end + 3;
        continue;
      }
      return;
    }
  }

  /// The name at the cursor, as a slice of the input ("" if none).
  std::string_view parse_name() {
    const std::size_t start = pos_;
    if (eof() || !has_class(peek(), kNameStart)) return {};
    while (!eof() && has_class(peek(), kNameChar)) ++pos_;
    return input_.substr(start, pos_ - start);
  }

  /// Appends `raw` to `out`, decoding &amp; &lt; &gt; &quot; &apos; and
  /// numeric references.  A run without '&' is appended as one slice.
  Status decode_entities(std::string_view raw, std::string* out) {
    for (std::size_t i = 0; i < raw.size();) {
      const std::size_t amp = raw.find('&', i);
      out->append(raw.substr(i, amp - i));
      if (amp == std::string_view::npos) break;
      const std::size_t semi = raw.find(';', amp);
      if (semi == std::string_view::npos) return fail("unterminated entity");
      const std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
      if (entity == "amp") *out += '&';
      else if (entity == "lt") *out += '<';
      else if (entity == "gt") *out += '>';
      else if (entity == "quot") *out += '"';
      else if (entity == "apos") *out += '\'';
      else if (!entity.empty() && entity[0] == '#') {
        // Only &#[0-9]+; and &#x[0-9a-fA-F]+; (from_chars takes no sign,
        // space or prefix), naming a character: not NUL, not a UTF-16
        // surrogate, at most U+10FFFF.
        const bool hex = entity.size() > 1 && entity[1] == 'x';
        const std::string_view digits = entity.substr(hex ? 2 : 1);
        unsigned long c = 0;
        const auto [end, ec] = std::from_chars(
            digits.data(), digits.data() + digits.size(), c, hex ? 16 : 10);
        if (ec != std::errc() || end != digits.data() + digits.size() ||
            c == 0 || c > 0x10FFFF || (c >= 0xD800 && c <= 0xDFFF)) {
          return fail("bad numeric character reference");
        }
        // Encode as UTF-8.
        if (c < 0x80) {
          *out += static_cast<char>(c);
        } else if (c < 0x800) {
          *out += static_cast<char>(0xC0 | (c >> 6));
          *out += static_cast<char>(0x80 | (c & 0x3F));
        } else if (c < 0x10000) {
          *out += static_cast<char>(0xE0 | (c >> 12));
          *out += static_cast<char>(0x80 | ((c >> 6) & 0x3F));
          *out += static_cast<char>(0x80 | (c & 0x3F));
        } else {
          *out += static_cast<char>(0xF0 | (c >> 18));
          *out += static_cast<char>(0x80 | ((c >> 12) & 0x3F));
          *out += static_cast<char>(0x80 | ((c >> 6) & 0x3F));
          *out += static_cast<char>(0x80 | (c & 0x3F));
        }
      } else {
        return fail("unknown entity &" + std::string(entity) + ";");
      }
      i = semi + 1;
    }
    return Status();
  }

  /// Reads the attributes of a start tag up to its '>' or '/>' into
  /// `element`, in key order; sets `*empty` for '/>'.
  Status parse_attributes(Element* element, bool* empty) {
    s_.attrs.clear();
    s_.attr_decoded.clear();
    bool sorted = true;
    while (true) {
      skip_ws();
      if (eof()) return fail("unterminated start tag");
      if (consume("/>")) {
        *empty = true;
        break;
      }
      if (consume(">")) break;
      const std::string_view key = parse_name();
      if (key.empty()) return fail("expected attribute name");
      skip_ws();
      if (!consume("=")) return fail("expected '=' after attribute name");
      skip_ws();
      if (eof() || (peek() != '"' && peek() != '\'')) {
        return fail("expected quoted attribute value");
      }
      const char quote = input_[pos_++];
      const std::size_t end = input_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return fail("unterminated attribute value");
      }
      PendingAttr& attr = s_.attrs.emplace_back();
      attr.key = key;
      attr.raw = input_.substr(pos_, end - pos_);
      if (attr.raw.find('&') != std::string_view::npos) {
        attr.has_entity = true;
        attr.begin = s_.attr_decoded.size();
        VMP_RETURN_IF_ERROR(decode_entities(attr.raw, &s_.attr_decoded));
        attr.size = s_.attr_decoded.size() - attr.begin;
      }
      for (std::size_t i = 0; i + 1 < s_.attrs.size(); ++i) {
        if (s_.attrs[i].key == key) {
          return fail("duplicate attribute " + std::string(key));
        }
      }
      sorted = sorted && (s_.attrs.size() == 1 ||
                          s_.attrs[s_.attrs.size() - 2].key < key);
      pos_ = end + 1;
    }
    if (s_.attrs.empty()) return Status();
    // Rendered documents list attributes in key order already.
    if (!sorted) {
      std::sort(s_.attrs.begin(), s_.attrs.end(),
                [](const PendingAttr& a, const PendingAttr& b) {
                  return a.key < b.key;
                });
    }
    element->attrs_.reserve(s_.attrs.size());
    for (const PendingAttr& attr : s_.attrs) {
      const std::string_view value =
          attr.has_entity
              ? std::string_view(s_.attr_decoded).substr(attr.begin, attr.size)
              : attr.raw;
      element->attrs_.emplace_back(std::piecewise_construct,
                                   std::forward_as_tuple(attr.key),
                                   std::forward_as_tuple(value));
    }
    return Status();
  }

  /// Records a run of character data, decoding its entities when
  /// `decode`; clears `*blank` when the run is not all whitespace.
  Status add_run(std::string_view raw, bool decode, bool* blank) {
    TextRun run;
    if (decode) {
      run.begin = s_.decoded.size();
      run.in_decoded = true;
      VMP_RETURN_IF_ERROR(decode_entities(raw, &s_.decoded));
      run.size = s_.decoded.size() - run.begin;
      raw = std::string_view(s_.decoded).substr(run.begin);
    } else {
      run.begin = static_cast<std::size_t>(raw.data() - input_.data());
      run.size = raw.size();
    }
    if (run.size == 0) return Status();
    *blank = *blank && is_blank(raw);
    s_.runs.push_back(run);
    return Status();
  }

  /// The runs from `first` on, joined.
  std::string join_runs(std::size_t first) const {
    std::size_t size = 0;
    for (std::size_t i = first; i < s_.runs.size(); ++i) size += s_.runs[i].size;
    std::string text;
    text.reserve(size);
    for (std::size_t i = first; i < s_.runs.size(); ++i) {
      const TextRun& run = s_.runs[i];
      text.append(run.in_decoded ? std::string_view(s_.decoded) : input_,
                  run.begin, run.size);
    }
    return text;
  }

  /// Parses the element at the cursor into `element`, which is empty.
  /// `depth` is the element's depth, the index of its children's scratch
  /// list.
  Status parse_element(Element* element, std::size_t depth) {
    if (!consume("<")) return fail("expected '<'");
    const std::string_view name = parse_name();
    if (name.empty()) return fail("expected element name");
    element->name_.assign(name);

    bool empty = false;
    VMP_RETURN_IF_ERROR(parse_attributes(element, &empty));
    if (empty) return Status();

    // Content.  The runs and decoded bytes this element adds are its own
    // until it closes: a child's come after them and are gone by the time
    // this element adds more.
    const std::size_t first_run = s_.runs.size();
    const std::size_t decoded_mark = s_.decoded.size();
    if (s_.children.size() <= depth) s_.children.resize(depth + 1);
    bool blank = true;
    while (true) {
      if (eof()) return fail("unterminated element <" + std::string(name) + ">");
      if (peek() != '<') {
        // Character data up to the next '<'.
        const std::size_t end = input_.find('<', pos_);
        if (end == std::string_view::npos) return fail("unterminated content");
        const std::string_view raw = input_.substr(pos_, end - pos_);
        VMP_RETURN_IF_ERROR(
            add_run(raw, raw.find('&') != std::string_view::npos, &blank));
        pos_ = end;
        continue;
      }
      // Markup: the byte after '<' says which kind.
      const char next = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
      if (next == '/') {
        pos_ += 2;
        const std::string_view closing = parse_name();
        skip_ws();
        if (!consume(">")) return fail("malformed end tag");
        if (closing != name) {
          return fail("mismatched end tag </" + std::string(closing) +
                      "> for <" + std::string(name) + ">");
        }
        std::vector<Element>& kids = s_.children[depth];
        element->children_.assign(std::make_move_iterator(kids.begin()),
                                  std::make_move_iterator(kids.end()));
        kids.clear();
        // The whitespace rule (xml.h): indentation between children is
        // layout, not content.
        if (element->children_.empty() || !blank) {
          element->text_ = join_runs(first_run);
        }
        s_.runs.resize(first_run);
        s_.decoded.resize(decoded_mark);
        return Status();
      }
      if (next == '!' && consume("<!--")) {
        const std::size_t end = input_.find("-->", pos_);
        if (end == std::string_view::npos) return fail("unterminated comment");
        pos_ = end + 3;
        continue;
      }
      if (next == '!' && consume("<![CDATA[")) {
        const std::size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) return fail("unterminated CDATA");
        VMP_RETURN_IF_ERROR(
            add_run(input_.substr(pos_, end - pos_), /*decode=*/false, &blank));
        pos_ = end + 3;
        continue;
      }
      // The child builds in place at the end of this depth's scratch list;
      // deeper levels may grow s_.children, so it is indexed afresh.
      Element* child = &s_.children[depth].emplace_back(std::string());
      VMP_RETURN_IF_ERROR(parse_element(child, depth + 1));
    }
  }

  struct Scratch {
    std::vector<PendingAttr> attrs;
    std::string attr_decoded;
    std::vector<TextRun> runs;
    std::string decoded;
    /// children[d]: the children gathered so far by the open element at
    /// depth d.
    std::vector<std::vector<Element>> children;
  };
  static Scratch& scratch() {
    thread_local Scratch s;
    return s;
  }

  std::string_view input_;
  std::size_t pos_ = 0;
  Scratch& s_;
};

Result<std::unique_ptr<Element>> parse(std::string_view input) {
  return Parser(input).parse_document();
}

}  // namespace vmp::xml
