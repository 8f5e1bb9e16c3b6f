#include "xml/xml.h"

#include <algorithm>
#include <charconv>
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
  // One allocation holds the attributes of a typical element.
  if (attrs_.empty()) {
    attrs_.reserve(4);
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
  children_.push_back(std::make_unique<Element>(std::move(name)));
  return *children_.back();
}

Element& Element::adopt_child(std::unique_ptr<Element> child) {
  children_.push_back(std::move(child));
  return *children_.back();
}

std::vector<std::unique_ptr<Element>> Element::release_children() {
  return std::exchange(children_, {});
}

const Element* Element::child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

Element* Element::child(std::string_view name) {
  for (auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

std::vector<const Element*> Element::children_named(
    std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& c : children_) {
    if (c->name() == name) out.push_back(c.get());
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

}  // namespace

void append_escaped(std::string* out, std::string_view raw) {
  std::size_t run = 0;  // start of the pending run that needs no escaping
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string_view entity = entity_for(raw[i]);
    if (entity.empty()) continue;
    out->append(raw.substr(run, i - run));
    out->append(entity);
    run = i + 1;
  }
  out->append(raw.substr(run));
}

std::size_t escaped_size(std::string_view raw) {
  std::size_t size = raw.size();
  for (const char c : raw) {
    const std::string_view entity = entity_for(c);
    if (!entity.empty()) size += entity.size() - 1;
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
    for (const auto& c : children_) c->render(out, indent + 1, pretty);
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
    for (const auto& c : content.children_) c->render(&out, 1, /*pretty=*/true);
  }
  out += "</";
  out.append(name);
  out += ">\n";
  return out;
}

std::string render_children(const Element& content) {
  std::string out;
  for (const auto& c : content.children_) c->render(&out, 1, /*pretty=*/true);
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

std::unique_ptr<Element> Element::clone() const {
  auto out = std::make_unique<Element>(name_);
  out->attrs_ = attrs_;
  out->text_ = text_;
  for (const auto& c : children_) out->children_.push_back(c->clone());
  return out;
}

bool Element::deep_equal(const Element& other) const {
  if (name_ != other.name_ || attrs_ != other.attrs_) return false;
  if (std::string(util::trim(text_)) != std::string(util::trim(other.text_))) {
    return false;
  }
  if (children_.size() != other.children_.size()) return false;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->deep_equal(*other.children_[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

// The "C" locale's isspace/isalpha/isdigit, without the locale lookup.
bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}
bool is_blank(std::string_view text) {
  for (const char c : text) {
    if (!is_space(c)) return false;
  }
  return true;
}
bool is_name_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}
bool is_name_char(char c) {
  return is_name_start(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<std::unique_ptr<Element>> parse_document() {
    skip_prolog();
    auto root = parse_element();
    if (!root.ok()) return root;
    skip_misc();
    if (pos_ != input_.size()) {
      return fail("trailing content after document element");
    }
    return root;
  }

 private:
  Error error(const std::string& message) const {
    return Error(ErrorCode::kParseError,
                 "xml: " + message + " at offset " + std::to_string(pos_));
  }
  Result<std::unique_ptr<Element>> fail(const std::string& message) const {
    return Result<std::unique_ptr<Element>>(error(message));
  }

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
    if (eof() || !is_name_start(peek())) return {};
    while (!eof() && is_name_char(peek())) ++pos_;
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
      if (semi == std::string_view::npos) {
        return Status(error("unterminated entity"));
      }
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
          return Status(error("bad numeric character reference"));
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
        return Status(error("unknown entity &" + std::string(entity) + ";"));
      }
      i = semi + 1;
    }
    return Status();
  }

  Result<std::unique_ptr<Element>> parse_element() {
    if (!consume("<")) return fail("expected '<'");
    const std::string_view name = parse_name();
    if (name.empty()) return fail("expected element name");
    auto element = std::make_unique<Element>(std::string(name));

    // Attributes.
    while (true) {
      skip_ws();
      if (eof()) return fail("unterminated start tag");
      if (consume("/>")) return element;
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
      const std::string_view raw = input_.substr(pos_, end - pos_);
      std::string value;
      if (raw.find('&') == std::string_view::npos) {
        value.assign(raw);
      } else if (Status s = decode_entities(raw, &value); !s.ok()) {
        return s.propagate<std::unique_ptr<Element>>();
      }
      if (!element->add_attr(key, std::move(value))) {
        return fail("duplicate attribute " + std::string(key));
      }
      pos_ = end + 1;
    }

    // Content.  Text accumulates in place; CDATA and character data
    // between child elements land in the same string.
    std::string text;
    while (true) {
      if (eof()) return fail("unterminated element <" + std::string(name) + ">");
      if (peek() != '<') {
        // Character data up to the next '<'.
        const std::size_t end = input_.find('<', pos_);
        if (end == std::string_view::npos) return fail("unterminated content");
        if (Status s = decode_entities(input_.substr(pos_, end - pos_), &text);
            !s.ok()) {
          return s.propagate<std::unique_ptr<Element>>();
        }
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
        // The whitespace rule (xml.h): indentation between children is
        // layout, not content.
        if (element->children().empty() || !is_blank(text)) {
          element->set_text(std::move(text));
        }
        return element;
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
        text.append(input_.substr(pos_, end - pos_));
        pos_ = end + 3;
        continue;
      }
      auto child = parse_element();
      if (!child.ok()) return child;
      element->adopt_child(std::move(child).value());
    }
  }

  std::string_view input_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<Element>> parse(std::string_view input) {
  return Parser(input).parse_document();
}

}  // namespace vmp::xml
