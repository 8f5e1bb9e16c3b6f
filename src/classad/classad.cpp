#include "classad/classad.h"

#include <memory>

#include "xml/xml.h"

namespace vmp::classad {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

char fold(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c | 0x20) : c; }

/// FNV-1a over the case-folded name: equal (ignoring case) names hash
/// equal, so a lookup compares one word per slot before any characters.
std::uint32_t name_key(std::string_view name) {
  std::uint32_t h = 2166136261u;
  for (char c : name) {
    h = (h ^ static_cast<unsigned char>(fold(c))) * 16777619u;
  }
  return h;
}

bool same_name(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fold(a[i]) != fold(b[i])) return false;
  }
  return true;
}

std::optional<std::int64_t> integer_of(const Value& v) {
  if (v.type() == ValueType::kInteger) return v.as_integer();
  return std::nullopt;
}
std::optional<double> number_of(const Value& v) {
  if (v.is_number()) return v.as_number();
  return std::nullopt;
}
std::optional<std::string> string_of(const Value& v) {
  if (v.type() == ValueType::kString) return v.as_string();
  return std::nullopt;
}
std::optional<bool> boolean_of(const Value& v) {
  if (v.type() == ValueType::kBoolean) return v.as_boolean();
  return std::nullopt;
}

}  // namespace

std::size_t ClassAd::find(std::string_view name, std::uint32_t key) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].key == key && same_name(slots_[i].name, name)) return i;
  }
  return kNoSlot;
}

std::size_t ClassAd::find(std::string_view name) const {
  return find(name, name_key(name));
}

void ClassAd::put(std::uint32_t key, const std::string& name,
                  SharedExpr expr) {
  const std::size_t slot = find(name, key);
  if (slot == kNoSlot) {
    slots_.push_back(Slot{key, name, std::move(expr)});
  } else {
    slots_[slot].name = name;
    slots_[slot].expr = std::move(expr);
  }
}

void ClassAd::set(const std::string& name, ExprPtr expr) {
  put(name_key(name), name, SharedExpr(std::move(expr)));
}

void ClassAd::set_integer(const std::string& name, std::int64_t v) {
  set(name, std::make_unique<LiteralExpr>(Value::integer(v)));
}
void ClassAd::set_real(const std::string& name, double v) {
  set(name, std::make_unique<LiteralExpr>(Value::real(v)));
}
void ClassAd::set_string(const std::string& name, std::string v) {
  set(name, std::make_unique<LiteralExpr>(Value::string(std::move(v))));
}
void ClassAd::set_boolean(const std::string& name, bool v) {
  set(name, std::make_unique<LiteralExpr>(Value::boolean(v)));
}

Status ClassAd::set_expression(const std::string& name,
                               const std::string& expr_text) {
  auto expr = parse_expression(expr_text);
  if (!expr.ok()) return expr.error();
  set(name, std::move(expr).value());
  return Status();
}

void ClassAd::merge(const ClassAd& updates) {
  for (const Slot& slot : updates.slots_) put(slot.key, slot.name, slot.expr);
}

bool ClassAd::erase(const std::string& name) {
  const std::size_t slot = find(name);
  if (slot == kNoSlot) return false;
  slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(slot));
  return true;
}

bool ClassAd::has(const std::string& name) const {
  return find(name) != kNoSlot;
}

std::vector<std::string> ClassAd::names() const {
  std::vector<std::string> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) out.push_back(slot.name);
  return out;
}

const Expr* ClassAd::lookup(const std::string& name) const {
  const std::size_t slot = find(name);
  return slot == kNoSlot ? nullptr : slots_[slot].expr.get();
}

Value ClassAd::evaluate_slot(std::size_t slot, const ClassAd* other) const {
  const Expr& expr = *slots_[slot].expr;
  if (const Value* literal = expr.literal()) return *literal;
  EvalContext ctx;
  ctx.self = this;
  ctx.other = other;
  // Mark the root attribute as in progress so `x = x + 1` is ERROR.
  ctx.in_progress.emplace_back(this, slot);
  return expr.evaluate(ctx);
}

Value ClassAd::evaluate(const std::string& name, const ClassAd* other) const {
  const std::size_t slot = find(name);
  if (slot == kNoSlot) return Value::undefined();
  return evaluate_slot(slot, other);
}

template <typename Pick>
auto ClassAd::read(const std::string& name, Pick pick) const
    -> decltype(pick(std::declval<const Value&>())) {
  const std::size_t slot = find(name);
  if (slot == kNoSlot) return std::nullopt;
  if (const Value* literal = slots_[slot].expr->literal()) {
    return pick(*literal);
  }
  return pick(evaluate_slot(slot, nullptr));
}

std::optional<std::int64_t> ClassAd::get_integer(const std::string& name) const {
  return read(name, integer_of);
}

std::optional<double> ClassAd::get_number(const std::string& name) const {
  return read(name, number_of);
}

std::optional<std::string> ClassAd::get_string(const std::string& name) const {
  return read(name, string_of);
}

std::optional<bool> ClassAd::get_boolean(const std::string& name) const {
  return read(name, boolean_of);
}

std::string ClassAd::to_string() const {
  std::string out = "[ ";
  for (const Slot& slot : slots_) {
    out += slot.name;
    out += " = ";
    out += slot.expr->to_string();
    out += "; ";
  }
  out += "]";
  return out;
}

void ClassAd::to_xml(xml::Element* parent) const {
  xml::Element& ad = parent->add_child("classad");
  ad.reserve_children(slots_.size());
  for (const Slot& slot : slots_) {
    xml::Element& attr = ad.add_child("attr");
    attr.set_attr("name", slot.name);
    attr.set_text(slot.expr->to_string());
  }
}

Result<ClassAd> ClassAd::from_xml(const xml::Element& element) {
  const xml::Element* ad_elem =
      element.name() == "classad" ? &element : element.child("classad");
  if (ad_elem == nullptr) {
    return Result<ClassAd>(
        Error(ErrorCode::kParseError, "classad: missing <classad> element"));
  }
  ClassAd ad;
  ad.slots_.reserve(ad_elem->children().size());
  for (const xml::Element& attr : ad_elem->children()) {
    if (attr.name() != "attr") continue;
    if (!attr.has_attr("name")) {
      return Result<ClassAd>(
          Error(ErrorCode::kParseError, "classad: <attr> without name"));
    }
    Status s = ad.set_expression(attr.attr("name"), attr.text());
    if (!s.ok()) return s.propagate<ClassAd>();
  }
  return ad;
}

bool ClassAd::operator==(const ClassAd& other) const {
  if (slots_.size() != other.slots_.size()) return false;
  for (const Slot& slot : slots_) {
    const std::size_t match = other.find(slot.name, slot.key);
    if (match == kNoSlot) return false;
    const Expr* theirs = other.slots_[match].expr.get();
    if (slot.expr.get() != theirs &&
        slot.expr->to_string() != theirs->to_string()) {
      return false;
    }
  }
  return true;
}

}  // namespace vmp::classad
