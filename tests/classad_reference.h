// Reference model of classad::ClassAd for differential tests.
//
// The container half is the original ClassAd representation kept verbatim
// in spirit: an ordered std::map from the case-folded name to a slot that
// owns a deep clone of its expression, plus a vector of folded names in
// insertion order.  Copies deep-clone every expression.
//
// The evaluation half resolves attribute references independently of
// ClassAd: it evaluates every reference in an expression's unparsed text
// under the documented rules (self first, unscoped names fall through to
// `other`, a reference to an attribute already being evaluated is ERROR,
// the referenced expression runs with the ad it was found in as `self` and
// the same `other`), substitutes each value as a literal, and evaluates the
// resulting closed expression with an empty context.
#pragma once

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "classad/classad.h"
#include "util/strings.h"
#include "xml/xml.h"

namespace vmp::classad::testing {

class ReferenceAd {
 public:
  ReferenceAd() = default;
  ReferenceAd(const ReferenceAd& other) { *this = other; }
  ReferenceAd& operator=(const ReferenceAd& other) {
    if (this == &other) return *this;
    attrs_.clear();
    order_ = other.order_;
    for (const auto& [key, slot] : other.attrs_) {
      attrs_.emplace(key, Slot{slot.display_name, slot.expr->clone()});
    }
    return *this;
  }

  void set(const std::string& name, ExprPtr expr) {
    const std::string key = util::to_lower(name);
    auto it = attrs_.find(key);
    if (it == attrs_.end()) {
      order_.push_back(key);
      attrs_.emplace(key, Slot{name, std::move(expr)});
    } else {
      it->second.display_name = name;
      it->second.expr = std::move(expr);
    }
  }

  bool erase(const std::string& name) {
    const std::string key = util::to_lower(name);
    auto it = attrs_.find(key);
    if (it == attrs_.end()) return false;
    attrs_.erase(it);
    order_.erase(std::find(order_.begin(), order_.end(), key));
    return true;
  }

  bool has(const std::string& name) const {
    return attrs_.count(util::to_lower(name)) != 0;
  }

  const Expr* lookup(const std::string& name) const {
    auto it = attrs_.find(util::to_lower(name));
    return it == attrs_.end() ? nullptr : it->second.expr.get();
  }

  std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const std::string& key : order_) {
      out.push_back(attrs_.at(key).display_name);
    }
    return out;
  }

  std::string to_string() const {
    std::string out = "[ ";
    for (const std::string& key : order_) {
      const Slot& slot = attrs_.at(key);
      out += slot.display_name + " = " + slot.expr->to_string() + "; ";
    }
    return out + "]";
  }

  void to_xml(xml::Element* parent) const {
    xml::Element& ad = parent->add_child("classad");
    for (const std::string& key : order_) {
      const Slot& slot = attrs_.at(key);
      xml::Element& attr = ad.add_child("attr");
      attr.set_attr("name", slot.display_name);
      attr.set_text(slot.expr->to_string());
    }
  }

  /// ClassAd::evaluate: the attribute of this ad, `other` as match partner.
  Value evaluate(const std::string& name,
                 const ReferenceAd* other = nullptr) const {
    const Expr* expr = lookup(name);
    if (expr == nullptr) return Value::undefined();
    Stack stack{{this, util::to_lower(name)}};
    return eval_text(expr->to_string(), this, other, &stack);
  }

 private:
  struct Slot {
    std::string display_name;
    ExprPtr expr;
  };
  using Stack = std::vector<std::pair<const ReferenceAd*, std::string>>;

  static bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }

  /// One attribute reference: `scope` is "", "self" or "other".
  static Value eval_ref(const std::string& scope, const std::string& name,
                        const ReferenceAd* self, const ReferenceAd* other,
                        Stack* stack) {
    const ReferenceAd* ad = util::iequals(scope, "other") ? other : self;
    if (ad == nullptr) return Value::undefined();
    const Expr* expr = ad->lookup(name);
    if (expr == nullptr && scope.empty() && other != nullptr) {
      ad = other;
      expr = ad->lookup(name);
    }
    if (expr == nullptr) return Value::undefined();
    const std::pair<const ReferenceAd*, std::string> key{ad,
                                                         util::to_lower(name)};
    if (std::find(stack->begin(), stack->end(), key) != stack->end()) {
      return Value::error();
    }
    stack->push_back(key);
    const Value v = eval_text(expr->to_string(), ad, other, stack);
    stack->pop_back();
    return v;
  }

  /// Evaluate unparsed expression text: every attribute reference becomes
  /// the literal of its value, then the closed text is parsed and run.
  static Value eval_text(const std::string& text, const ReferenceAd* self,
                         const ReferenceAd* other, Stack* stack) {
    std::string closed;
    std::size_t i = 0;
    while (i < text.size()) {
      const char c = text[i];
      if (c == '"') {  // string literal, copied through with its escapes
        std::size_t j = i + 1;
        while (j < text.size() && text[j] != '"') j += text[j] == '\\' ? 2 : 1;
        closed += text.substr(i, j + 1 - i);
        i = j + 1;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {  // number literal
        std::size_t j = i;
        while (j < text.size() &&
               (ident_char(text[j]) || text[j] == '.' ||
                ((text[j] == '-' || text[j] == '+') &&
                 (text[j - 1] == 'e' || text[j - 1] == 'E')))) {
          ++j;
        }
        closed += text.substr(i, j - i);
        i = j;
        continue;
      }
      if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_') {
        closed += c;
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < text.size() && ident_char(text[j])) ++j;
      std::string word = text.substr(i, j - i);
      i = j;
      if (i < text.size() && text[i] == '(') {  // function name
        closed += word;
        continue;
      }
      if (util::iequals(word, "true") || util::iequals(word, "false") ||
          util::iequals(word, "undefined") || util::iequals(word, "error")) {
        closed += word;
        continue;
      }
      std::string scope;
      if ((util::iequals(word, "self") || util::iequals(word, "other")) &&
          i < text.size() && text[i] == '.') {
        scope = word;
        std::size_t k = i + 1;
        while (k < text.size() && ident_char(text[k])) ++k;
        word = text.substr(i + 1, k - i - 1);
        i = k;
      }
      closed += '(';
      closed += eval_ref(scope, word, self, other, stack).to_string();
      closed += ')';
    }
    auto expr = parse_expression(closed);
    if (!expr.ok()) {
      ADD_FAILURE() << "reference substitution \"" << closed
                    << "\" does not parse: " << expr.error().to_string();
      return Value::error();
    }
    return expr.value()->evaluate(EvalContext{});
  }

  std::map<std::string, Slot> attrs_;
  std::vector<std::string> order_;
};

}  // namespace vmp::classad::testing
