#include "classad/expr.h"

#include <algorithm>
#include <cmath>

#include "classad/classad.h"
#include "util/strings.h"

namespace vmp::classad {

namespace {

const char* op_token(BinaryOp op) {
  switch (op) {
    case BinaryOp::kOr: return "||";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
  }
  return "?";
}

/// Lift a value to "logical" form: TRUE/FALSE for booleans, nonzero test
/// for numbers, UNDEFINED/ERROR pass through, strings are ERROR in boolean
/// position (Condor treats them as non-boolean).
Value to_logical(const Value& v) {
  switch (v.type()) {
    case ValueType::kBoolean:
    case ValueType::kUndefined:
    case ValueType::kError:
      return v;
    case ValueType::kInteger:
      return Value::boolean(v.as_integer() != 0);
    case ValueType::kReal:
      return Value::boolean(v.as_real() != 0.0);
    case ValueType::kString:
      return Value::error();
  }
  return Value::error();
}

Value eval_and(const Value& lhs_raw, const Value& rhs_raw) {
  const Value lhs = to_logical(lhs_raw);
  const Value rhs = to_logical(rhs_raw);
  if (lhs.is_error() || rhs.is_error()) return Value::error();
  // FALSE dominates UNDEFINED.
  if (lhs.type() == ValueType::kBoolean && !lhs.as_boolean()) {
    return Value::boolean(false);
  }
  if (rhs.type() == ValueType::kBoolean && !rhs.as_boolean()) {
    return Value::boolean(false);
  }
  if (lhs.is_undefined() || rhs.is_undefined()) return Value::undefined();
  return Value::boolean(lhs.as_boolean() && rhs.as_boolean());
}

Value eval_or(const Value& lhs_raw, const Value& rhs_raw) {
  const Value lhs = to_logical(lhs_raw);
  const Value rhs = to_logical(rhs_raw);
  if (lhs.is_error() || rhs.is_error()) return Value::error();
  // TRUE dominates UNDEFINED.
  if (lhs.type() == ValueType::kBoolean && lhs.as_boolean()) {
    return Value::boolean(true);
  }
  if (rhs.type() == ValueType::kBoolean && rhs.as_boolean()) {
    return Value::boolean(true);
  }
  if (lhs.is_undefined() || rhs.is_undefined()) return Value::undefined();
  return Value::boolean(lhs.as_boolean() || rhs.as_boolean());
}

Value eval_comparison(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_error() || rhs.is_error()) return Value::error();
  if (lhs.is_undefined() || rhs.is_undefined()) return Value::undefined();

  int cmp;  // -1, 0, 1
  if (lhs.is_number() && rhs.is_number()) {
    const double a = lhs.as_number();
    const double b = rhs.as_number();
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else if (lhs.type() == ValueType::kString &&
             rhs.type() == ValueType::kString) {
    // Condor string comparison is case-insensitive.
    const std::string a = util::to_lower(lhs.as_string());
    const std::string b = util::to_lower(rhs.as_string());
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else if (lhs.type() == ValueType::kBoolean &&
             rhs.type() == ValueType::kBoolean) {
    const int a = lhs.as_boolean() ? 1 : 0;
    const int b = rhs.as_boolean() ? 1 : 0;
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else {
    // Mixed incomparable types: equality is decidable, ordering is ERROR.
    if (op == BinaryOp::kEq) return Value::boolean(false);
    if (op == BinaryOp::kNe) return Value::boolean(true);
    return Value::error();
  }

  switch (op) {
    case BinaryOp::kEq: return Value::boolean(cmp == 0);
    case BinaryOp::kNe: return Value::boolean(cmp != 0);
    case BinaryOp::kLt: return Value::boolean(cmp < 0);
    case BinaryOp::kLe: return Value::boolean(cmp <= 0);
    case BinaryOp::kGt: return Value::boolean(cmp > 0);
    case BinaryOp::kGe: return Value::boolean(cmp >= 0);
    default: return Value::error();
  }
}

Value eval_arithmetic(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_error() || rhs.is_error()) return Value::error();
  if (lhs.is_undefined() || rhs.is_undefined()) return Value::undefined();

  // String concatenation via '+'.
  if (op == BinaryOp::kAdd && lhs.type() == ValueType::kString &&
      rhs.type() == ValueType::kString) {
    return Value::string(lhs.as_string() + rhs.as_string());
  }
  if (!lhs.is_number() || !rhs.is_number()) return Value::error();

  const bool both_int = lhs.type() == ValueType::kInteger &&
                        rhs.type() == ValueType::kInteger;
  if (both_int) {
    const std::int64_t a = lhs.as_integer();
    const std::int64_t b = rhs.as_integer();
    switch (op) {
      case BinaryOp::kAdd: return Value::integer(a + b);
      case BinaryOp::kSub: return Value::integer(a - b);
      case BinaryOp::kMul: return Value::integer(a * b);
      case BinaryOp::kDiv:
        return b == 0 ? Value::error() : Value::integer(a / b);
      case BinaryOp::kMod:
        return b == 0 ? Value::error() : Value::integer(a % b);
      default: return Value::error();
    }
  }
  const double a = lhs.as_number();
  const double b = rhs.as_number();
  switch (op) {
    case BinaryOp::kAdd: return Value::real(a + b);
    case BinaryOp::kSub: return Value::real(a - b);
    case BinaryOp::kMul: return Value::real(a * b);
    case BinaryOp::kDiv: return b == 0.0 ? Value::error() : Value::real(a / b);
    case BinaryOp::kMod:
      return b == 0.0 ? Value::error() : Value::real(std::fmod(a, b));
    default: return Value::error();
  }
}

}  // namespace

// -- AttrRefExpr -------------------------------------------------------------

Value AttrRefExpr::evaluate(const EvalContext& ctx) const {
  const ClassAd* ad = scope_ == Scope::kOther ? ctx.other : ctx.self;
  if (ad == nullptr) return Value::undefined();

  std::size_t slot = ad->find(name_);
  if (slot == ClassAd::kNoSlot && scope_ == Scope::kDefault &&
      ctx.other != nullptr) {
    // Unscoped names fall through to the other ad when absent in self —
    // this is what lets Requirements say `memory >= 64` against the
    // candidate without writing `other.memory` everywhere.
    ad = ctx.other;
    slot = ad->find(name_);
  }
  if (slot == ClassAd::kNoSlot) return Value::undefined();

  // Cycle guard: attribute currently being evaluated referencing itself.
  const std::pair<const ClassAd*, std::size_t> key{ad, slot};
  if (std::find(ctx.in_progress.begin(), ctx.in_progress.end(), key) !=
      ctx.in_progress.end()) {
    return Value::error();
  }
  const Expr& expr = *ad->slots_[slot].expr;
  if (const Value* literal = expr.literal()) return *literal;
  // The nested evaluation borrows the guard stack and hands it back.
  EvalContext nested;
  nested.self = ad;
  nested.other = ctx.other;
  nested.in_progress = std::move(ctx.in_progress);
  nested.in_progress.push_back(key);
  const Value v = expr.evaluate(nested);
  nested.in_progress.pop_back();
  ctx.in_progress = std::move(nested.in_progress);
  return v;
}

std::string AttrRefExpr::to_string() const {
  switch (scope_) {
    case Scope::kSelf: return "self." + name_;
    case Scope::kOther: return "other." + name_;
    case Scope::kDefault: return name_;
  }
  return name_;
}

// -- BinaryExpr --------------------------------------------------------------

Value BinaryExpr::evaluate(const EvalContext& ctx) const {
  // && and || need lazy semantics for short-circuit against ERROR?  Condor
  // evaluates both sides but FALSE/TRUE dominate UNDEFINED; we follow that,
  // evaluating eagerly (expressions are side-effect free).
  const Value lhs = lhs_->evaluate(ctx);
  const Value rhs = rhs_->evaluate(ctx);
  switch (op_) {
    case BinaryOp::kAnd: return eval_and(lhs, rhs);
    case BinaryOp::kOr: return eval_or(lhs, rhs);
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return eval_comparison(op_, lhs, rhs);
    default:
      return eval_arithmetic(op_, lhs, rhs);
  }
}

std::string BinaryExpr::to_string() const {
  // Appended piece by piece: GCC 12's -Wrestrict misreads the inlined
  // operator+ chain over a string literal.
  std::string out = "(";
  out += lhs_->to_string();
  out += ' ';
  out += op_token(op_);
  out += ' ';
  out += rhs_->to_string();
  out += ')';
  return out;
}

// -- UnaryExpr ---------------------------------------------------------------

Value UnaryExpr::evaluate(const EvalContext& ctx) const {
  const Value v = operand_->evaluate(ctx);
  if (v.is_error()) return Value::error();
  if (v.is_undefined()) return Value::undefined();
  if (op_ == UnaryOp::kNot) {
    const Value logical = to_logical(v);
    if (logical.type() != ValueType::kBoolean) return Value::error();
    return Value::boolean(!logical.as_boolean());
  }
  if (v.type() == ValueType::kInteger) return Value::integer(-v.as_integer());
  if (v.type() == ValueType::kReal) return Value::real(-v.as_real());
  return Value::error();
}

std::string UnaryExpr::to_string() const {
  std::string out(1, op_ == UnaryOp::kNot ? '!' : '-');
  out += operand_->to_string();
  return out;
}

// -- FunctionExpr ------------------------------------------------------------

Value FunctionExpr::evaluate(const EvalContext& ctx) const {
  std::vector<Value> args;
  args.reserve(args_.size());
  for (const auto& a : args_) args.push_back(a->evaluate(ctx));

  const std::string name = util::to_lower(name_);
  auto arity_error = [&](std::size_t want) {
    return args.size() != want;
  };

  if (name == "isundefined") {
    if (arity_error(1)) return Value::error();
    return Value::boolean(args[0].is_undefined());
  }
  if (name == "iserror") {
    if (arity_error(1)) return Value::error();
    return Value::boolean(args[0].is_error());
  }
  if (name == "int") {
    if (arity_error(1)) return Value::error();
    if (args[0].type() == ValueType::kInteger) return args[0];
    if (args[0].type() == ValueType::kReal) {
      return Value::integer(static_cast<std::int64_t>(args[0].as_real()));
    }
    if (args[0].type() == ValueType::kString) {
      long long v = 0;
      if (util::parse_int64(args[0].as_string(), &v)) return Value::integer(v);
    }
    return Value::error();
  }
  if (name == "real") {
    if (arity_error(1)) return Value::error();
    if (args[0].is_number()) return Value::real(args[0].as_number());
    if (args[0].type() == ValueType::kString) {
      double v = 0;
      if (util::parse_double(args[0].as_string(), &v)) return Value::real(v);
    }
    return Value::error();
  }
  if (name == "floor" || name == "ceiling") {
    if (arity_error(1)) return Value::error();
    if (!args[0].is_number()) return Value::error();
    const double v = args[0].as_number();
    return Value::integer(static_cast<std::int64_t>(
        name == "floor" ? std::floor(v) : std::ceil(v)));
  }
  if (name == "min" || name == "max") {
    if (arity_error(2)) return Value::error();
    if (!args[0].is_number() || !args[1].is_number()) return Value::error();
    const double a = args[0].as_number();
    const double b = args[1].as_number();
    const double r = name == "min" ? std::min(a, b) : std::max(a, b);
    if (args[0].type() == ValueType::kInteger &&
        args[1].type() == ValueType::kInteger) {
      return Value::integer(static_cast<std::int64_t>(r));
    }
    return Value::real(r);
  }
  if (name == "strcat") {
    std::string out;
    for (const Value& v : args) {
      if (v.is_error()) return Value::error();
      if (v.is_undefined()) return Value::undefined();
      if (v.type() == ValueType::kString) {
        out += v.as_string();
      } else {
        out += v.to_string();
      }
    }
    return Value::string(std::move(out));
  }
  if (name == "stringlistmember") {
    if (arity_error(2)) return Value::error();
    if (args[0].type() != ValueType::kString ||
        args[1].type() != ValueType::kString) {
      return Value::error();
    }
    for (const std::string& item : util::split(args[1].as_string(), ',')) {
      if (util::iequals(util::trim(item), args[0].as_string())) {
        return Value::boolean(true);
      }
    }
    return Value::boolean(false);
  }
  return Value::error();
}

std::string FunctionExpr::to_string() const {
  std::string out = name_ + "(";
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (i) out += ", ";
    out += args_[i]->to_string();
  }
  out += ")";
  return out;
}

ExprPtr FunctionExpr::clone() const {
  std::vector<ExprPtr> args;
  args.reserve(args_.size());
  for (const auto& a : args_) args.push_back(a->clone());
  return std::make_unique<FunctionExpr>(name_, std::move(args));
}

}  // namespace vmp::classad
