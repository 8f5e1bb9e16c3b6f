// Classad expression tree and evaluator.
//
// Grammar (precedence low to high):
//   or:         expr '||' expr
//   and:        expr '&&' expr
//   comparison: expr (== != < <= > >=) expr
//   additive:   expr (+ -) expr
//   multiplic.: expr (* / %) expr
//   unary:      '!' expr | '-' expr
//   primary:    literal | attribute-ref | 'other.attr' | 'self.attr'
//               | function '(' args ')' | '(' expr ')'
//
// Three-valued logic follows Condor semantics: UNDEFINED short-circuits
// through && / || where the other operand decides (FALSE && UNDEFINED is
// FALSE); arithmetic and comparisons on UNDEFINED yield UNDEFINED; any
// operation on ERROR yields ERROR.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "classad/value.h"

namespace vmp::classad {

class ClassAd;

/// Evaluation context: `self` is the ad owning the expression; `other` is
/// the candidate ad during matchmaking (may be null).
struct EvalContext {
  const ClassAd* self = nullptr;
  const ClassAd* other = nullptr;
  /// Recursion guard for cyclic attribute references: the (ad, slot
  /// index) of every attribute whose evaluation is in progress.
  mutable std::vector<std::pair<const ClassAd*, std::size_t>> in_progress;
};

class Expr {
 public:
  Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;
  virtual ~Expr() = default;
  virtual Value evaluate(const EvalContext& ctx) const = 0;
  /// Unparse back to classad syntax.
  virtual std::string to_string() const = 0;
  virtual std::unique_ptr<Expr> clone() const = 0;
  /// The value of a literal node; nullptr for every other kind.
  virtual const Value* literal() const { return nullptr; }

 private:
  friend class SharedExpr;
  /// Holders of this expression as a SharedExpr (0 while uniquely owned).
  mutable std::atomic<std::uint32_t> shares_{0};
};

using ExprPtr = std::unique_ptr<Expr>;

/// An immutable expression shared by reference: ClassAd slots hold these,
/// so copying an ad bumps one count per attribute instead of cloning each
/// tree.  The count lives in the Expr itself (one allocation per
/// expression).  Copies may be made and dropped from any thread; the
/// expression is never mutated once shared.
class SharedExpr {
 public:
  SharedExpr() = default;
  explicit SharedExpr(ExprPtr expr) : expr_(expr.release()) { retain(); }
  SharedExpr(const SharedExpr& other) : expr_(other.expr_) { retain(); }
  SharedExpr(SharedExpr&& other) noexcept
      : expr_(std::exchange(other.expr_, nullptr)) {}
  SharedExpr& operator=(SharedExpr other) noexcept {
    std::swap(expr_, other.expr_);
    return *this;
  }
  ~SharedExpr() {
    if (expr_ != nullptr && expr_->shares_.fetch_sub(1) == 1) delete expr_;
  }

  const Expr* get() const { return expr_; }
  const Expr* operator->() const { return expr_; }
  const Expr& operator*() const { return *expr_; }

 private:
  void retain() {
    if (expr_ != nullptr) expr_->shares_.fetch_add(1);
  }

  const Expr* expr_ = nullptr;
};

// -- Node kinds --------------------------------------------------------------

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}
  Value evaluate(const EvalContext&) const override { return value_; }
  std::string to_string() const override { return value_.to_string(); }
  ExprPtr clone() const override {
    return std::make_unique<LiteralExpr>(value_);
  }
  const Value* literal() const override { return &value_; }

 private:
  Value value_;
};

/// Attribute reference with optional scope: name, self.name, other.name.
class AttrRefExpr final : public Expr {
 public:
  enum class Scope { kDefault, kSelf, kOther };
  AttrRefExpr(Scope scope, std::string name)
      : scope_(scope), name_(std::move(name)) {}
  Value evaluate(const EvalContext& ctx) const override;
  std::string to_string() const override;
  ExprPtr clone() const override {
    return std::make_unique<AttrRefExpr>(scope_, name_);
  }
  const std::string& name() const { return name_; }
  Scope scope() const { return scope_; }

 private:
  Scope scope_;
  std::string name_;
};

enum class BinaryOp {
  kOr, kAnd,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv, kMod,
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Value evaluate(const EvalContext& ctx) const override;
  std::string to_string() const override;
  ExprPtr clone() const override {
    return std::make_unique<BinaryExpr>(op_, lhs_->clone(), rhs_->clone());
  }

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

enum class UnaryOp { kNot, kNegate };

class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}
  Value evaluate(const EvalContext& ctx) const override;
  std::string to_string() const override;
  ExprPtr clone() const override {
    return std::make_unique<UnaryExpr>(op_, operand_->clone());
  }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

/// Built-in functions: isUndefined(x), isError(x), int(x), real(x),
/// floor(x), ceiling(x), min(a,b), max(a,b), strcat(a,b,...),
/// stringListMember(item, "a,b,c").
class FunctionExpr final : public Expr {
 public:
  FunctionExpr(std::string name, std::vector<ExprPtr> args)
      : name_(std::move(name)), args_(std::move(args)) {}
  Value evaluate(const EvalContext& ctx) const override;
  std::string to_string() const override;
  ExprPtr clone() const override;

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

}  // namespace vmp::classad
