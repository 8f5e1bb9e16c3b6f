// Property tests for the classad expression engine: randomly generated
// expression trees must unparse -> reparse -> evaluate identically, and
// evaluation must be total (no crashes, no hangs) over random ads.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "classad/classad.h"
#include "classad/matchmaker.h"
#include "classad_reference.h"
#include "util/random.h"
#include "xml/xml.h"

namespace vmp::classad {
namespace {

/// Random expression tree generator.  Depth-bounded; leaves are literals or
/// attribute references into a known attribute universe.
class ExprGen {
 public:
  explicit ExprGen(std::uint64_t seed) : rng_(seed) {}

  ExprPtr gen(int depth) {
    if (depth <= 0 || rng_.bernoulli(0.3)) return leaf();
    switch (rng_.next_below(3)) {
      case 0: {
        static const BinaryOp kOps[] = {
            BinaryOp::kOr,  BinaryOp::kAnd, BinaryOp::kEq,  BinaryOp::kNe,
            BinaryOp::kLt,  BinaryOp::kLe,  BinaryOp::kGt,  BinaryOp::kGe,
            BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
            BinaryOp::kMod};
        return std::make_unique<BinaryExpr>(kOps[rng_.next_below(13)],
                                            gen(depth - 1), gen(depth - 1));
      }
      case 1:
        return std::make_unique<UnaryExpr>(
            rng_.bernoulli(0.5) ? UnaryOp::kNot : UnaryOp::kNegate,
            gen(depth - 1));
      default: {
        static const char* kFns[] = {"isUndefined", "int",  "real",
                                     "floor",       "min",  "max",
                                     "strcat",      "isError"};
        const char* fn = kFns[rng_.next_below(8)];
        std::vector<ExprPtr> args;
        const std::size_t arity =
            (std::string(fn) == "min" || std::string(fn) == "max") ? 2 : 1;
        for (std::size_t i = 0; i < arity; ++i) args.push_back(gen(depth - 1));
        return std::make_unique<FunctionExpr>(fn, std::move(args));
      }
    }
  }

  ExprPtr leaf() {
    switch (rng_.next_below(6)) {
      case 0:
        return std::make_unique<LiteralExpr>(
            Value::integer(static_cast<std::int64_t>(rng_.next_below(200)) - 100));
      case 1:
        return std::make_unique<LiteralExpr>(
            Value::real(rng_.uniform(-8.0, 8.0)));
      case 2:
        return std::make_unique<LiteralExpr>(Value::boolean(rng_.bernoulli(0.5)));
      case 3: {
        // Appended, not "s" + ...: GCC 12's -Wrestrict misreads that
        // inlined operator+ at -O3.
        std::string text(1, 's');
        text += std::to_string(rng_.next_below(4));
        return std::make_unique<LiteralExpr>(Value::string(std::move(text)));
      }
      case 4:
        return std::make_unique<LiteralExpr>(Value::undefined());
      default: {
        static const char* kAttrs[] = {"Memory", "OS", "Disk", "Missing"};
        return std::make_unique<AttrRefExpr>(
            rng_.bernoulli(0.3) ? AttrRefExpr::Scope::kOther
                                : AttrRefExpr::Scope::kDefault,
            kAttrs[rng_.next_below(4)]);
      }
    }
  }

 private:
  util::SplitMix64 rng_;
};

ClassAd sample_ad() {
  ClassAd ad;
  ad.set_integer("Memory", 128);
  ad.set_string("OS", "linux");
  ad.set_real("Disk", 2048.5);
  return ad;
}

class ExprProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExprProperty, UnparseReparseEvaluatesIdentically) {
  ExprGen gen(GetParam());
  const ClassAd self = sample_ad();
  ClassAd other;
  other.set_integer("Memory", 64);

  for (int i = 0; i < 200; ++i) {
    ExprPtr expr = gen.gen(4);
    const std::string text = expr->to_string();
    auto reparsed = parse_expression(text);
    ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.error().to_string();

    EvalContext ctx;
    ctx.self = &self;
    ctx.other = &other;
    const Value a = expr->evaluate(ctx);
    EvalContext ctx2;
    ctx2.self = &self;
    ctx2.other = &other;
    const Value b = reparsed.value()->evaluate(ctx2);

    // Reals may differ in the last ulp through the decimal round-trip;
    // format_double is shortest-round-trip so equality should be exact.
    EXPECT_EQ(a.to_string(), b.to_string()) << text;
  }
}

TEST_P(ExprProperty, CloneEvaluatesIdentically) {
  ExprGen gen(GetParam() ^ 0xC10E);
  const ClassAd self = sample_ad();
  for (int i = 0; i < 200; ++i) {
    ExprPtr expr = gen.gen(4);
    ExprPtr copy = expr->clone();
    EvalContext ctx;
    ctx.self = &self;
    EvalContext ctx2;
    ctx2.self = &self;
    EXPECT_EQ(expr->evaluate(ctx).to_string(),
              copy->evaluate(ctx2).to_string());
    EXPECT_EQ(expr->to_string(), copy->to_string());
  }
}

TEST_P(ExprProperty, EvaluationIsTotalWithoutContext) {
  // No self/other at all: every expression must still evaluate to SOME
  // value (UNDEFINED/ERROR permitted, crashes not).
  ExprGen gen(GetParam() ^ 0x707A1);
  for (int i = 0; i < 300; ++i) {
    ExprPtr expr = gen.gen(5);
    EvalContext ctx;
    const Value v = expr->evaluate(ctx);
    (void)v.to_string();
  }
}

TEST_P(ExprProperty, SymmetricMatchIsSymmetricInStructure) {
  // symmetric_match(a, b) uses a.Requirements vs b and b.Requirements vs a;
  // with both Requirements TRUE constants it must hold both ways.
  ClassAd a = sample_ad();
  ClassAd b = sample_ad();
  ASSERT_TRUE(a.set_expression("Requirements", "other.Memory >= 1").ok());
  ASSERT_TRUE(b.set_expression("Requirements", "other.Memory >= 1").ok());
  EXPECT_EQ(symmetric_match(a, b), symmetric_match(b, a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// -- Differential: ClassAd against the reference model ------------------------

/// Mixed-case spellings of five attributes, so that every operation also
/// exercises case-insensitive lookup and display-name replacement.
const char* const kAdNames[] = {"Memory", "MEMORY", "memory", "Os",   "OS",
                                "vmId",   "VMID",   "Cpu",    "cpu",  "x",
                                "X",      "Absent"};
constexpr std::size_t kAdNameCount = sizeof(kAdNames) / sizeof(kAdNames[0]);

/// Random ops over two ads (each also the other's match partner), applied
/// to ClassAd and to the reference model in lockstep.
class AdDifferential {
 public:
  explicit AdDifferential(std::uint64_t seed) : rng_(seed) {}

  const char* name() { return kAdNames[rng_.next_below(kAdNameCount)]; }

  ExprPtr expr(int depth) {
    if (depth <= 0 || rng_.bernoulli(0.35)) {
      switch (rng_.next_below(5)) {
        case 0:
          return std::make_unique<LiteralExpr>(Value::integer(
              static_cast<std::int64_t>(rng_.next_below(21)) - 10));
        case 1:
          return std::make_unique<LiteralExpr>(
              Value::string(rng_.bernoulli(0.5) ? "linux" : "a\"q\\"));
        case 2:
          return std::make_unique<LiteralExpr>(
              Value::boolean(rng_.bernoulli(0.5)));
        default: {
          static const AttrRefExpr::Scope kScopes[] = {
              AttrRefExpr::Scope::kDefault, AttrRefExpr::Scope::kDefault,
              AttrRefExpr::Scope::kSelf, AttrRefExpr::Scope::kOther};
          return std::make_unique<AttrRefExpr>(kScopes[rng_.next_below(4)],
                                               name());
        }
      }
    }
    switch (rng_.next_below(4)) {
      case 0: {
        static const BinaryOp kOps[] = {BinaryOp::kAdd, BinaryOp::kMul,
                                        BinaryOp::kEq,  BinaryOp::kLt,
                                        BinaryOp::kAnd, BinaryOp::kOr};
        return std::make_unique<BinaryExpr>(kOps[rng_.next_below(6)],
                                            expr(depth - 1), expr(depth - 1));
      }
      case 1:
        return std::make_unique<UnaryExpr>(UnaryOp::kNegate, expr(depth - 1));
      default: {
        std::vector<ExprPtr> args;
        args.push_back(expr(depth - 1));
        return std::make_unique<FunctionExpr>(
            rng_.bernoulli(0.5) ? "isUndefined" : "isError", std::move(args));
      }
    }
  }

  /// One random edit of `ad` and its reference twin.
  void edit(ClassAd* ad, testing::ReferenceAd* ref) {
    const std::string n = name();
    switch (rng_.next_below(7)) {
      case 0: {
        const auto v = static_cast<std::int64_t>(rng_.next_below(100));
        ad->set_integer(n, v);
        ref->set(n, std::make_unique<LiteralExpr>(Value::integer(v)));
        break;
      }
      case 1: {
        std::string v(1, 's');  // appended: GCC 12 -Wrestrict at -O3
        v += std::to_string(rng_.next_below(3));
        ad->set_string(n, v);
        ref->set(n, std::make_unique<LiteralExpr>(Value::string(v)));
        break;
      }
      case 2: {
        const bool v = rng_.bernoulli(0.5);
        ad->set_boolean(n, v);
        ref->set(n, std::make_unique<LiteralExpr>(Value::boolean(v)));
        break;
      }
      case 3: {
        ad->set_real(n, 2.5);
        ref->set(n, std::make_unique<LiteralExpr>(Value::real(2.5)));
        break;
      }
      case 4: {
        const std::string text = expr(3)->to_string();
        ASSERT_TRUE(ad->set_expression(n, text).ok()) << text;
        ref->set(n, parse_expression(text).value());
        break;
      }
      case 5: {
        ExprPtr e = expr(3);
        ad->set(n, e->clone());
        ref->set(n, std::move(e));
        break;
      }
      default:
        EXPECT_EQ(ad->erase(n), ref->erase(n)) << n;
        break;
    }
  }

  util::SplitMix64& rng() { return rng_; }

 private:
  util::SplitMix64 rng_;
};

std::string xml_of(const auto& ad) {
  xml::Element root("root");
  ad.to_xml(&root);
  return root.to_string();
}

/// Every observable of `ad` equals the reference's, with `other` (and its
/// reference twin) as the match partner.
void expect_same(const ClassAd& ad, const testing::ReferenceAd& ref,
                 const ClassAd& other, const testing::ReferenceAd& ref_other,
                 const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(ad.names(), ref.names());
  EXPECT_EQ(ad.size(), ref.names().size());
  EXPECT_EQ(ad.to_string(), ref.to_string());
  EXPECT_EQ(xml_of(ad), xml_of(ref));
  for (const char* n : kAdNames) {
    SCOPED_TRACE(n);
    EXPECT_EQ(ad.has(n), ref.has(n));
    const Expr* got = ad.lookup(n);
    const Expr* want = ref.lookup(n);
    ASSERT_EQ(got == nullptr, want == nullptr);
    if (got != nullptr) {
      EXPECT_EQ(got->to_string(), want->to_string());
    }

    const Value alone = ref.evaluate(n);
    EXPECT_EQ(ad.evaluate(n).to_string(), alone.to_string());
    EXPECT_EQ(ad.evaluate(n, &other).to_string(),
              ref.evaluate(n, &ref_other).to_string());
    const auto typed = [&](ValueType type) { return alone.type() == type; };
    EXPECT_EQ(ad.get_integer(n).has_value(), typed(ValueType::kInteger));
    if (typed(ValueType::kInteger)) {
      EXPECT_EQ(*ad.get_integer(n), alone.as_integer());
    }
    EXPECT_EQ(ad.get_number(n).has_value(), alone.is_number());
    if (alone.is_number()) {
      EXPECT_EQ(*ad.get_number(n), alone.as_number());
    }
    EXPECT_EQ(ad.get_string(n).has_value(), typed(ValueType::kString));
    if (typed(ValueType::kString)) {
      EXPECT_EQ(*ad.get_string(n), alone.as_string());
    }
    EXPECT_EQ(ad.get_boolean(n).has_value(), typed(ValueType::kBoolean));
    if (typed(ValueType::kBoolean)) {
      EXPECT_EQ(*ad.get_boolean(n), alone.as_boolean());
    }
  }
}

class AdDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdDifferentialTest, MatchesTheReferenceModel) {
  AdDifferential gen(GetParam());
  ClassAd ads[2];
  testing::ReferenceAd refs[2];
  for (int step = 0; step < 300; ++step) {
    const std::size_t i = gen.rng().next_below(2);
    const std::size_t j = 1 - i;
    const std::uint64_t op = gen.rng().next_below(10);
    if (op == 0) {
      // Copy assignment, then an edit on one side only.
      ads[j] = ads[i];
      refs[j] = refs[i];
      gen.edit(&ads[j], &refs[j]);
    } else if (op == 1) {
      // A copy edited on its own never changes the original.
      const std::string before = ads[i].to_string();
      ClassAd copy(ads[i]);
      testing::ReferenceAd ref_copy(refs[i]);
      for (int k = 0; k < 3; ++k) gen.edit(&copy, &ref_copy);
      EXPECT_EQ(ads[i].to_string(), before);
      expect_same(copy, ref_copy, ads[j], refs[j], "copy");
      // And the original edited afterwards never changes the copy.
      const std::string copy_before = copy.to_string();
      gen.edit(&ads[i], &refs[i]);
      EXPECT_EQ(copy.to_string(), copy_before);
    } else {
      gen.edit(&ads[i], &refs[i]);
    }
    expect_same(ads[0], refs[0], ads[1], refs[1],
                "ad 0 after step " + std::to_string(step));
    expect_same(ads[1], refs[1], ads[0], refs[0],
                "ad 1 after step " + std::to_string(step));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(AdReferenceTest, CyclesAndOtherScopeAreCovered) {
  // The random walk above must reach the interesting cases; pin one of each
  // so a generator change cannot silently drop them.
  ClassAd a;
  ClassAd b;
  testing::ReferenceAd ra;
  testing::ReferenceAd rb;
  for (const auto& [name, text] : std::vector<std::pair<std::string,
                                                        std::string>>{
           {"Memory", "cpu + 1"}, {"CPU", "MEMORY"}, {"x", "other.Os"},
           {"vmId", "Absent"}, {"Self1", "self.vmid"}}) {
    ASSERT_TRUE(a.set_expression(name, text).ok());
    ra.set(name, parse_expression(text).value());
  }
  b.set_string("os", "linux");
  rb.set("os", std::make_unique<LiteralExpr>(Value::string("linux")));
  b.set_integer("absent", 7);
  rb.set("absent", std::make_unique<LiteralExpr>(Value::integer(7)));
  EXPECT_TRUE(a.evaluate("memory").is_error());
  EXPECT_EQ(a.evaluate("x", &b).to_string(), "\"linux\"");
  EXPECT_EQ(a.evaluate("self1", &b).to_string(), "7");
  expect_same(a, ra, b, rb, "pinned");
  expect_same(b, rb, a, ra, "pinned partner");
}

TEST(SharedExprTest, CopiesShareExpressionsAcrossThreads) {
  ClassAd base = sample_ad();
  ASSERT_TRUE(base.set_expression("Twice", "Memory * 2").ok());
  ASSERT_TRUE(base.set_expression("Linux", "OS == \"linux\"").ok());
  const ClassAd copy = base;
  // A copy holds the very same expressions, not clones of them.
  for (const std::string& name : base.names()) {
    EXPECT_EQ(copy.lookup(name), base.lookup(name)) << name;
  }

  // Plant workers, the monitor and the shop copy, read, edit and drop ads
  // sharing these expressions at once; the counts must hold (TSan, ASan).
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&base, t] {
      for (int i = 0; i < 2000; ++i) {
        ClassAd mine = base;
        EXPECT_EQ(mine.get_integer("Twice"), 256);
        EXPECT_EQ(mine.get_boolean("Linux"), true);
        mine.set_integer("Memory", t * 1000 + i);
        ClassAd merged;
        merged.merge(mine);
        EXPECT_EQ(merged.get_integer("Twice"), 2 * (t * 1000 + i));
        EXPECT_EQ(merged.lookup("OS"), base.lookup("OS"));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(base.get_integer("Memory"), 128);
  EXPECT_EQ(base.to_string(), copy.to_string());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace vmp::classad
