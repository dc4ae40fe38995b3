// Array subscript analysis tests (paper §2: FORTRAN techniques applied
// to Lisp arrays): affine parsing, collision distances, extraction,
// conflicts, and the end-to-end pipeline with whole-array locks.
#include "analysis/array.hpp"

#include <gtest/gtest.h>

#include "analysis/conflict.hpp"
#include "analysis/extract.hpp"
#include "curare/curare.hpp"
#include "sexpr/reader.hpp"

namespace curare::analysis {
namespace {

class AffineTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;

  std::optional<AffineIndex> parse(std::string_view src) {
    return parse_affine(ctx, sexpr::read_one(ctx, src));
  }
};

TEST_F(AffineTest, Literal) {
  auto a = parse("7");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->var, nullptr);
  EXPECT_EQ(a->offset, 7);
}

TEST_F(AffineTest, BareVariable) {
  auto a = parse("n");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->var->name, "n");
  EXPECT_EQ(a->coef, 1);
  EXPECT_EQ(a->offset, 0);
}

TEST_F(AffineTest, AddSubForms) {
  EXPECT_EQ(parse("(+ n 3)")->offset, 3);
  EXPECT_EQ(parse("(- n 2)")->offset, -2);
  EXPECT_EQ(parse("(+ 3 n)")->offset, 3);
  EXPECT_EQ(parse("(1+ n)")->offset, 1);
  EXPECT_EQ(parse("(1- n)")->offset, -1);
}

TEST_F(AffineTest, ScaledForms) {
  auto a = parse("(* 2 n)");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->coef, 2);
  auto b = parse("(+ (* 2 n) 5)");
  ASSERT_TRUE(b);
  EXPECT_EQ(b->coef, 2);
  EXPECT_EQ(b->offset, 5);
  auto c = parse("(- (* 3 n) 1)");
  ASSERT_TRUE(c);
  EXPECT_EQ(c->coef, 3);
  EXPECT_EQ(c->offset, -1);
}

TEST_F(AffineTest, Negation) {
  auto a = parse("(- n)");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->coef, -1);
}

TEST_F(AffineTest, NonAffineRejected) {
  EXPECT_FALSE(parse("(* n n)").has_value());
  EXPECT_FALSE(parse("(+ n m)").has_value()) << "two variables";
  EXPECT_FALSE(parse("(car n)").has_value());
  EXPECT_FALSE(parse("(/ n 2)").has_value());
}

TEST_F(AffineTest, VariableCancellation) {
  auto a = parse("(- n n)");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->var, nullptr) << "n - n is the constant 0";
  EXPECT_EQ(a->offset, 0);
}

// ---- collision distances -------------------------------------------------

class CollisionTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;

  ArrayRef ref(const char* index_src, bool write) {
    ArrayRef r;
    r.array = ctx.symbols.intern("v");
    r.is_write = write;
    auto a = parse_affine(ctx, sexpr::read_one(ctx, index_src));
    if (a) {
      r.index = *a;
      r.affine = true;
    } else {
      r.affine = false;
    }
    return r;
  }
};

TEST_F(CollisionTest, WriteAheadByK) {
  // write v[n+k] (earlier), read v[n] (later, n advanced by 1):
  // n+k == n+d  →  d = k.
  for (int k : {1, 2, 5, 12}) {
    auto d = array_collision_distance(
        ref(("(+ n " + std::to_string(k) + ")").c_str(), true),
        ref("n", false), 1);
    ASSERT_TRUE(d.has_value()) << k;
    EXPECT_EQ(*d, k);
  }
}

TEST_F(CollisionTest, WriteBehindNeverCollidesForward) {
  auto d = array_collision_distance(ref("(- n 1)", true), ref("n", false), 1);
  EXPECT_FALSE(d.has_value())
      << "the earlier invocation writes below every later subscript";
}

TEST_F(CollisionTest, SameIndexDisjointAcrossInvocations) {
  auto d = array_collision_distance(ref("n", true), ref("n", false), 1);
  EXPECT_FALSE(d.has_value()) << "v[n] vs v[n+d] never meet for d ≥ 1";
}

TEST_F(CollisionTest, NegativeStepReversesDirection) {
  // Counting down (δ = −1): writing v[n−2] collides with a later
  // read of v[n] at distance 2.
  auto d =
      array_collision_distance(ref("(- n 2)", true), ref("n", false), -1);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 2);
}

TEST_F(CollisionTest, Stride2OnlyEvenOffsetsCollide) {
  // δ = 2: write v[n+4] meets read v[n] at d = 2; v[n+3] never.
  EXPECT_EQ(array_collision_distance(ref("(+ n 4)", true), ref("n", false), 2)
                .value_or(-1),
            2);
  EXPECT_FALSE(
      array_collision_distance(ref("(+ n 3)", true), ref("n", false), 2)
          .has_value());
}

TEST_F(CollisionTest, ConstantIndexAlwaysCollides) {
  EXPECT_EQ(array_collision_distance(ref("5", true), ref("5", false), 1)
                .value_or(-1),
            1);
  EXPECT_FALSE(array_collision_distance(ref("5", true), ref("6", false), 1)
                   .has_value());
}

TEST_F(CollisionTest, UnknownStepWorstCase) {
  EXPECT_EQ(
      array_collision_distance(ref("n", true), ref("n", false), std::nullopt)
          .value_or(-1),
            1);
}

TEST_F(CollisionTest, NonAffineWorstCase) {
  EXPECT_EQ(array_collision_distance(ref("(* n n)", true),
                                     ref("n", false), 1)
                .value_or(-1),
            1);
}

TEST_F(CollisionTest, DifferentArraysNeverConflict) {
  ArrayRef a = ref("n", true);
  ArrayRef b = ref("n", false);
  b.array = ctx.symbols.intern("w");
  EXPECT_FALSE(array_collision_distance(a, b, 1).has_value());
}

// ---- extraction + conflicts ------------------------------------------------

class ArrayConflictTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  decl::Declarations decls{ctx};

  ConflictReport analyze(std::string_view src) {
    FunctionInfo info =
        extract_function(ctx, decls, sexpr::read_one(ctx, src));
    return detect_conflicts(ctx, decls, info);
  }
};

TEST_F(ArrayConflictTest, StencilWriteAheadDistanceK) {
  ConflictReport r = analyze(
      "(defun st (v n)"
      "  (when (< n 100)"
      "    (setf (aref v (+ n 3)) (aref v n))"
      "    (st v (+ n 1))))");
  bool found = false;
  for (const auto& c : r.conflicts) {
    if (c.is_array_conflict()) {
      found = true;
      EXPECT_EQ(c.distance, 3);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(r.min_distance().value_or(-1), 3);
}

TEST_F(ArrayConflictTest, IndependentElementsNoConflict) {
  // Each invocation writes only its own element: embarrassingly
  // parallel, the analyzer must prove it.
  ConflictReport r = analyze(
      "(defun fill-sq (v n)"
      "  (when (< n 100)"
      "    (setf (aref v n) (* n n))"
      "    (fill-sq v (+ n 1))))");
  for (const auto& c : r.conflicts)
    EXPECT_FALSE(c.is_array_conflict()) << c.describe();
}

TEST_F(ArrayConflictTest, InductionStepExtracted) {
  FunctionInfo info = extract_function(
      ctx, decls,
      sexpr::read_one(ctx, "(defun f (v n) (when (< n 9)"
                           " (setf (aref v n) 0) (f v (+ n 2))))"));
  auto step = info.induction_step(ctx, info.params[1]);
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(*step, 2);
}

TEST_F(ArrayConflictTest, DisagreeingSitesGiveUnknownStep) {
  FunctionInfo info = extract_function(
      ctx, decls,
      sexpr::read_one(ctx,
                      "(defun f (v n) (cond ((evenp n) (f v (+ n 1)))"
                      " (t (f v (+ n 2)))))"));
  EXPECT_FALSE(info.induction_step(ctx, info.params[1]).has_value());
}

TEST_F(ArrayConflictTest, NonAffineSubscriptWorstCased) {
  ConflictReport r = analyze(
      "(defun f (v n)"
      "  (when (< n 9) (setf (aref v (* n n)) 1) (f v (+ n 1))))");
  bool found = false;
  for (const auto& c : r.conflicts)
    if (c.is_array_conflict()) found = true;
  EXPECT_TRUE(found);
  EXPECT_EQ(r.min_distance().value_or(-1), 1);
}

}  // namespace
}  // namespace curare::analysis

namespace curare {
namespace {

TEST(ArrayEndToEnd, StencilGetsWholeArrayLockAndStaysCorrect) {
  sexpr::Ctx ctx;
  Curare cur(ctx, 4);
  cur.load_program(
      "(defun st (v n)"
      "  (when (< n 29)"
      "    (setf (aref v (+ n 1)) (+ (aref v n) (aref v (+ n 1))))"
      "    (st v (+ n 1))))");
  TransformPlan plan = cur.transform("st");
  ASSERT_TRUE(plan.ok) << plan.failure;
  EXPECT_GT(plan.locks_inserted, 0);

  auto fresh = [&] {
    return cur.interp().eval_program("(let ((v (make-array 30 1))) v)");
  };
  // Sequential reference: prefix sums in the array.
  Value ref = fresh();
  {
    const Value args[] = {ref, Value::fixnum(0)};
    cur.run_sequential("st", args);
  }
  Value par = fresh();
  {
    const Value args[] = {par, Value::fixnum(0)};
    cur.run_parallel("st", args, 4);
  }
  for (int i = 0; i < 30; ++i) {
    const Value a[] = {ref, Value::fixnum(i)};
    const Value b[] = {par, Value::fixnum(i)};
    EXPECT_EQ(cur.interp().apply(cur.interp().global("aref"), a).bits(),
              cur.interp().apply(cur.interp().global("aref"), b).bits())
        << "element " << i;
  }
}

TEST(ArrayEndToEnd, IndependentFillNeedsNoLocks) {
  sexpr::Ctx ctx;
  Curare cur(ctx, 4);
  cur.load_program(
      "(defun fill-sq (v n)"
      "  (when (< n 50)"
      "    (setf (aref v n) (* n n))"
      "    (fill-sq v (+ n 1))))");
  TransformPlan plan = cur.transform("fill-sq");
  ASSERT_TRUE(plan.ok) << plan.failure;
  EXPECT_EQ(plan.locks_inserted, 0)
      << "per-invocation-disjoint subscripts are conflict-free";

  Value v = cur.interp().eval_program("(make-array 50 0)");
  const Value args[] = {v, Value::fixnum(0)};
  cur.run_parallel("fill-sq", args, 4);
  const Value probe[] = {v, Value::fixnum(7)};
  EXPECT_EQ(
      cur.interp().apply(cur.interp().global("aref"), probe).as_fixnum(),
      49);
}

}  // namespace
}  // namespace curare
