// Conflict-detection tests reproducing the paper's worked examples:
// E1 (Fig 2), E2 (Fig 3), E3 (Fig 4), E4 (Fig 5), plus the reorderable
// and aliasing cases of §3.2.3 and §1.3.
#include "analysis/conflict.hpp"

#include <gtest/gtest.h>

#include "analysis/extract.hpp"
#include "sexpr/reader.hpp"

namespace curare::analysis {
namespace {

class ConflictTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  decl::Declarations decls{ctx};

  ConflictReport analyze(std::string_view src) {
    FunctionInfo info =
        extract_function(ctx, decls, sexpr::read_one(ctx, src));
    return detect_conflicts(ctx, decls, info);
  }
};

TEST_F(ConflictTest, NoConflictFig3) {
  // E2: Figure 3 — pure traversal with print; no writes, no conflicts.
  ConflictReport r =
      analyze("(defun f (l) (when l (print (car l)) (f (cdr l))))");
  EXPECT_TRUE(r.clean()) << "Fig 3 must be conflict-free";
  EXPECT_FALSE(r.min_distance().has_value());
}

TEST_F(ConflictTest, ConflictFig4Distance1) {
  // E3: Figure 4 — A1 = cdr.car (write), A2 = car, τ = cdr. The paper:
  // "A1 ⊙ A2 under τ because τ∘A2 = cdr.car = A1", distance 1.
  ConflictReport r = analyze(
      "(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
  ASSERT_FALSE(r.conflicts.empty());
  bool found = false;
  for (const Conflict& c : r.conflicts) {
    if (!c.is_variable_conflict() && c.earlier.is_write &&
        c.earlier.path.to_string() == "cdr.car" &&
        c.later.path.to_string() == "car") {
      found = true;
      EXPECT_EQ(c.distance, 1);
      EXPECT_EQ(c.kind, DepKind::Flow);
    }
  }
  EXPECT_TRUE(found) << "the paper's A1 ⊙₁ A2 conflict must be reported";
  EXPECT_EQ(r.min_distance().value_or(-99), 1);
}

TEST_F(ConflictTest, Fig5OnlyA2A3Conflict) {
  // E4: Figure 5 — "A2 does not conflict with A1 since cdr⁺.car can
  // never be a prefix of cdr. However A2 ⊙ A3."
  ConflictReport r = analyze(
      "(defun f (l)"
      "  (cond ((null l) nil)"
      "        ((null (cdr l)) (f (cdr l)))"
      "        (t (setf (cadr l) (+ (car l) (cadr l)))"
      "           (f (cdr l)))))");
  bool a2_vs_a3 = false;
  for (const Conflict& c : r.conflicts) {
    if (c.is_variable_conflict()) continue;
    const std::string e = c.earlier.path.to_string();
    const std::string l = c.later.path.to_string();
    EXPECT_NE(l, "cdr") << "write cdr.car must not conflict with read cdr: "
                        << c.describe();
    if (c.earlier.is_write && e == "cdr.car" && l == "car") {
      a2_vs_a3 = true;
      EXPECT_EQ(c.distance, 1);
    }
  }
  EXPECT_TRUE(a2_vs_a3);
}

TEST_F(ConflictTest, ConflictFig2StaticPair) {
  // E1: Figure 2's statements both write/read through x.cdr.car. Model
  // them as one function that performs both accesses and recurs on cdr:
  // the write (setf (cadr x) ...) vs the deep use of (cadr x)'s car.
  ConflictReport r = analyze(
      "(defun g (x)"
      "  (when x"
      "    (setf (cadr x) (car x))"
      "    (print (car (cadr x)))"
      "    (g (cdr x))))");
  // write cdr.car vs read cdr.car.car in the NEXT invocation:
  // cdr.car ≤ cdr·(cdr.car.car)? positions: cdr=cdr, car≠cdr → no.
  // But within-direction: read in later invocation rooted deeper —
  // the conflicting pair here is write cdr.car (inv i) vs read
  // cdr.car.car (inv i): same invocation — not an inter-invocation
  // conflict. The write DOES conflict with the later invocation's read
  // of car (prefix relation), like Fig 4.
  bool found = false;
  for (const Conflict& c : r.conflicts) {
    if (!c.is_variable_conflict() && c.earlier.is_write) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ConflictTest, WriteTwoAheadHasDistance2) {
  // (setf (caddr l) ...) writes cdr.cdr.car; read (car l); τ = cdr →
  // conflict at distance 2 exactly.
  ConflictReport r = analyze(
      "(defun f (l) (when l (setf (caddr l) (car l)) (f (cdr l))))");
  bool found = false;
  for (const Conflict& c : r.conflicts) {
    if (!c.is_variable_conflict() && c.earlier.is_write &&
        c.earlier.path.to_string() == "cdr.cdr.car" &&
        c.later.path.to_string() == "car") {
      found = true;
      EXPECT_EQ(c.distance, 2);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(r.min_distance().value_or(-99), 2);
}

TEST_F(ConflictTest, OutputDependencyBetweenInvocationWrites) {
  // (setf (cadr l) 0) in consecutive invocations writes different cells
  // (cdr.car vs cdr.cdr.car) — no output dependency. But writing (car l)
  // and (cadr l) conflicts: car written by inv i+1 is cdr.car of inv i.
  ConflictReport r = analyze(
      "(defun f (l)"
      "  (when l (setf (car l) 1) (setf (cadr l) 2) (f (cdr l))))");
  bool output_found = false;
  for (const Conflict& c : r.conflicts) {
    if (!c.is_variable_conflict() && c.kind == DepKind::Output)
      output_found = true;
  }
  EXPECT_TRUE(output_found);
}

TEST_F(ConflictTest, SelfWriteDoesNotConflictAcrossInvocations) {
  // (setf (car l) ...) with τ = cdr: inv i writes car, inv i+d writes
  // cdr^d.car — never the same cell.
  ConflictReport r = analyze(
      "(defun f (l) (when l (setf (car l) 0) (f (cdr l))))");
  for (const Conflict& c : r.conflicts) {
    EXPECT_TRUE(c.is_variable_conflict()) << c.describe();
  }
}

TEST_F(ConflictTest, DeepReadConflictsWithWriteBelow) {
  // (print l) traverses the whole list; (setf (cadr l) ...) in a later
  // invocation writes inside the traversed region.
  ConflictReport r = analyze(
      "(defun f (l) (when l (print l) (setf (cadr l) 0) (f (cdr l))))");
  bool deep_hit = false;
  for (const Conflict& c : r.conflicts) {
    if (!c.is_variable_conflict() &&
        (c.earlier.deep || c.later.deep)) {
      deep_hit = true;
    }
  }
  EXPECT_TRUE(deep_hit);
}

TEST_F(ConflictTest, UnknownTransferConflictsAtDistance1) {
  ConflictReport r = analyze(
      "(defun f (l) (when l (setf (car l) 0) (f (reverse l))))");
  ASSERT_FALSE(r.conflicts.empty());
  EXPECT_EQ(r.min_distance().value_or(-99), 1)
      << "τ = Σ* must yield worst-case distance 1";
}

TEST_F(ConflictTest, VariableConflictFig8Shape) {
  // E6: (setq a (+ a 1)) — free-variable update. Conflict exists, but
  // is flagged reorderable because + is commutative+associative+atomic.
  ConflictReport r = analyze(
      "(defun f (l) (when l (setq a (+ a 1)) (f (cdr l))))");
  bool var_conflict = false;
  for (const Conflict& c : r.conflicts) {
    if (c.is_variable_conflict() && c.var->name == "a") {
      var_conflict = true;
      if (c.var_earlier.is_write && c.var_later.is_write) {
        EXPECT_NE(c.reorderable_op, nullptr);
      }
    }
  }
  EXPECT_TRUE(var_conflict);
}

TEST_F(ConflictTest, NonCommutativeUpdateIsNotReorderable) {
  ConflictReport r = analyze(
      "(defun f (l) (when l (setq a (- a 1)) (f (cdr l))))");
  bool ww = false;
  for (const Conflict& c : r.conflicts) {
    if (c.is_variable_conflict() && c.var_earlier.is_write &&
        c.var_later.is_write) {
      ww = true;
      EXPECT_EQ(c.reorderable_op, nullptr)
          << "- is not declared commutative; no reorder licence";
    }
  }
  EXPECT_TRUE(ww) << "- is not declared commutative; conflict must stay";
}

TEST_F(ConflictTest, CrossParamAliasingAssumedWithoutDeclaration) {
  ConflictReport r = analyze(
      "(defun f (a b) (when a (setf (car a) (car b)) (f (cdr a) (cdr b))))");
  EXPECT_TRUE(r.cross_param_aliasing);
  EXPECT_EQ(r.min_distance().value_or(-99), 1);
}

TEST_F(ConflictTest, NoaliasDeclarationRemovesCrossParamWorstCase) {
  decls.load(sexpr::read_one(ctx, "(curare-declare (noalias f))"));
  ConflictReport r = analyze(
      "(defun f (a b) (when a (setf (car a) (car b)) (f (cdr a) (cdr b))))");
  EXPECT_FALSE(r.cross_param_aliasing);
}

TEST_F(ConflictTest, NonRecursiveFunctionHasNoConflicts) {
  ConflictReport r = analyze("(defun f (l) (setf (car l) 1))");
  EXPECT_TRUE(r.clean());
}

TEST_F(ConflictTest, RemqDStillConflictsFlowInsensitively) {
  // Paper §5: fed back into the analyzer, remq-d "would need
  // synchronization code" because flow-insensitive analysis can't prove
  // the stores hit unique cells. Our analyzer must agree.
  ConflictReport r = analyze(
      "(defun remq-d (dest obj lst)"
      "  (cond ((null lst) (setf (cdr dest) nil))"
      "        ((eq obj (car lst)) (remq-d dest obj (cdr lst)))"
      "        (t (let ((cell (cons (car lst) nil)))"
      "             (remq-d cell obj (cdr lst))"
      "             (setf (cdr dest) cell)))))");
  EXPECT_FALSE(r.conflicts.empty());
}

// Distance sweep as a property: writing k cells ahead caps concurrency
// at k (paper §3.2.1: max concurrency ≤ min conflict distance).
class ConflictDistanceSweep : public ::testing::TestWithParam<int> {
 protected:
  sexpr::Ctx ctx;
};

TEST_P(ConflictDistanceSweep, MinDistanceEqualsWriteDepth) {
  const int k = GetParam();
  decl::Declarations decls(ctx);
  // Build (setf (c a d^k r) l) textually: cdr^k then car.
  std::string place = "(nth " + std::to_string(k) + " l)";
  std::string src = "(defun f (l) (when l (setf " + place +
                    " (car l)) (f (cdr l))))";
  FunctionInfo info =
      extract_function(ctx, decls, sexpr::read_one(ctx, src));
  ConflictReport r = detect_conflicts(ctx, decls, info);
  ASSERT_TRUE(r.min_distance().has_value());
  EXPECT_EQ(*r.min_distance(), k);
}

INSTANTIATE_TEST_SUITE_P(Depths, ConflictDistanceSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace curare::analysis
