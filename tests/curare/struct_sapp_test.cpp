// E14 end-to-end: canonicalization-aware SAPP over real defstruct
// graphs (paper §2.1's doubly-linked example), and the plain cons
// cases: trees pass, shared substructure and cycles fail.
#include "curare/struct_sapp.hpp"

#include <gtest/gtest.h>

#include "curare/curare.hpp"
#include "sexpr/reader.hpp"

namespace curare {
namespace {

class SappTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  decl::Declarations decls{ctx};

  StructSappResult check(Value v) { return check_struct_sapp(v, decls); }
};

TEST_F(SappTest, AtomsHold) {
  EXPECT_TRUE(check(Value::nil()));
  EXPECT_TRUE(check(Value::fixnum(7)));
  EXPECT_TRUE(check(ctx.sym("x")));
}

TEST_F(SappTest, ProperListHolds) {
  EXPECT_TRUE(check(sexpr::read_one(ctx, "(1 2 3 (4 5) 6)")));
}

TEST_F(SappTest, SharedAtomsAreFine) {
  Value a = ctx.sym("a");
  Value l = ctx.make_list(a, a, a);
  EXPECT_TRUE(check(l)) << "interned atoms are shared by design";
}

TEST_F(SappTest, SharedSubstructureFails) {
  Value shared = sexpr::read_one(ctx, "(x)");
  Value l = ctx.make_list(shared, shared);
  StructSappResult r = check(l);
  EXPECT_FALSE(r);
  EXPECT_FALSE(r.violation.empty());
}

TEST_F(SappTest, CycleFails) {
  Value a = ctx.cons(Value::fixnum(1), Value::nil());
  sexpr::as_cons(a)->set_cdr(a);
  EXPECT_FALSE(check(a));
}

TEST_F(SappTest, DiamondViaCarAndCdrFails) {
  Value shared = ctx.cons(Value::fixnum(9), Value::nil());
  Value both = ctx.cons(shared, shared);
  EXPECT_FALSE(check(both));
}

TEST_F(SappTest, LargeListIterative) {
  std::string src = "(";
  for (int i = 0; i < 200000; ++i) src += "1 ";
  src += ")";
  EXPECT_TRUE(check(sexpr::read_one(ctx, src)));
}

class StructSappTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  Curare cur{ctx};

  Value eval(std::string_view src) {
    return cur.interp().eval_program(src);
  }
};

TEST_F(StructSappTest, SinglyLinkedChainHolds) {
  cur.load_program(
      "(defstruct node (pointers next) (data item))"
      "(defun build (n)"
      "  (if (= n 0) nil (make-node 'item n 'next (build (- n 1)))))");
  Value chain = eval("(build 20)");
  StructSappResult r = check_struct_sapp(chain, cur.declarations());
  EXPECT_TRUE(r) << r.violation;
  EXPECT_EQ(r.instances, 20u);
}

TEST_F(StructSappTest, DoublyLinkedFailsWithoutInverseDeclaration) {
  cur.load_program(
      "(defstruct dnode (pointers succ pred) (data item))"
      "(defun link (a b) (setf (succ a) b) (setf (pred b) a))");
  Value head = eval(
      "(let ((a (make-dnode 'item 1)) (b (make-dnode 'item 2)))"
      "  (link a b) a)");
  StructSappResult r = check_struct_sapp(head, cur.declarations());
  EXPECT_FALSE(r) << "without (inverse succ pred) the back-pointer "
                     "looks like a second path";
}

TEST_F(StructSappTest, DoublyLinkedHoldsWithInverseDeclaration) {
  cur.load_program(
      "(curare-declare (inverse succ pred))"
      "(defstruct dnode (pointers succ pred) (data item))"
      "(defun link (a b) (setf (succ a) b) (setf (pred b) a))");
  Value head = eval(
      "(let ((a (make-dnode 'item 1)) (b (make-dnode 'item 2))"
      "      (c (make-dnode 'item 3)))"
      "  (link a b) (link b c) a)");
  StructSappResult r = check_struct_sapp(head, cur.declarations());
  EXPECT_TRUE(r) << r.violation;
  EXPECT_EQ(r.instances, 3u);
}

TEST_F(StructSappTest, WalkFromTheMiddleAlsoHolds) {
  cur.load_program(
      "(curare-declare (inverse succ pred))"
      "(defstruct dnode (pointers succ pred) (data item))"
      "(defun link (a b) (setf (succ a) b) (setf (pred b) a))");
  Value mid = eval(
      "(let ((a (make-dnode 'item 1)) (b (make-dnode 'item 2))"
      "      (c (make-dnode 'item 3)))"
      "  (link a b) (link b c) b)");
  StructSappResult r = check_struct_sapp(mid, cur.declarations());
  EXPECT_TRUE(r) << r.violation;
  EXPECT_EQ(r.instances, 3u);
}

TEST_F(StructSappTest, GenuineSharingStillFails) {
  cur.load_program(
      "(curare-declare (inverse succ pred))"
      "(defstruct dnode (pointers succ pred) (data item))");
  // Two distinct nodes whose succ points at the SAME third node: two
  // canonical paths, a real violation even with canonicalization.
  Value head = eval(
      "(let ((a (make-dnode)) (b (make-dnode)) (shared (make-dnode)))"
      "  (setf (succ a) b)"
      "  (setf (pred b) a)"
      "  (setf (item a) shared)"  // reach shared through a data field
      "  (setf (succ b) shared)"
      "  a)");
  StructSappResult r = check_struct_sapp(head, cur.declarations());
  EXPECT_FALSE(r);
}

TEST_F(StructSappTest, ConsListInsideDataFieldChecked) {
  cur.load_program("(defstruct holder (data payload))");
  Value shared_list = eval("(setq shared '(1 2))"
                           "(make-holder 'payload (cons shared (cons "
                           "shared nil)))");
  StructSappResult r = check_struct_sapp(shared_list, cur.declarations());
  EXPECT_FALSE(r) << "shared cons substructure under a data field";
}

TEST_F(StructSappTest, AtomsHold) {
  StructSappResult r = check_struct_sapp(Value::fixnum(5),
                                         cur.declarations());
  EXPECT_TRUE(r);
  EXPECT_EQ(r.instances, 0u);
}

TEST_F(StructSappTest, AnalysisUsesDefstructFieldsAsAccessors) {
  // The defstruct auto-declaration must let the analyzer resolve field
  // accessors: τ = next⁺ for a walker over the struct chain.
  cur.load_program(
      "(defstruct node (pointers next) (data item))"
      "(defun walk (n) (when n (print (item n)) (walk (next n))))");
  AnalysisReport report = cur.analyze("walk");
  ASSERT_EQ(report.transfers.size(), 1u);
  EXPECT_EQ(report.transfers[0].second, "next.next*");
  EXPECT_TRUE(report.conflicts.clean());
}

TEST_F(StructSappTest, StructWriterGetsConflictDetected) {
  cur.load_program(
      "(defstruct node (pointers next) (data item))"
      "(defun bump (n)"
      "  (when (next n)"
      "    (setf (item (next n)) (item n))"
      "    (bump (next n))))");
  AnalysisReport report = cur.analyze("bump");
  ASSERT_FALSE(report.conflicts.conflicts.empty());
  EXPECT_EQ(report.conflicts.min_distance().value_or(-1), 1)
      << "write next.item vs read item: distance 1, like Fig 4";
}

TEST_F(StructSappTest, StructTraversalTransformsAndRuns) {
  cur.load_program(
      "(setq count 0)"
      "(defstruct node (pointers next) (data item))"
      "(defun build (n)"
      "  (if (= n 0) nil (make-node 'item n 'next (build (- n 1)))))"
      "(defun visit (n)"
      "  (when n (%atomic-incf-var 'count 1) (visit (next n))))");
  TransformPlan plan = cur.transform("visit");
  ASSERT_TRUE(plan.ok) << plan.failure;
  Value chain = eval("(build 50)");
  const Value args[] = {chain};
  cur.run_parallel("visit", args, 4);
  EXPECT_EQ(eval("count").as_fixnum(), 50);
}

}  // namespace
}  // namespace curare
