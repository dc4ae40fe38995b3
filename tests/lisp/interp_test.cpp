// Evaluator tests: special forms, closures, tail calls, scoping, errors.
#include "lisp/interp.hpp"

#include <gtest/gtest.h>

#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"

namespace curare::lisp {
namespace {

using sexpr::write_str;

class InterpTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  Interp in{ctx};

  std::string run(std::string_view src) {
    return write_str(in.eval_program(src));
  }
};

TEST_F(InterpTest, SelfEvaluatingAtoms) {
  EXPECT_EQ(run("42"), "42");
  EXPECT_EQ(run("nil"), "nil");
  EXPECT_EQ(run("t"), "t");
  EXPECT_EQ(run("\"s\""), "\"s\"");
  EXPECT_EQ(run("2.5"), "2.5");
}

TEST_F(InterpTest, QuotePreventsEvaluation) {
  EXPECT_EQ(run("'x"), "x");
  EXPECT_EQ(run("'(+ 1 2)"), "(+ 1 2)");
}

TEST_F(InterpTest, UnboundVariableThrows) {
  EXPECT_THROW(run("no-such-var"), sexpr::LispError);
}

TEST_F(InterpTest, IfBothBranches) {
  EXPECT_EQ(run("(if t 1 2)"), "1");
  EXPECT_EQ(run("(if nil 1 2)"), "2");
  EXPECT_EQ(run("(if nil 1)"), "nil");
  EXPECT_EQ(run("(if 0 'yes 'no)"), "yes") << "0 is truthy in Lisp";
}

TEST_F(InterpTest, CondSelectsFirstTrueClause) {
  EXPECT_EQ(run("(cond (nil 1) (t 2) (t 3))"), "2");
  EXPECT_EQ(run("(cond (nil 1))"), "nil");
  EXPECT_EQ(run("(cond ((= 1 2) 'a) ((= 1 1) 'b))"), "b");
}

TEST_F(InterpTest, CondClauseWithoutBodyReturnsTest) {
  EXPECT_EQ(run("(cond (nil) (7))"), "7");
}

TEST_F(InterpTest, WhenUnless) {
  EXPECT_EQ(run("(when t 1 2 3)"), "3");
  EXPECT_EQ(run("(when nil 1)"), "nil");
  EXPECT_EQ(run("(unless nil 'x)"), "x");
  EXPECT_EQ(run("(unless t 'x)"), "nil");
}

TEST_F(InterpTest, AndOrShortCircuit) {
  EXPECT_EQ(run("(and 1 2 3)"), "3");
  EXPECT_EQ(run("(and 1 nil (error \"not reached\"))"), "nil");
  EXPECT_EQ(run("(or nil 2 (error \"not reached\"))"), "2");
  EXPECT_EQ(run("(or nil nil)"), "nil");
  EXPECT_EQ(run("(and)"), "t");
  EXPECT_EQ(run("(or)"), "nil");
}

TEST_F(InterpTest, LetBindsInParallel) {
  EXPECT_EQ(run("(let ((x 1)) (let ((x 2) (y x)) y))"), "1")
      << "plain let evaluates inits in the outer scope";
}

TEST_F(InterpTest, LetStarBindsSequentially) {
  EXPECT_EQ(run("(let* ((x 1) (y (+ x 1))) y)"), "2");
}

TEST_F(InterpTest, LetWithUninitializedBinding) {
  EXPECT_EQ(run("(let ((x)) x)"), "nil");
  EXPECT_EQ(run("(let (x) x)"), "nil");
}

TEST_F(InterpTest, SetqAssignsInnermostBinding) {
  EXPECT_EQ(run("(let ((x 1)) (setq x 5) x)"), "5");
}

TEST_F(InterpTest, SetqCreatesGlobal) {
  run("(setq g-var 9)");
  EXPECT_EQ(run("g-var"), "9");
}

TEST_F(InterpTest, SetqMultiplePairs) {
  EXPECT_EQ(run("(let ((a 0) (b 0)) (setq a 1 b 2) (+ a b))"), "3");
}

TEST_F(InterpTest, DefunAndCall) {
  EXPECT_EQ(run("(defun sq (x) (* x x)) (sq 7)"), "49");
}

TEST_F(InterpTest, DefunReturnsName) {
  EXPECT_EQ(run("(defun foo () 1)"), "foo");
}

TEST_F(InterpTest, LambdaClosureCapturesEnvironment) {
  EXPECT_EQ(run("(let ((n 10)) (funcall (lambda (x) (+ x n)) 5))"), "15");
}

TEST_F(InterpTest, ClosureCapturesAtCreationScope) {
  EXPECT_EQ(run("(defun make-adder (n) (lambda (x) (+ x n)))"
                "(let ((add3 (make-adder 3))) (funcall add3 4))"),
            "7");
}

TEST_F(InterpTest, RestParameters) {
  EXPECT_EQ(run("(defun f (a &rest r) (cons a r)) (f 1 2 3)"), "(1 2 3)");
  EXPECT_EQ(run("(f 1)"), "(1)");
}

TEST_F(InterpTest, OptionalParametersDefaultToNil) {
  run("(defun rr (l &optional k) (list l k))");
  EXPECT_EQ(run("(rr 1)"), "(1 nil)");
  EXPECT_EQ(run("(rr 1 2)"), "(1 2)");
  run("(defun ro (a &optional b c &rest r) (list a b c r))");
  EXPECT_EQ(run("(list (ro 1) (ro 1 2 3 4 5))"),
            "((1 nil nil nil) (1 2 3 (4 5)))");
  try {
    run("(rr 1 2 3)");
    ADD_FAILURE() << "three arguments to a 1-2 parameter function";
  } catch (const sexpr::LispError& e) {
    EXPECT_STREQ(e.what(), "wrong number of arguments to rr: got 3, want 1-2");
  }
  try {
    run("(ro)");
    ADD_FAILURE() << "no arguments to a function that requires one";
  } catch (const sexpr::LispError& e) {
    EXPECT_STREQ(e.what(), "wrong number of arguments to ro: got 0, want 1-3+");
  }
}

TEST_F(InterpTest, WrongArityThrows) {
  run("(defun two (a b) a)");
  EXPECT_THROW(run("(two 1)"), sexpr::LispError);
  EXPECT_THROW(run("(two 1 2 3)"), sexpr::LispError);
}

TEST_F(InterpTest, RecursionFactorial) {
  EXPECT_EQ(run("(defun fact (n) (if (= n 0) 1 (* n (fact (- n 1)))))"
                "(fact 10)"),
            "3628800");
}

TEST_F(InterpTest, TailRecursionDoesNotGrowStack) {
  // 1e6 iterations must run in O(1) stack thanks to TCO.
  EXPECT_EQ(run("(defun count-down (n) (if (= n 0) 'done (count-down "
                "(- n 1)))) (count-down 1000000)"),
            "done");
}

TEST_F(InterpTest, MutualTailRecursion) {
  EXPECT_EQ(run("(defun even? (n) (if (= n 0) t (odd? (- n 1))))"
                "(defun odd? (n) (if (= n 0) nil (even? (- n 1))))"
                "(even? 100001)"),
            "nil");
}

TEST_F(InterpTest, NonTailRecursionDepthLimit) {
  in.set_max_depth(100);
  EXPECT_THROW(run("(defun inf (n) (+ 1 (inf n))) (inf 0)"),
               sexpr::LispError);
}

TEST_F(InterpTest, WhileLoop) {
  EXPECT_EQ(run("(let ((i 0) (acc 0))"
                "  (while (< i 5) (setq acc (+ acc i)) (setq i (+ i 1)))"
                "  acc)"),
            "10");
}

TEST_F(InterpTest, Dotimes) {
  EXPECT_EQ(run("(let ((acc 0)) (dotimes (i 4) (setq acc (+ acc i))) acc)"),
            "6");
  EXPECT_EQ(run("(let ((acc 0)) (dotimes (i 4 acc) (setq acc (+ acc i))))"),
            "6");
  EXPECT_EQ(run("(dotimes (i 3 i))"), "3")
      << "loop variable holds n in the result form";
}

TEST_F(InterpTest, Dolist) {
  EXPECT_EQ(run("(let ((acc 0)) (dolist (x '(1 2 3)) (setq acc (+ acc x)))"
                " acc)"),
            "6");
  EXPECT_EQ(run("(dolist (x '(1 2) 'end))"), "end");
}

TEST_F(InterpTest, PrognSequencing) {
  EXPECT_EQ(run("(progn 1 2 3)"), "3");
  EXPECT_EQ(run("(progn)"), "nil");
}

TEST_F(InterpTest, DeclareIsIgnoredAtRuntime) {
  EXPECT_EQ(run("(defun f (l) (declare (curare sapp l)) (car l)) (f '(9))"),
            "9");
}

TEST_F(InterpTest, FutureWithoutRuntimeHookIsEager) {
  EXPECT_EQ(run("(touch (future (+ 1 2)))"), "3");
  EXPECT_EQ(run("(future 42)"), "42");
}

TEST_F(InterpTest, DefmacroRejectedWithClearMessage) {
  try {
    run("(defmacro m (x) x)");
    FAIL() << "expected error";
  } catch (const sexpr::LispError& e) {
    EXPECT_NE(std::string(e.what()).find("defmacro"), std::string::npos);
  }
}

TEST_F(InterpTest, OutputCapture) {
  run("(print 1) (princ \"a\") (terpri)");
  EXPECT_EQ(in.take_output(), "1\na\n");
  EXPECT_EQ(in.take_output(), "") << "take_output drains the buffer";
}

TEST_F(InterpTest, ApplyCountAdvances) {
  const auto before = in.apply_count();
  run("(defun g (x) x) (g 1) (g 2)");
  EXPECT_GE(in.apply_count(), before + 2);
}

TEST_F(InterpTest, PaperFigure3RunsAndPrints) {
  run("(defun f (l) (when l (print (car l)) (f (cdr l))))"
      "(f '(1 2 3))");
  EXPECT_EQ(in.take_output(), "1\n2\n3\n");
}

TEST_F(InterpTest, PaperRemqFigure12) {
  EXPECT_EQ(run("(defun remq (obj lst)"
                "  (cond ((null lst) nil)"
                "        ((eq obj (car lst)) (remq obj (cdr lst)))"
                "        (t (cons (car lst) (remq obj (cdr lst))))))"
                "(remq 'a '(a b a c a))"),
            "(b c)");
}

TEST_F(InterpTest, PaperRemqDFigure13) {
  // The destination-passing-style version from Fig. 13, driven the way
  // Curare would drive it: seed a destination cell and read its cdr.
  EXPECT_EQ(run("(defun remq-d (dest obj lst)"
                "  (cond ((null lst) (setf (cdr dest) nil))"
                "        ((eq obj (car lst)) (remq-d dest obj (cdr lst)))"
                "        (t (let ((cell (cons (car lst) nil)))"
                "             (remq-d cell obj (cdr lst))"
                "             (setf (cdr dest) cell)))))"
                "(let ((dest (cons nil nil)))"
                "  (remq-d dest 'a '(a b a c a))"
                "  (cdr dest))"),
            "(b c)");
}

}  // namespace
}  // namespace curare::lisp
