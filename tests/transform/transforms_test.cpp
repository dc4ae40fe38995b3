// Tests for delay (§3.2.2), reorder (§3.2.3), rec2iter and DPS (§5),
// and CRI codegen (§3.1/§4) — each transformation's output is also
// EXECUTED to confirm semantic equivalence with the original.
#include <gtest/gtest.h>

#include "analysis/conflict.hpp"
#include "analysis/extract.hpp"
#include "analysis/summary.hpp"
#include "lisp/interp.hpp"
#include "runtime/runtime.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"
#include "transform/cri.hpp"
#include "transform/delay.hpp"
#include "transform/dps.hpp"
#include "transform/lock_insert.hpp"
#include "transform/rec2iter.hpp"
#include "transform/reorder.hpp"

namespace curare::transform {
namespace {

using analysis::FunctionInfo;

class TransformTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  decl::Declarations decls{ctx};
  lisp::Interp in{ctx};

  FunctionInfo extract(std::string_view src) {
    return analysis::extract_function(ctx, decls,
                                      sexpr::read_one(ctx, src));
  }

  std::string run(std::string_view src) {
    return sexpr::write_str(in.eval_program(src));
  }

  std::string eval_form(sexpr::Value form) {
    return sexpr::write_str(in.eval_top(form));
  }

  /// A plan holding one lock on the variable v — as the pipeline plans
  /// it for a conflict on v.
  LockPlan var_lock() {
    return LockPlan{{LockSpec{ctx.symbols.intern("v"), {}, true}}, {}};
  }

  /// The pipeline's lock step over `src`: extract with a summary of
  /// (defun work (k) …), a pure callee; plan locks for the conflicts;
  /// let make_cri place them in a head loop when locks_only_in_head.
  CriResult make_locked(std::string_view src) {
    const sexpr::Value work =
        sexpr::read_one(ctx, "(defun work (k) (dotimes (i k) nil))");
    const sexpr::Value fn = sexpr::read_one(ctx, src);
    const analysis::SummaryMap summaries =
        analysis::compute_summaries(ctx, decls, {work, fn});
    FunctionInfo info = analysis::extract_function(ctx, decls, fn, &summaries);
    auto report = analysis::detect_conflicts(ctx, decls, info);
    LockPlan plan = plan_locks(ctx, info, report);
    EXPECT_FALSE(plan.empty()) << src;
    return make_cri(ctx, info, plan, locks_only_in_head(info, report, plan));
  }
};

// ---- delay (§3.2.2) ----------------------------------------------------

TEST_F(TransformTest, DelayHoistsTailWriteAboveCall) {
  FunctionInfo info = extract(
      "(defun f (l) (when l (f (cdr l)) (setf (cadr l) (car l))))");
  auto conflicts = analysis::detect_conflicts(ctx, decls, info);
  ASSERT_FALSE(conflicts.conflicts.empty());
  DelayResult r = apply_delay(ctx, decls, info, conflicts);
  EXPECT_EQ(r.moved, 1);
  std::string text = sexpr::write_str(r.defun);
  EXPECT_LT(text.find("(setf (cadr l)"), text.find("(f (cdr l))"))
      << "write must now precede the recursive call: " << text;
}

TEST_F(TransformTest, DelayedFunctionMatchesInvocationOrderSemantics) {
  // §3.1.1: Curare's correctness criterion is final-state
  // sequentializability — "the serial execution of the same set of
  // transactions in their sequential [invocation] order". For side
  // effects in the TAIL this differs from nested Lisp recursion (tails
  // unwind in reverse); the delay transformation realizes the paper's
  // invocation-order semantics. The reference below executes the
  // invocations serially in order with a loop.
  const char* original =
      "(defun f (l) (when (cdr l) (f (cdr l)) (setf (cadr l) (car l))))";
  FunctionInfo info = extract(original);
  auto conflicts = analysis::detect_conflicts(ctx, decls, info);
  DelayResult r = apply_delay(ctx, decls, info, conflicts);
  ASSERT_EQ(r.moved, 1);

  run("(defun serial-ref (l)"
      "  (while (cdr l) (setf (cadr l) (car l)) (setq l (cdr l))))");
  std::string reference =
      run("(let ((x (list 1 2 3 4))) (serial-ref x) x)");
  eval_form(r.defun);  // defines the delayed f
  std::string delayed = run("(let ((x (list 1 2 3 4))) (f x) x)");
  EXPECT_EQ(delayed, reference);
  EXPECT_EQ(delayed, "(1 1 1 1)") << "serial invocation order propagates "
                                     "the first car down the list";
}

TEST_F(TransformTest, DelayRefusesWhenWriteFeedsCallArguments) {
  // The write clobbers (cdr l), which the call's argument reads:
  // motion would change the spawned argument.
  FunctionInfo info = extract(
      "(defun f (l) (when l (f (cdr l)) (setf (cdr l) nil)))");
  auto conflicts = analysis::detect_conflicts(ctx, decls, info);
  DelayResult r = apply_delay(ctx, decls, info, conflicts);
  EXPECT_EQ(r.moved, 0) << "W=cdr is a prefix of the call's read cdr";
}

TEST_F(TransformTest, DelaySetqHoistsWhenIndependent) {
  FunctionInfo info = extract(
      "(defun f (l) (when l (f (cdr l)) (setq total (- total 1))))");
  auto conflicts = analysis::detect_conflicts(ctx, decls, info);
  DelayResult r = apply_delay(ctx, decls, info, conflicts);
  EXPECT_EQ(r.moved, 1);
}

TEST_F(TransformTest, DelaySetqRefusesWhenCallMentionsVariable) {
  FunctionInfo info = extract(
      "(defun f (n) (when (> n 0) (f (- n step)) (setq step (- step 1))))");
  auto conflicts = analysis::detect_conflicts(ctx, decls, info);
  DelayResult r = apply_delay(ctx, decls, info, conflicts);
  EXPECT_EQ(r.moved, 0) << "the call argument reads `step`";
}

// ---- reorder (§3.2.3) -----------------------------------------------------

TEST_F(TransformTest, ReorderRewritesGlobalIncrement) {
  FunctionInfo info = extract(
      "(defun f (l) (when l (setq a (+ a 1)) (f (cdr l))))");
  ReorderResult r = apply_reorder(ctx, decls, info);
  EXPECT_EQ(r.rewritten, 1);
  EXPECT_NE(sexpr::write_str(r.defun).find("(%atomic-incf-var (quote a) 1)"),
            std::string::npos)
      << sexpr::write_str(r.defun);
}

TEST_F(TransformTest, ReorderRewritesStructureUpdate) {
  FunctionInfo info = extract(
      "(defun f (l) (when l (setf (cadr l) (+ (cadr l) 5)) (f (cdr l))))");
  ReorderResult r = apply_reorder(ctx, decls, info);
  EXPECT_EQ(r.rewritten, 1);
  EXPECT_NE(sexpr::write_str(r.defun)
                .find("(%atomic-add (cdr l) (quote car) 5)"),
            std::string::npos)
      << sexpr::write_str(r.defun);
}

TEST_F(TransformTest, ReorderUsesLockedUpdateForNonPlusOps) {
  FunctionInfo info = extract(
      "(defun f (l) (when l (setq m (max m (car l))) (f (cdr l))))");
  ReorderResult r = apply_reorder(ctx, decls, info);
  EXPECT_EQ(r.rewritten, 1);
  EXPECT_NE(sexpr::write_str(r.defun).find("%locked-update-var"),
            std::string::npos);
}

TEST_F(TransformTest, LockedVariableIncrementTakesTheLock) {
  // The CAS increment of a variable the forms also lock becomes a
  // locked update; other variables keep the CAS.
  std::vector<sexpr::Value> forms = lock_shared_increments(
      ctx, {sexpr::read_one(ctx,
                            "(defun f$cri (l) (%lock-var 'v)"
                            " (%atomic-incf-var 'v 1)"
                            " (%atomic-incf-var 'u 1) (%unlock-var 'v))"),
            sexpr::read_one(ctx, "(defun f$tail (l) (%atomic-incf-var 'v 2))")});
  EXPECT_EQ(sexpr::write_str(forms[0]),
            "(defun f$cri (l) (%lock-var (quote v)) "
            "(%locked-update-var (quote v) (lambda (%old) (+ %old 1))) "
            "(%atomic-incf-var (quote u) 1) "
            "(%unlock-var (quote v)))");
  EXPECT_EQ(sexpr::write_str(forms[1]),
            "(defun f$tail (l) (%locked-update-var (quote v) "
            "(lambda (%old) (+ %old 2))))");
}

TEST_F(TransformTest, ReorderLeavesNonCommutativeAlone) {
  FunctionInfo info = extract(
      "(defun f (l) (when l (setq a (- a 1)) (f (cdr l))))");
  ReorderResult r = apply_reorder(ctx, decls, info);
  EXPECT_EQ(r.rewritten, 0);
}

TEST_F(TransformTest, ReorderLeavesParameterUpdatesAlone) {
  FunctionInfo info = extract(
      "(defun f (n) (when (> n 0) (setq n (+ n -1)) (f n)))");
  ReorderResult r = apply_reorder(ctx, decls, info);
  EXPECT_EQ(r.rewritten, 0) << "parameters are invocation-local";
}

// ---- recursion→iteration (§5) -----------------------------------------------

TEST_F(TransformTest, Rec2IterSumList) {
  FunctionInfo info = extract(
      "(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))");
  Rec2IterResult r = apply_rec2iter(ctx, decls, info);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.op->name, "+");
  eval_form(r.defun);
  EXPECT_EQ(run("(sum '(1 2 3 4 5))"), "15");
  EXPECT_EQ(run("(sum nil)"), "0");
  EXPECT_EQ(run("(sum '(7))"), "7");
}

TEST_F(TransformTest, Rec2IterCondSpelling) {
  FunctionInfo info = extract(
      "(defun product (l) (cond ((null l) 1)"
      " (t (* (car l) (product (cdr l))))))");
  Rec2IterResult r = apply_rec2iter(ctx, decls, info);
  ASSERT_TRUE(r.ok) << r.failure;
  eval_form(r.defun);
  EXPECT_EQ(run("(product '(2 3 4))"), "24");
}

TEST_F(TransformTest, Rec2IterRecCallFirstArgument) {
  FunctionInfo info = extract(
      "(defun sum2 (l) (if (null l) 0 (+ (sum2 (cdr l)) (car l))))");
  Rec2IterResult r = apply_rec2iter(ctx, decls, info);
  ASSERT_TRUE(r.ok) << r.failure;
  eval_form(r.defun);
  EXPECT_EQ(run("(sum2 '(10 20 30))"), "60");
}

TEST_F(TransformTest, Rec2IterMultiParameter) {
  FunctionInfo info = extract(
      "(defun countdown-sum (n acc-unused)"
      "  (if (= n 0) 0 (+ n (countdown-sum (- n 1) acc-unused))))");
  Rec2IterResult r = apply_rec2iter(ctx, decls, info);
  ASSERT_TRUE(r.ok) << r.failure;
  eval_form(r.defun);
  EXPECT_EQ(run("(countdown-sum 10 nil)"), "55");
}

TEST_F(TransformTest, Rec2IterDeepRecursionNoStackGrowth) {
  FunctionInfo info = extract(
      "(defun sumn (n) (if (= n 0) 0 (+ n (sumn (- n 1)))))");
  Rec2IterResult r = apply_rec2iter(ctx, decls, info);
  ASSERT_TRUE(r.ok) << r.failure;
  eval_form(r.defun);
  // 5e5 would overflow the evaluator's non-tail depth limit; the
  // iterative version must handle it.
  EXPECT_EQ(run("(sumn 500000)"), "125000250000");
}

TEST_F(TransformTest, Rec2IterRejectsNonAssociativeOp) {
  FunctionInfo info = extract(
      "(defun sub (l) (if (null l) 0 (- (car l) (sub (cdr l)))))");
  Rec2IterResult r = apply_rec2iter(ctx, decls, info);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("declarations"), std::string::npos);
}

TEST_F(TransformTest, Rec2IterRejectsNonReductionShape) {
  FunctionInfo info = extract(
      "(defun f (l) (when l (print (car l)) (f (cdr l))))");
  Rec2IterResult r = apply_rec2iter(ctx, decls, info);
  EXPECT_FALSE(r.ok);
}

// ---- destination-passing style (§5, Figs 12–13) ----------------------------

TEST_F(TransformTest, DpsRemqMatchesPaperShape) {
  FunctionInfo info = extract(
      "(defun remq (obj lst)"
      "  (cond ((null lst) nil)"
      "        ((eq obj (car lst)) (remq obj (cdr lst)))"
      "        (t (cons (car lst) (remq obj (cdr lst))))))");
  DpsResult r = apply_dps(ctx, info);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.dps_safe);
  std::string dps = sexpr::write_str(r.dps_defun);
  // The Fig 13 ingredients: destination parameter, base stores nil,
  // pass-through, fresh cell + link.
  EXPECT_NE(dps.find("remq$dps"), std::string::npos);
  EXPECT_NE(dps.find("(setf (cdr %dest) nil)"), std::string::npos) << dps;
  EXPECT_NE(dps.find("(remq$dps %dest obj (cdr lst))"), std::string::npos)
      << dps;
  EXPECT_NE(dps.find("(cons (car lst) nil)"), std::string::npos) << dps;
  EXPECT_NE(dps.find("(setf (cdr %dest) %cell)"), std::string::npos)
      << dps;
}

TEST_F(TransformTest, DpsRemqComputesSameResults) {
  FunctionInfo info = extract(
      "(defun remq (obj lst)"
      "  (cond ((null lst) nil)"
      "        ((eq obj (car lst)) (remq obj (cdr lst)))"
      "        (t (cons (car lst) (remq obj (cdr lst))))))");
  DpsResult r = apply_dps(ctx, info);
  ASSERT_TRUE(r.ok);
  eval_form(r.dps_defun);
  eval_form(r.wrapper_defun);  // redefines remq via the DPS helper
  EXPECT_EQ(run("(remq 'a '(a b a c a))"), "(b c)");
  EXPECT_EQ(run("(remq 'a nil)"), "nil");
  EXPECT_EQ(run("(remq 'z '(a b))"), "(a b)");
  EXPECT_EQ(run("(remq 'a '(a a a))"), "nil");
}

TEST_F(TransformTest, DpsIfSpelling) {
  FunctionInfo info = extract(
      "(defun ident (l) (if (null l) nil (cons (car l) (ident (cdr l)))))");
  DpsResult r = apply_dps(ctx, info);
  ASSERT_TRUE(r.ok) << r.failure;
  eval_form(r.dps_defun);
  eval_form(r.wrapper_defun);
  EXPECT_EQ(run("(ident '(1 2 3))"), "(1 2 3)");
}

TEST_F(TransformTest, DpsRejectsNonConsUse) {
  FunctionInfo info = extract(
      "(defun f (l) (if (null l) 0 (+ 1 (f (cdr l)))))");
  DpsResult r = apply_dps(ctx, info);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("cons"), std::string::npos);
}

// ---- CRI codegen (§3.1/§4) ---------------------------------------------------

TEST_F(TransformTest, CriRewritesCallToEnqueue) {
  // A lock plan that may not ride a head loop keeps the enqueue form.
  FunctionInfo info = extract(
      "(defun f (l) (when l (print (car l)) (f (cdr l))))");
  CriResult r = make_cri(ctx, info, var_lock());
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_FALSE(r.work_first);
  EXPECT_EQ(r.num_sites, 1u);
  std::string server = sexpr::write_str(r.server_defun);
  EXPECT_NE(server.find("(defun f$cri (%dest l)"), std::string::npos)
      << server;
  // A tail-position call hands the caller's destination on.
  EXPECT_NE(server.find("(%cri-enqueue 0 %dest (cdr l))"),
            std::string::npos)
      << server;
  EXPECT_EQ(server.find("(f (cdr l))"), std::string::npos)
      << "no direct recursive call may remain";
  std::string wrapper = sexpr::write_str(r.wrapper_defun);
  // The original f runs when the measured shape gives one server.
  EXPECT_EQ(wrapper,
            "(defun f$parallel (%servers l) (if (%cri-parallel-p f$cri "
            "%servers) (let ((%d (cons nil nil))) "
            "(%cri-run f$cri 1 %servers %d l) (cdr %d)) (f l)))");
  // The conflict distance bounds the enqueue form's S.
  EXPECT_NE(sexpr::write_str(make_cri(ctx, info, var_lock(), false, 2)
                                 .wrapper_defun)
                .find("(%cri-parallel-p f$cri %servers 2)"),
            std::string::npos);
}

TEST_F(TransformTest, CriMultipleSitesNumbered) {
  FunctionInfo info = extract(
      "(defun walk (x) (when (consp x) (walk (car x)) (walk (cdr x))))");
  CriResult r = make_cri(ctx, info);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.num_sites, 2u);
  std::string server = sexpr::write_str(r.server_defun);
  // Only the tail call's invocation can produce the function's value.
  EXPECT_NE(server.find("(%cri-enqueue 0 nil (car x))"), std::string::npos)
      << server;
  EXPECT_NE(server.find("(%cri-enqueue 1 %dest (cdr x))"),
            std::string::npos)
      << server;
}

TEST_F(TransformTest, CriCapturesTailResult) {
  FunctionInfo info = extract(
      "(defun last-elt (l) (if (null (cdr l)) (car l)"
      " (last-elt (cdr l))))");
  CriResult r = make_cri(ctx, info);
  ASSERT_TRUE(r.ok) << r.failure;
  std::string server = sexpr::write_str(r.server_defun);
  EXPECT_NE(server.find("(if %dest (setf (cdr %dest) (car l)) (car l))"),
            std::string::npos)
      << server;
  EXPECT_EQ(server.find("$result"), std::string::npos) << server;

  runtime::Runtime rt(in, 2);
  rt.install();
  eval_form(r.server_defun);
  eval_form(r.wrapper_defun);
  EXPECT_EQ(run("(last-elt$parallel 2 '(1 2 3 99))"), "99");
  // The run above measured no tail, so the entry would now call the
  // original last-elt; %cri-run runs the server as the entry's CRI
  // branch does.
  EXPECT_EQ(run("(let ((%d (cons nil nil)))"
                " (%cri-run last-elt$cri 1 1 %d '(7)) (cdr %d))"),
            "7");
}

TEST_F(TransformTest, CriKeepsDestinationForm) {
  // The DPS output already passes and stores its destination; CRI keeps
  // its stores, passes %dest on like any argument and names the entry
  // after remq. With one tail-position call it becomes a head loop that
  // queues no tail.
  FunctionInfo info = extract(
      "(defun remq$dps (%dest obj lst)"
      "  (cond ((null lst) (setf (cdr %dest) nil))"
      "        (t (remq$dps %dest obj (cdr lst)))))");
  CriResult r = make_cri(ctx, info);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.work_first);
  EXPECT_EQ(r.tail_name, nullptr);
  std::string server = sexpr::write_str(r.server_defun);
  EXPECT_EQ(server,
            "(defun remq$dps$cri (%dest obj lst) (let ((%next t)) "
            "(while %next (setq %next nil) (cond ((null lst) "
            "(setf (cdr %dest) nil)) (t (progn (%cri-tail) "
            "(setq lst (cdr lst)) (setq %next t)))))))");
  EXPECT_EQ(server.find("(if %dest"), std::string::npos) << server;
  EXPECT_EQ(r.wrapper_name->name, "remq$parallel");
  EXPECT_NE(sexpr::write_str(r.wrapper_defun)
                .find("(%cri-run remq$dps$cri 1 %servers %d obj lst)"),
            std::string::npos);
}

// ---- work-first form: heads as a loop, tails as tasks -----------------

TEST_F(TransformTest, CriWorkFirstLoopsHeadsAndQueuesTails) {
  FunctionInfo info = extract(
      "(defun tally (l k) (when l (tally (cdr l) k) (work k)"
      " (%atomic-incf-var 'total (car l)) nil))");
  CriResult r = make_cri(ctx, info);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.work_first);
  EXPECT_EQ(r.num_sites, 1u);
  EXPECT_EQ(sexpr::write_str(r.server_defun),
            "(defun tally$cri (%dest l k) (let ((%next t)) (while %next "
            "(setq %next nil) (when l (progn (%cri-tail tally$tail %dest l "
            "k) (setq l (cdr l)) (setq %dest nil) (setq %next t))))))");
  EXPECT_EQ(sexpr::write_str(r.tail_defun),
            "(defun tally$tail (%dest l k) (work k) "
            "(%atomic-incf-var (quote total) (car l)))");
  EXPECT_EQ(sexpr::write_str(r.wrapper_defun),
            "(defun tally$parallel (%servers l k) (if (%cri-parallel-p "
            "tally$cri %servers) (let ((%d (cons nil nil)))"
            " (%cri-run tally$cri 1 %servers %d l k) (cdr %d)) "
            "(tally l k)))");
}

TEST_F(TransformTest, CriWorkFirstPassesLetBindingsAndTailValue) {
  // x is live after the call: the tail gets it as %b0 and rebinds it;
  // the tail's value goes to I_0's destination.
  const char* src =
      "(defun lv (l k) (when l (let ((x (* 2 (car l))))"
      " (lv (cdr l) k) (%atomic-incf-var 'acc x) (+ x k))))";
  FunctionInfo info = extract(src);
  CriResult r = make_cri(ctx, info);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.work_first);
  EXPECT_EQ(sexpr::write_str(r.server_defun),
            "(defun lv$cri (%dest l k) (let ((%next t)) (while %next "
            "(setq %next nil) (when l (let ((x (* 2 (car l)))) (progn "
            "(%cri-tail lv$tail %dest l k x) (setq l (cdr l)) "
            "(setq %dest nil) (setq %next t)))))))");
  EXPECT_EQ(sexpr::write_str(r.tail_defun),
            "(defun lv$tail (%dest l k %b0) (let ((x %b0)) "
            "(%atomic-incf-var (quote acc) x) (if %dest (setf (cdr %dest) "
            "(+ x k)) "
            "(+ x k))))");

  runtime::Runtime rt(in, 2);
  rt.install();
  run("(setq acc 0)");
  run(src);
  const std::string want = run("(list (lv '(1 2 3 4) 10) acc)");
  eval_form(r.server_defun);
  eval_form(r.tail_defun);
  eval_form(r.wrapper_defun);
  for (int s = 1; s <= 4; ++s) {
    run("(setq acc 0)");
    EXPECT_EQ(run("(list (lv$parallel " + std::to_string(s) +
                  " '(1 2 3 4) 10) acc)"),
              want)
        << "S=" << s;
  }
}

TEST_F(TransformTest, CriWorkFirstGuardsStatementsAfterTheCallsForm) {
  // (print 2) follows the form holding the call: the head runs it when
  // the call is not reached, the tail when it is.
  FunctionInfo info = extract(
      "(defun g (l) (when l (g (cdr l)) (print 1)) (print 2))");
  CriResult r = make_cri(ctx, info);
  ASSERT_TRUE(r.ok) << r.failure;
  ASSERT_TRUE(r.work_first);
  const std::string server = sexpr::write_str(r.server_defun);
  EXPECT_NE(server.find("(unless %next (if %dest (setf (cdr %dest) "
                        "(print 2)) (print 2)))"),
            std::string::npos)
      << server;
  EXPECT_EQ(sexpr::write_str(r.tail_defun),
            "(defun g$tail (%dest l) (print 1) (if %dest (setf (cdr %dest) "
            "(print 2)) (print 2)))");
}

TEST_F(TransformTest, CriShapesTheLoopCannotExpressKeepEnqueues) {
  // A let that shadows a parameter on the call's path, two call sites,
  // a head that makes a closure (in a statement, a let binding or the
  // call's arguments), and a locked plan keep the enqueue form.
  for (const char* src :
       {"(defun f (l) (let ((l (cdr l))) (when l (f l) (print l))))",
        "(defun f (x) (when (consp x) (f (car x)) (f (cdr x)) (print x)))",
        "(defun f (l) (when l (setf (car l) (lambda () l)) (f (cdr l))))",
        "(defun f (l) (when l (let ((p (future (length l)))) (f (cdr l))"
        " (print p))))",
        "(defun f (l g) (when l (f (cdr l) (lambda () l)) (print l)))"}) {
    CriResult r = make_cri(ctx, extract(src));
    ASSERT_TRUE(r.ok) << r.failure;
    EXPECT_FALSE(r.work_first) << src;
    EXPECT_NE(sexpr::write_str(r.server_defun).find("%cri-enqueue"),
              std::string::npos);
  }
  CriResult locked = make_cri(
      ctx, extract("(defun f (l) (when l (f (cdr l)) (print l)))"),
      var_lock());
  EXPECT_FALSE(locked.work_first);
}

TEST_F(TransformTest, CriClosuresNoHeadSharesKeepTheLoop) {
  // A tail's closure captures f$tail's own frame, which no head shares;
  // a locked update applies its lambda in place.
  for (const char* src :
       {"(defun f (l) (when l (f (cdr l)) (print (lambda () l))))",
        "(defun f (l) (when l (%locked-update-var (quote v) (lambda (%old)"
        " (* %old (car l)))) (f (cdr l)) (print l)))"}) {
    CriResult r = make_cri(ctx, extract(src));
    ASSERT_TRUE(r.ok) << r.failure;
    EXPECT_TRUE(r.work_first) << src;
  }
}

// ---- work-first form with locks: every locked access in the head ------

TEST_F(TransformTest, CriLockedHeadLoopHoistsVariableLock) {
  // balance is read and written only before the call: the lock is taken
  // once around the loop, and the tail is the post-call statement.
  const char* src =
      "(defun drain (l k) (when l (setq balance (- (car l) balance))"
      " (drain (cdr l) k) (work k) nil))";
  CriResult r = make_locked(src);
  ASSERT_TRUE(r.ok) << r.failure;
  ASSERT_TRUE(r.work_first);
  EXPECT_EQ(sexpr::write_str(r.server_defun),
            "(defun drain$cri (%dest l k) (%lock-var (quote balance)) "
            "(let ((%next t)) (while %next (setq %next nil) (when l "
            "(setq balance (- (car l) balance)) (progn (%cri-tail "
            "drain$tail %dest l k) (setq l (cdr l)) (setq %dest nil) "
            "(setq %next t))))) (%unlock-var (quote balance)))");
  EXPECT_EQ(sexpr::write_str(r.tail_defun),
            "(defun drain$tail (%dest l k) (work k))");

  runtime::Runtime rt(in, 2);
  rt.install();
  run("(defun work (k) (dotimes (i k) nil))");
  run(src);
  const std::string want =
      run("(progn (setq balance 0) (drain '(5 1 4 2 3) 10) balance)");
  eval_form(r.server_defun);
  eval_form(r.tail_defun);
  eval_form(r.wrapper_defun);
  for (int s = 1; s <= 4; ++s) {
    EXPECT_EQ(run("(progn (setq balance 0) (drain$parallel " +
                  std::to_string(s) + " '(5 1 4 2 3) 10) balance)"),
              want)
        << "S=" << s;
  }
}

TEST_F(TransformTest, CriLockedHeadLoopTakesStructureLocksPerIteration) {
  // Fig 4's locks name cells that move with l: each iteration locks its
  // own, evaluated once into %m0/%m1, and releases them before the tail
  // is queued and before l moves on — or at the end of an iteration
  // that does not reach the call.
  const char* src =
      "(defun shift (l k) (when (cdr l) (setf (cadr l) (car l))"
      " (shift (cdr l) k) (work k) nil))";
  CriResult r = make_locked(src);
  ASSERT_TRUE(r.ok) << r.failure;
  ASSERT_TRUE(r.work_first);
  const std::string server = sexpr::write_str(r.server_defun);
  EXPECT_EQ(server,
            "(defun shift$cri (%dest l k) (let ((%next t) (%m0 nil) "
            "(%m1 nil)) (while %next (setq %next nil) "
            "(%lock (setq %m0 l) (quote car) (quote read)) "
            "(%lock (setq %m1 (cdr l)) (quote car) (quote write)) "
            "(when (cdr l) (setf (cadr l) (car l)) (progn "
            "(%unlock %m1 (quote car) (quote write)) "
            "(%unlock %m0 (quote car) (quote read)) "
            "(%cri-tail shift$tail %dest l k) (setq l (cdr l)) "
            "(setq %dest nil) (setq %next t))) (unless %next "
            "(%unlock %m1 (quote car) (quote write)) "
            "(%unlock %m0 (quote car) (quote read))))))");
  EXPECT_LT(server.rfind("(%unlock %m0", server.find("%cri-tail")),
            server.find("(unless %next"))
      << "no release between the tail and the argument shift";
  EXPECT_EQ(sexpr::write_str(r.tail_defun),
            "(defun shift$tail (%dest l k) (work k))");

  runtime::Runtime rt(in, 2);
  rt.install();
  run("(defun work (k) (dotimes (i k) nil))");
  run(src);
  const std::string want =
      run("(let ((xs (list 4 8 15 16 23 42))) (shift xs 10) xs)");
  eval_form(r.server_defun);
  eval_form(r.tail_defun);
  eval_form(r.wrapper_defun);
  for (int s = 1; s <= 4; ++s) {
    EXPECT_EQ(run("(let ((xs (list 4 8 15 16 23 42))) (shift$parallel " +
                  std::to_string(s) + " xs 10) xs)"),
              want)
        << "S=" << s;
  }
}

TEST_F(TransformTest, CriLockedTailKeepsEnqueues) {
  // The tail reads or writes the locked variable: the lock would have to
  // reach a tail on another server, so the plan keeps the enqueue form.
  for (const char* src :
       {"(defun dq (l k) (when l (setq balance (- (car l) balance))"
        " (dq (cdr l) k) (work balance) nil))",
        "(defun dq (l k) (when l (setq balance (- (car l) balance))"
        " (dq (cdr l) k) (setq balance (* 2 balance)) nil))"}) {
    CriResult r = make_locked(src);
    ASSERT_TRUE(r.ok) << r.failure;
    EXPECT_FALSE(r.work_first) << src;
    const std::string server = sexpr::write_str(r.server_defun);
    EXPECT_NE(server.find("(%cri-enqueue 0 nil (cdr l) k)"),
              std::string::npos)
        << server;
    EXPECT_NE(server.find("(%lock-var (quote balance))"), std::string::npos)
        << server;
  }
}

TEST_F(TransformTest, CriRejectsEmbeddedResultUse) {
  FunctionInfo info = extract(
      "(defun f (l) (if (null l) 0 (+ 1 (f (cdr l)))))");
  CriResult r = make_cri(ctx, info);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("§5"), std::string::npos)
      << "feedback should point at the enabling transformations";
}

TEST_F(TransformTest, CriRejectsNonRecursive) {
  FunctionInfo info = extract("(defun f (l) (car l))");
  CriResult r = make_cri(ctx, info);
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace curare::transform
