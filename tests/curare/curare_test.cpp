// End-to-end driver tests: load → analyze → transform → run, with the
// paper's correctness criterion checked directly — final-state
// sequentializability: "concurrent execution improves the speed of a
// program but does not change its result" (§3.1.1).
#include "curare/curare.hpp"

#include <gtest/gtest.h>

#include "sexpr/equal.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"

namespace curare {
namespace {

using sexpr::Value;
using sexpr::write_str;

class CurareTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  Curare cur{ctx, 4};

  Value read(std::string_view src) { return sexpr::read_one(ctx, src); }

  std::string build_list(int n) {
    std::string s = "(";
    for (int i = 1; i <= n; ++i) s += std::to_string(i) + " ";
    return s + ")";
  }
};

TEST_F(CurareTest, AnalyzeFig3) {
  cur.load_program(
      "(defun f (l) (when l (print (car l)) (f (cdr l))))");
  AnalysisReport r = cur.analyze("f");
  EXPECT_TRUE(r.conflicts.clean());
  ASSERT_EQ(r.transfers.size(), 1u);
  EXPECT_EQ(r.transfers[0].first, "l");
  EXPECT_EQ(r.transfers[0].second, "cdr.cdr*");
  std::string text = r.to_string();
  EXPECT_NE(text.find("conflicts: 0"), std::string::npos) << text;
}

TEST_F(CurareTest, AnalyzeUnknownFunctionThrows) {
  EXPECT_THROW(cur.analyze("nope"), sexpr::LispError);
}

TEST_F(CurareTest, TransformConflictFreeTraversal) {
  cur.load_program(
      "(setq seen 0)"
      "(defun count-elts (l)"
      "  (when l (%atomic-incf-var 'seen 1) (count-elts (cdr l))))");
  TransformPlan plan = cur.transform("count-elts");
  ASSERT_TRUE(plan.ok) << plan.failure;
  EXPECT_EQ(plan.locks_inserted, 0);
  EXPECT_EQ(plan.num_sites, 1u);
  const Value args[] = {read(build_list(200))};
  cur.run_parallel("count-elts", args, 4);
  EXPECT_EQ(cur.interp().eval_program("seen").as_fixnum(), 200);
}

TEST_F(CurareTest, Fig4GetsLocksAndStaysSequentializable) {
  // Fig 4 prefix-shift: (setf (cadr l) (car l)) with τ=cdr: every cell
  // becomes the original car of its predecessor. Locks must preserve
  // the sequential result under 4 servers.
  cur.load_program(
      "(defun shift (l) (when (cdr l) (setf (cadr l) (car l))"
      " (shift (cdr l))))");
  TransformPlan plan = cur.transform("shift");
  ASSERT_TRUE(plan.ok) << plan.failure;
  EXPECT_GT(plan.locks_inserted, 0);
  ASSERT_TRUE(plan.concurrency_cap.has_value());
  EXPECT_EQ(*plan.concurrency_cap, 1) << "distance-1 conflict";

  // Sequential reference.
  Value seq_list = read(build_list(64));
  const Value seq_args[] = {seq_list};
  cur.run_sequential("shift", seq_args);

  // Parallel run on a fresh copy.
  Value par_list = read(build_list(64));
  const Value par_args[] = {par_list};
  cur.run_parallel("shift", par_args, 4);

  EXPECT_TRUE(sexpr::equal_values(seq_list, par_list))
      << "sequentializability violated:\n  seq: " << write_str(seq_list)
      << "\n  par: " << write_str(par_list);
}

TEST_F(CurareTest, Fig5PrefixSumSequentializable) {
  cur.load_program(
      "(defun psum (l)"
      "  (cond ((null l) nil)"
      "        ((null (cdr l)) nil)"
      "        (t (setf (cadr l) (+ (car l) (cadr l)))"
      "           (psum (cdr l)))))");
  TransformPlan plan = cur.transform("psum");
  ASSERT_TRUE(plan.ok) << plan.failure;

  Value seq_list = read(build_list(64));
  const Value a1[] = {seq_list};
  cur.run_sequential("psum", a1);

  Value par_list = read(build_list(64));
  const Value a2[] = {par_list};
  cur.run_parallel("psum", a2, 4);

  EXPECT_TRUE(sexpr::equal_values(seq_list, par_list));
  // Cross-check the actual values: prefix sums 1, 3, 6, 10, …
  EXPECT_EQ(sexpr::cadr(seq_list).as_fixnum(), 3);
  EXPECT_EQ(sexpr::caddr(seq_list).as_fixnum(), 6);
}

TEST_F(CurareTest, ReorderableCounterUsesAtomicNotLocks) {
  cur.load_program(
      "(setq total 0)"
      "(defun tally (l)"
      "  (when l (setq total (+ total (car l))) (tally (cdr l))))");
  TransformPlan plan = cur.transform("tally");
  ASSERT_TRUE(plan.ok) << plan.failure;
  EXPECT_GT(plan.reordered, 0);
  EXPECT_EQ(plan.locks_inserted, 0)
      << "reordering must remove the need for locks";

  const Value args[] = {read(build_list(100))};
  cur.run_parallel("tally", args, 4);
  EXPECT_EQ(cur.interp().eval_program("total").as_fixnum(), 5050);
}

TEST_F(CurareTest, SumBecomesIterative) {
  cur.load_program(
      "(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))");
  TransformPlan plan = cur.transform("sum");
  ASSERT_TRUE(plan.ok) << plan.failure;
  EXPECT_TRUE(plan.used_rec2iter);
  const Value args[] = {read(build_list(1000))};
  EXPECT_EQ(cur.run_parallel("sum", args, 4).as_fixnum(), 500500);
  EXPECT_EQ(cur.run_sequential("sum", args).as_fixnum(), 500500);
}

TEST_F(CurareTest, RemqGoesThroughDps) {
  cur.load_program(
      "(defun remq (obj lst)"
      "  (cond ((null lst) nil)"
      "        ((eq obj (car lst)) (remq obj (cdr lst)))"
      "        (t (cons (car lst) (remq obj (cdr lst))))))");
  TransformPlan plan = cur.transform("remq");
  ASSERT_TRUE(plan.ok) << plan.failure;
  EXPECT_TRUE(plan.used_dps);
  EXPECT_EQ(plan.locks_inserted, 0)
      << "DPS provenance must suppress destination locks";

  const Value args[] = {ctx.sym("a"),
                        read("(a 1 a 2 a 3 a)")};
  Value seq = cur.run_sequential("remq", args);
  Value par = cur.run_parallel("remq", args, 4);
  EXPECT_EQ(write_str(seq), "(1 2 3)");
  EXPECT_TRUE(sexpr::equal_values(seq, par))
      << "par: " << write_str(par);
}

TEST_F(CurareTest, DpsParallelLargeListMatchesSequential) {
  cur.load_program(
      "(defun keep-odd (obj lst)"
      "  (cond ((null lst) nil)"
      "        ((eq obj (car lst)) (keep-odd obj (cdr lst)))"
      "        (t (cons (car lst) (keep-odd obj (cdr lst))))))");
  TransformPlan plan = cur.transform("keep-odd");
  ASSERT_TRUE(plan.ok) << plan.failure;

  std::string big = "(";
  for (int i = 0; i < 2000; ++i)
    big += (i % 2 == 0) ? "x " : std::to_string(i) + " ";
  big += ")";
  const Value args[] = {ctx.sym("x"), read(big)};
  Value seq = cur.run_sequential("keep-odd", args);
  Value par = cur.run_parallel("keep-odd", args, 8);
  EXPECT_EQ(sexpr::list_length(par), 1000u);
  EXPECT_TRUE(sexpr::equal_values(seq, par));
}

TEST_F(CurareTest, TailResultCaptured) {
  cur.load_program(
      "(defun last-elt (l)"
      "  (if (null (cdr l)) (car l) (last-elt (cdr l))))");
  TransformPlan plan = cur.transform("last-elt");
  ASSERT_TRUE(plan.ok) << plan.failure;
  const Value args[] = {read("(1 2 3 99)")};
  EXPECT_EQ(cur.run_parallel("last-elt", args, 3).as_fixnum(), 99);
}

TEST_F(CurareTest, NotRecursiveRefused) {
  cur.load_program("(defun plain (x) (+ x 1))");
  TransformPlan plan = cur.transform("plain");
  EXPECT_FALSE(plan.ok);
  EXPECT_NE(plan.failure.find("not self-recursive"), std::string::npos);
}

TEST_F(CurareTest, NoRestructureDeclarationRespected) {
  cur.load_program(
      "(curare-declare (no-restructure f))"
      "(defun f (l) (when l (f (cdr l))))");
  TransformPlan plan = cur.transform("f");
  EXPECT_FALSE(plan.ok);
  EXPECT_NE(plan.failure.find("no-restructure"), std::string::npos);
}

TEST_F(CurareTest, EvalDefeatsTransformWithFeedback) {
  cur.load_program(
      "(defun f (l) (when l (eval (car l)) (f (cdr l))))");
  TransformPlan plan = cur.transform("f");
  EXPECT_FALSE(plan.ok);
  EXPECT_FALSE(plan.feedback.empty());
}

TEST_F(CurareTest, CrossParamAliasingRefusedWithAdvice) {
  cur.load_program(
      "(defun zip-set (a b)"
      "  (when a (setf (car a) (car b)) (zip-set (cdr a) (cdr b))))");
  TransformPlan plan = cur.transform("zip-set");
  EXPECT_FALSE(plan.ok);
  EXPECT_NE(plan.failure.find("noalias"), std::string::npos)
      << "feedback must name the unblocking declaration (§6)";
}

TEST_F(CurareTest, NoaliasDeclarationUnblocks) {
  cur.load_program(
      "(curare-declare (noalias zip-set))"
      "(defun zip-set (a b)"
      "  (when a (setf (car a) (car b)) (zip-set (cdr a) (cdr b))))");
  TransformPlan plan = cur.transform("zip-set");
  EXPECT_TRUE(plan.ok) << plan.failure;
}

TEST_F(CurareTest, ResultUsedWithoutEnablingTransformsFails) {
  cur.load_program(
      "(defun depth (x)"
      "  (if (atom x) 0 (max (depth (car x)) (depth (cdr x)))))");
  TransformPlan plan = cur.transform("depth");
  EXPECT_FALSE(plan.ok);
  EXPECT_NE(plan.failure.find("neither enabling transformation (§5) "
                              "applies"),
            std::string::npos)
      << plan.failure;
}

TEST_F(CurareTest, PlanToStringMentionsStrategy) {
  cur.load_program(
      "(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
  TransformPlan plan = cur.transform("f");
  ASSERT_TRUE(plan.ok);
  std::string text = plan.to_string();
  EXPECT_NE(text.find("locks"), std::string::npos);
  EXPECT_NE(text.find("f$parallel"), std::string::npos);
}

TEST_F(CurareTest, RunParallelWithoutTransformThrows) {
  cur.load_program("(defun f (l) (when l (f (cdr l))))");
  const Value args[] = {Value::nil()};
  EXPECT_THROW(cur.run_parallel("f", args, 2), sexpr::LispError);
}

TEST_F(CurareTest, SchedulerPicksServersWhenZero) {
  cur.load_program(
      "(setq c 0)"
      "(defun f (l) (when l (%atomic-incf-var 'c 1) (f (cdr l))))");
  TransformPlan plan = cur.transform("f");
  ASSERT_TRUE(plan.ok);
  const Value args[] = {read(build_list(50))};
  cur.run_parallel("f", args, 0);  // scheduler decides S
  EXPECT_EQ(cur.interp().eval_program("c").as_fixnum(), 50);
}

// Property sweep: Fig 4-style shift with varying list sizes and server
// counts always matches the sequential result.
struct SweepParam {
  int list_size;
  int servers;
};

class SequentializableSweep
    : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SequentializableSweep, ShiftMatchesSequential) {
  sexpr::Ctx ctx;
  Curare cur(ctx, 4);
  cur.load_program(
      "(defun shift (l) (when (cdr l) (setf (cadr l) (car l))"
      " (shift (cdr l))))");
  TransformPlan plan = cur.transform("shift");
  ASSERT_TRUE(plan.ok) << plan.failure;

  auto make_list = [&](int n) {
    std::string s = "(";
    for (int i = 1; i <= n; ++i) s += std::to_string(i * 3) + " ";
    return sexpr::read_one(ctx, s + ")");
  };
  Value seq_list = make_list(GetParam().list_size);
  const Value a1[] = {seq_list};
  cur.run_sequential("shift", a1);

  Value par_list = make_list(GetParam().list_size);
  const Value a2[] = {par_list};
  cur.run_parallel("shift", a2,
                   static_cast<std::size_t>(GetParam().servers));
  EXPECT_TRUE(sexpr::equal_values(seq_list, par_list));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndServers, SequentializableSweep,
    ::testing::Values(SweepParam{1, 2}, SweepParam{2, 2},
                      SweepParam{17, 3}, SweepParam{64, 4},
                      SweepParam{128, 8}, SweepParam{256, 2}));

}  // namespace
}  // namespace curare
