// End-to-end driver tests: load → analyze → transform → run, with the
// paper's correctness criterion checked directly — final-state
// sequentializability: "concurrent execution improves the speed of a
// program but does not change its result" (§3.1.1).
#include "curare/curare.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "forced_cri.hpp"
#include "oracle.hpp"
#include "runtime/fault_injector.hpp"
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

  /// Checks that the untransformed program returns `want` for `call`
  /// (oracle.hpp), then loads `program`, restructures the function
  /// `call` names, and checks a CRI run returns the same at S=1 and
  /// S=4 (forced_cri.hpp: the entry may run the original once the
  /// first run is measured), and so does the entry at S=4. A
  /// multi-server-vs-one-server comparison cannot see a wrong value
  /// that both produce.
  void expect_original_value(std::string_view program,
                             std::string_view call, std::string_view want) {
    ASSERT_EQ(oracle::original_value(program, call), want) << call;
    cur.load_program(program);
    Value form = read(call);
    const std::string fn = sexpr::as_symbol(sexpr::car(form))->name;
    TransformPlan plan = cur.transform(fn);
    ASSERT_TRUE(plan.ok) << plan.failure;
    std::vector<Value> args;
    for (Value a = sexpr::cdr(form); !a.is_nil(); a = sexpr::cdr(a))
      args.push_back(cur.interp().eval_top(sexpr::car(a)));
    for (std::size_t servers : {1, 4}) {
      EXPECT_EQ(write_str(forced::cri(cur, plan, args, servers)), want)
          << call << " at S=" << servers;
    }
    EXPECT_EQ(write_str(cur.run_parallel(fn, args, 4)), want)
        << call << " through the entry";
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
  expect_original_value(
      "(defun last-elt (l)"
      "  (if (null (cdr l)) (car l) (last-elt (cdr l))))",
      "(last-elt '(1 2 3 99))", "99");
}

// ---- the value the original program returns ----------------------------
// Each program's sequential value comes from one invocation: I_0's, or,
// when I_0 returns through a tail-position recursive call, its callee's,
// and so on down the tail-call chain.

constexpr const char* kWork = "(defun work (k) (dotimes (i k) nil))";

TEST_F(CurareTest, FirstValueComesFromTheRootInvocation) {
  // Every invocation evaluates (car l), and the deepest finishes last;
  // the original returns I_0's value.
  expect_original_value(
      std::string(kWork) +
          "(defun firstval (l k)"
          "  (when l (firstval (cdr l) k) (work k) (car l)))",
      "(firstval '" + build_list(20) + " 50)", "1");
}

TEST_F(CurareTest, LastValueComesFromTheTailCallChain) {
  expect_original_value(
      std::string(kWork) +
          "(defun lastval (l k)"
          "  (when l (work k) (if (cdr l) (lastval (cdr l) k) (car l))))",
      "(lastval '" + build_list(20) + " 50)", "20");
}

TEST_F(CurareTest, TestOnlyCondClauseValueSurvives) {
  // ((car l)) returns its test's value; a failing test stores nothing.
  const char* cz =
      "(defun cz (l)"
      "  (cond ((null (cdr l)) (car l)) ((car l)) (t (cz (cdr l)))))";
  expect_original_value(cz, "(cz '(1 2 3))", "1");
  expect_original_value(cz, "(cz '(nil 2 3))", "2");
  expect_original_value(cz, "(cz '(nil nil 3))", "3");
}

// ---- work-first: heads as a loop, tails as tasks ----------------------
// Each shape is checked against the untransformed program at S=1, 2 and
// 4, and, on hosts with two or more cores, a run at S≥2 must really
// have overlapped: tails completed on at least two servers. Otherwise a
// run that happened to execute sequentially would pass.

constexpr const char* kWorkFirstPrelude =
    "(defun work (k) (dotimes (i k) nil))"
    "(defun iota (n)"
    "  (let ((r nil)) (while (> n 0) (setq r (cons n r)) (setq n (- n 1)))"
    "    r))";

struct WorkFirstCase {
  const char* fn;
  const char* defun;
  const char* reset;  ///< forms run before each call
  const char* call;   ///< the call, its arguments over the reset state
  const char* state;  ///< final state to compare
};

void PrintTo(const WorkFirstCase& c, std::ostream* os) { *os << c.fn; }

/// CURARE_CHAOS (FaultInjector::parse_spec) arms the fault injector for
/// each work-first test, so a chaos run can widen the race windows of
/// the tail batches with delay faults (CI runs them under TSan).
class WorkFirst : public CurareTest {
 protected:
  void SetUp() override {
    if (const char* text = std::getenv("CURARE_CHAOS")) {
      const auto spec = runtime::FaultInjector::parse_spec(text);
      ASSERT_TRUE(spec.has_value()) << "bad CURARE_CHAOS: " << text;
      runtime::FaultInjector::instance().configure(spec->seed, spec->rate,
                                                   spec->kinds, spec->sites);
    }
  }
  void TearDown() override { runtime::FaultInjector::instance().disable(); }
};

class WorkFirstShapes : public WorkFirst,
                        public ::testing::WithParamInterface<WorkFirstCase> {};

TEST_P(WorkFirstShapes, MatchesOriginalAndOverlaps) {
  const WorkFirstCase& c = GetParam();
  const std::string program = std::string(kWorkFirstPrelude) + c.defun;
  const std::string probe = std::string("(progn ") + c.reset +
                            " (let ((r " + c.call + ")) (list r " +
                            c.state + ")))";
  const std::string want = oracle::original_value(program, probe);

  cur.load_program(program);
  TransformPlan plan = cur.transform(c.fn);
  ASSERT_TRUE(plan.ok) << plan.failure;
  ASSERT_TRUE(plan.work_first) << plan.to_string();
  ASSERT_NE(plan.tail, nullptr) << plan.to_string();
  EXPECT_EQ(plan.num_sites, 1u);

  const std::string par_call =
      std::string("(") + c.fn + "$parallel S " +
      std::string(c.call).substr(std::string(c.fn).size() + 2);
  const bool multicore = std::thread::hardware_concurrency() >= 2;
  for (std::size_t servers : {1, 2, 4}) {
    std::string call = par_call;
    call.replace(call.find(" S "), 3, " " + std::to_string(servers) + " ");
    const std::string got_src = std::string("(progn ") + c.reset +
                                " (let ((r " + call + ")) (list r " +
                                c.state + ")))";
    std::size_t overlapped = 0;
    // A loaded host can leave the other servers asleep for a whole
    // run; every attempt is still checked against the original.
    for (int attempt = 0; attempt < 5; ++attempt) {
      EXPECT_EQ(write_str(cur.eval_program(got_src)), want)
          << c.fn << " at S=" << servers;
      overlapped = 0;
      for (std::uint64_t n : cur.runtime().last_cri_stats().tasks_per_server)
        overlapped += n > 0;
      if (servers == 1 || !multicore || overlapped >= 2) break;
    }
    EXPECT_TRUE(cur.runtime().last_cri_stats().work_first);
    if (servers >= 2 && multicore) {
      EXPECT_GE(overlapped, 2u) << c.fn << ": tails never left one server";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WorkFirstShapes,
    ::testing::Values(
        WorkFirstCase{"tally",
                      "(setq total 0)"
                      "(defun tally (l k)"
                      "  (when l (tally (cdr l) k) (work k)"
                      "    (setq total (+ total (car l))) nil))",
                      "(setq total 0)", "(tally (iota 400) 300)", "total"},
        WorkFirstCase{"scale",
                      "(defun scale (l k)"
                      "  (when l (scale (cdr l) k) (work k)"
                      "    (setf (car l) (* 2 (car l))) nil))",
                      "(setq xs (iota 400))", "(scale xs 300)", "xs"},
        // A let-bound variable the tail reads, and a value-returning
        // tail: the function's value is I_0's (+ x 1).
        WorkFirstCase{"lv",
                      "(setq acc 0)"
                      "(defun lv (l k)"
                      "  (when l"
                      "    (let ((x (* 2 (car l))))"
                      "      (lv (cdr l) k) (work k)"
                      "      (setq acc (+ acc x)) (+ x 1))))",
                      "(setq acc 0)", "(lv (iota 400) 300)", "acc"},
        // A lock plan whose locked accesses all lie in the head: the
        // variable lock is held around the loop...
        WorkFirstCase{"drain",
                      "(setq balance 0)"
                      "(defun drain (l k)"
                      "  (when l (setq balance (- (car l) balance))"
                      "    (drain (cdr l) k) (work k) nil))",
                      "(setq balance 0)", "(drain (iota 400) 300)",
                      "balance"},
        // ... and Fig 4's structure locks are taken per iteration.
        WorkFirstCase{"shift",
                      "(defun shift (l k)"
                      "  (when (cdr l) (setf (cadr l) (car l))"
                      "    (shift (cdr l) k) (work k) nil))",
                      "(setq xs (iota 400))", "(shift xs 300)", "xs"}),
    [](const ::testing::TestParamInfo<WorkFirstCase>& i) {
      return std::string(i.param.fn);
    });

TEST_F(WorkFirst, ThrowingTailAbortsWithItsError) {
  cur.load_program(std::string(kWorkFirstPrelude) +
                   "(defun boom (l k)"
                   "  (when l (boom (cdr l) k) (work k)"
                   "    (when (eq (car l) 150) (error \"boom at 150\")) nil))");
  TransformPlan plan = cur.transform("boom");
  ASSERT_TRUE(plan.work_first) << plan.to_string();
  Value server = cur.interp().global("boom$cri");
  runtime::CriRun run(cur.interp(), server, 1, 4, cur.runtime().obs());
  {
    gc::MutatorScope ms(ctx.heap.gc());
    Value list = cur.eval_program("(iota 400)");
    try {
      std::move(run).run({Value::nil(), list, Value::fixnum(100)});
      FAIL() << "the tail's error must abort the run";
    } catch (const sexpr::LispError& e) {
      EXPECT_NE(std::string(e.what()).find("boom at 150"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NE(run.dump_state().find("pending tasks: 0,"), std::string::npos)
      << run.dump_state();
  // Nothing was left behind: the next run completes.
  cur.load_program("(setq seen 0)"
                   "(defun ok (l) (when l (ok (cdr l))"
                   "  (setq seen (+ seen 1)) nil))");
  ASSERT_TRUE(cur.transform("ok").work_first);
  cur.eval_program("(ok$parallel 4 (iota 300))");
  EXPECT_EQ(cur.eval_program("seen").as_fixnum(), 300);
}

/// Runs `call`, which must fail, then checks that the failed run left
/// no lock behind: a following run of `again` and a bare lock of bal on
/// this thread complete within a deadline instead of waiting forever.
void expect_abort_releases_bal(Curare& cur, const std::string& call,
                               const std::string& again) {
  EXPECT_THROW(cur.eval_program(call), sexpr::LispError) << call;
  runtime::CancelState deadline;
  deadline.set_deadline_ms(5000);
  runtime::CancelScope scope(&deadline);
  EXPECT_NO_THROW(cur.eval_program(again)) << again;
  EXPECT_NO_THROW(cur.eval_program("(progn (%lock-var 'bal)"
                                   " (%unlock-var 'bal))"));
}

TEST_F(WorkFirst, ThrowingLockedHeadLoopReleasesItsLock) {
  // The head loop holds bal's lock around the loop when (- 'x bal)
  // throws.
  cur.load_program("(setq bal 0)"
                   "(defun dr (l) (when l (setq bal (- (car l) bal))"
                   "  (dr (cdr l)) nil))");
  TransformPlan plan = cur.transform("dr");
  ASSERT_TRUE(plan.work_first) << plan.to_string();
  ASSERT_GT(plan.locks_inserted, 0) << plan.to_string();
  expect_abort_releases_bal(cur, "(dr$parallel 2 (list 1 2 'x 4))",
                            "(dr$parallel 2 (list 1 2 3 4))");
  // dr has no tail: after the measured run above, its entry would run
  // the original, so this run is forced (forced_cri.hpp).
  forced::install(cur);
  EXPECT_EQ(write_str(cur.eval_program(
                "(progn (setq bal 0) " +
                forced::call(plan, 2, "(list 1 2 3 4)") + " bal)")),
            write_str(cur.eval_program(
                "(progn (setq bal 0) (dr (list 1 2 3 4)) bal)")));
}

TEST_F(WorkFirst, ThrowingLockedEnqueueFormReleasesItsLock) {
  // The tail reads bal, so the plan keeps the enqueue form; the failing
  // invocation holds bal's lock from the top of its body.
  cur.load_program("(setq bal 0)"
                   "(defun dq (l) (when l (setq bal (- (car l) bal))"
                   "  (dq (cdr l)) (list bal) nil))");
  TransformPlan plan = cur.transform("dq");
  ASSERT_TRUE(plan.ok) << plan.failure;
  ASSERT_FALSE(plan.work_first) << plan.to_string();
  ASSERT_GT(plan.locks_inserted, 0) << plan.to_string();
  expect_abort_releases_bal(cur, "(dq$parallel 2 (list 1 2 'x 4))",
                            "(dq$parallel 2 (list 1 2 3 4))");
}

TEST_F(WorkFirst, DeadlineEndsTheHeadLoop) {
  // A head that never ends: every iteration queues a tail and loops on.
  cur.load_program(std::string(kWorkFirstPrelude) +
                   "(defun forever (n k)"
                   "  (when n (forever (+ n 1) k) (work k) nil))");
  ASSERT_TRUE(cur.transform("forever").work_first);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    runtime::CancelState deadline;
    deadline.set_deadline_ms(100);
    runtime::CancelScope scope(&deadline);
    cur.eval_program("(forever$parallel 4 0 20)");
    FAIL() << "an endless head loop must not finish";
  } catch (const runtime::StallError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

TEST_F(WorkFirst, TailsSurviveCollections) {
  // Collect on every block refill while an allocating tail runs: the
  // queued and pending batches must stay rooted.
  const std::string program =
      std::string(kWorkFirstPrelude) +
      "(setq gsum 0)"
      "(defun galloc (l)"
      "  (when l (galloc (cdr l))"
      "    (setq gsum (+ gsum (length (iota (car l))))) nil))";
  const std::string probe =
      "(progn (setq gsum 0) (galloc (iota 300)) gsum)";
  const std::string want = oracle::original_value(program, probe);
  cur.load_program(program);
  ASSERT_TRUE(cur.transform("galloc").work_first);
  ctx.heap.gc().set_threshold(gc::kBlockSize);
  const std::uint64_t before = ctx.heap.gc().stats().collections;
  for (std::size_t servers : {1, 2, 4}) {
    EXPECT_EQ(write_str(cur.eval_program(
                  "(progn (setq gsum 0) (galloc$parallel " +
                  std::to_string(servers) + " (iota 300)) gsum)")),
              want)
        << "S=" << servers;
  }
  EXPECT_GT(ctx.heap.gc().stats().collections, before);
}

TEST_F(WorkFirst, HeadLoopWithoutTailsReportsWorkFirst) {
  // The call is the last statement, so the loop queues nothing; the run
  // is still a head loop, and its stats must say so for :stats to
  // predict it with T_wf.
  cur.load_program("(setq seen 0)"
                   "(defun cnt (l) (when l (setq seen (+ seen 1))"
                   "  (cnt (cdr l))))");
  TransformPlan plan = cur.transform("cnt");
  ASSERT_TRUE(plan.work_first) << plan.to_string();
  EXPECT_EQ(plan.tail, nullptr) << plan.to_string();
  cur.eval_program("(cnt$parallel 2 (list 1 2 3 4 5))");
  EXPECT_EQ(cur.eval_program("seen").as_fixnum(), 5);
  EXPECT_TRUE(cur.runtime().last_cri_stats().work_first);
}

TEST_F(WorkFirst, HeadClosuresSeeTheirOwnInvocation) {
  // mk's closure returns its own invocation's l; mv's returns a let
  // variable its tail assigns later. Neither plan needs a lock, but a
  // head loop would run every head in one frame (each closure would see
  // the last l, nil) and hand the tail a copy of x (each closure would
  // see 0). So both keep the enqueue form, and each closure answers
  // what the original's does.
  const std::string program =
      "(curare-declare (noalias mk) (noalias mv))"
      "(defun mk (l out) (when l (setf (car out) (lambda () l))"
      "  (mk (cdr l) (cdr out))))"
      "(defun mv (l out)"
      "  (when l (let ((x 0)) (setf (car out) (lambda () x))"
      "    (mv (cdr l) (cdr out)) (setq x (length l)))))";
  cur.load_program(program);
  const auto probe = [](const std::string& call) {
    return "(progn (setq xs (list 1 2 3)) (setq os (list 0 0 0)) " + call +
           " (mapcar (lambda (f) (funcall f)) os))";
  };
  // mk has no tail, so after its first run its entry would run the
  // original: every S here is a forced CRI run (forced_cri.hpp).
  forced::install(cur);
  for (const std::string fn : {"mk", "mv"}) {
    const std::string want =
        oracle::original_value(program, probe("(" + fn + " xs os)"));
    TransformPlan plan = cur.transform(fn);
    ASSERT_TRUE(plan.ok) << plan.failure;
    EXPECT_FALSE(plan.work_first) << plan.to_string();
    for (std::size_t servers : {1, 2, 4}) {
      EXPECT_EQ(write_str(cur.eval_program(
                    probe(forced::call(plan, servers, "xs os")))),
                want)
          << fn << " at S=" << servers;
    }
  }
}

TEST_F(CurareTest, IncrementOfALockedVariableTakesTheLock) {
  // Both updates of v are reordered into increments, and the plain
  // write of v between them is ordered by v's lock. A CAS increment
  // would not wait for that lock, so the increments take it too.
  cur.load_program(
      "(setq v 1)"
      "(defun mix (l)"
      "  (when l (setq v (+ v 1)) (setq v (car l)) (setq v (+ v 2))"
      "    (mix (cdr l))))");
  TransformPlan plan = cur.transform("mix");
  ASSERT_TRUE(plan.ok) << plan.failure;
  EXPECT_EQ(plan.reordered, 2) << plan.to_string();
  std::string text;
  for (Value f : plan.forms) text += write_str(f);
  EXPECT_NE(text.find("(%locked-update-var (quote v) (lambda (%old) "
                      "(+ %old 1)))"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("%atomic-incf-var"), std::string::npos) << text;
}

TEST_F(CurareTest, AtomicIncrementOfAnUnsetGlobalFailsLikeTheOriginal) {
  // zz is never set: the original's (setq zz (+ zz 1)) signals, and so
  // must the CAS increment the reorder turns it into.
  const std::string program =
      "(defun f (l) (when l (setq zz (+ zz 1)) (f (cdr l))))";
  const auto expect_unbound = [](const std::string& what, auto&& call) {
    try {
      call();
      ADD_FAILURE() << what << " succeeded";
    } catch (const sexpr::LispError& e) {
      EXPECT_NE(std::string(e.what()).find("unbound variable: zz"),
                std::string::npos)
          << what << ": " << e.what();
    }
  };
  expect_unbound("the original", [&] {
    oracle::original_value(program, "(f (list 1 2 3))");
  });
  cur.load_program(program);
  TransformPlan plan = cur.transform("f");
  ASSERT_TRUE(plan.ok) << plan.failure;
  ASSERT_GT(plan.reordered, 0) << plan.to_string();
  for (std::size_t servers : {1, 2}) {
    const std::string call =
        "(f$parallel " + std::to_string(servers) + " (list 1 2 3))";
    expect_unbound(call, [&] { cur.eval_program(call); });
  }
  EXPECT_FALSE(
      cur.interp().global_env()->lookup(ctx.symbols.intern("zz")).has_value())
      << "the failed increments must not bind zz";
}

TEST_F(CurareTest, StructWalkerRunsEveryInvocationOnBytecode) {
  // cri_runs' walk: a defstruct tree with two recursive call sites,
  // each invocation reading, bumping and storing a struct field. Every
  // server body and every callee must run on the VM, none on the
  // tree-walker.
  const std::string program =
      "(defun work (k)"
      "  (let ((i 0) (a 0))"
      "    (while (< i k) (setq a (+ a i)) (setq i (+ i 1))) a))"
      "(defstruct tnode (pointers left right) (data weight))"
      "(defun walk (tr k)"
      "  (when tr"
      "    (walk (left tr) k)"
      "    (walk (right tr) k)"
      "    (work k)"
      "    (setf (weight tr) (+ (weight tr) 1))"
      "    nil))"
      "(defun make-tree (d w)"
      "  (if (= d 0) nil"
      "      (make-tnode 'weight (mod w 100)"
      "                  'left (make-tree (- d 1) (* 3 w))"
      "                  'right (make-tree (- d 1) (+ w 7)))))"
      "(defun tree-weights (tr)"
      "  (if (null tr) nil"
      "      (cons (weight tr)"
      "            (append (tree-weights (left tr))"
      "                    (tree-weights (right tr))))))";
  const std::string want = oracle::original_value(
      program, "(let ((tr (make-tree 8 1))) (walk tr 20) (tree-weights tr))");
  cur.load_program(program);
  TransformPlan plan = cur.transform("walk");
  ASSERT_TRUE(plan.ok) << plan.failure;
  ASSERT_EQ(plan.num_sites, 2u);
  cur.load_program("(setq tr (make-tree 8 1))");
  forced::install(cur);
  const std::uint64_t compiled0 = cur.vm().compiled_entries();
  const std::uint64_t fallback0 = cur.vm().fallback_entries();
  const Value args[] = {cur.interp().global("tr"), Value::fixnum(20)};
  forced::cri(cur, plan, args, 4);
  EXPECT_EQ(cur.vm().fallback_entries() - fallback0, 0u);
  EXPECT_GT(cur.vm().compiled_entries() - compiled0, 0u);
  EXPECT_EQ(write_str(cur.eval_program("(tree-weights tr)")), want);
}

TEST_F(CurareTest, NotRecursiveRefused) {
  cur.load_program("(defun plain (x) (+ x 1))");
  TransformPlan plan = cur.transform("plain");
  EXPECT_FALSE(plan.ok);
  EXPECT_NE(plan.failure.find("not self-recursive"), std::string::npos);
}

TEST_F(CurareTest, LambdaListKeywordsAreRefused) {
  // The analysis stops at a lambda-list keyword, so the parameters after
  // it would reach the CRI forms unbound; the transform refuses instead.
  cur.load_program(
      "(defun rr (l &optional k) (when l (print (car l)) (rr (cdr l) k)))"
      "(defun rs (l &rest ks) (when l (rs (cdr l))))");
  for (const auto& [fn, keyword] :
       {std::pair{"rr", "&optional"}, std::pair{"rs", "&rest"}}) {
    TransformPlan plan = cur.transform(fn);
    EXPECT_FALSE(plan.ok) << fn;
    EXPECT_NE(plan.failure.find(keyword), std::string::npos) << plan.failure;
    EXPECT_TRUE(cur.interp().global(std::string(fn) + "$parallel").is_nil())
        << fn << " must install nothing";
  }
  EXPECT_EQ(write_str(cur.eval_program("(rs (list 1 2 3) 4 5)")), "nil");
}

TEST_F(CurareTest, NoRestructureDeclarationRespected) {
  cur.load_program(
      "(curare-declare (no-restructure f))"
      "(defun f (l) (when l (f (cdr l))))");
  TransformPlan plan = cur.transform("f");
  EXPECT_FALSE(plan.ok);
  EXPECT_NE(plan.failure.find("no-restructure"), std::string::npos);
}

TEST_F(CurareTest, DeclarationsFollowTheDefinitions) {
  // The declarations are rebuilt from the definitions: an inline clause
  // goes when its defun is redefined without it, and a top-level
  // declaration wins over an inline one whichever came first.
  cur.load_program(
      "(defun f (l) (declare (curare (no-restructure))) (when l (f (cdr l))))");
  EXPECT_FALSE(cur.transform("f").ok);
  cur.load_program("(defun f (l) (when l (f (cdr l))))");
  EXPECT_TRUE(cur.transform("f").ok);

  cur.load_program(
      "(curare-declare (no-restructure g))"
      "(defun g (l) (declare (curare (restructure))) (when l (g (cdr l))))");
  TransformPlan plan = cur.transform("g");
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

TEST_F(CurareTest, MixedOperatorsOnOneLocationAreRefused) {
  // + in the head and * in the tail: reordered as if they commuted, the
  // updates gave 1260 where the original gives 9472.
  const std::string program =
      "(setq v 1)"
      "(defun mx (l) (when l (setq v (+ v (car l))) (mx (cdr l))"
      "  (setq v (* v 2))))";
  const std::string probe = "(progn (setq v 1) (mx '(1 2 3 4 5 6 7 8)) v)";
  ASSERT_EQ(oracle::original_value(program, probe), "9472");
  cur.load_program(program);
  TransformPlan plan = cur.transform("mx");
  EXPECT_FALSE(plan.ok) << plan.to_string();
  EXPECT_EQ(plan.reordered, 0);
  EXPECT_NE(plan.failure.find("(setq v (+ v (car l)))"), std::string::npos)
      << plan.failure;
  EXPECT_NE(plan.failure.find("(setq v (* v 2))"), std::string::npos)
      << plan.failure;
  EXPECT_EQ(write_str(cur.eval_program(probe)), "9472");

  // Both operators in the head: still two operators on one variable.
  cur.load_program(
      "(defun mh (l) (when l (setq v (+ v 1)) (setq v (* 3 v))"
      "  (mh (cdr l))))");
  plan = cur.transform("mh");
  EXPECT_FALSE(plan.ok) << plan.to_string();
  EXPECT_NE(plan.failure.find("(setq v (* 3 v))"), std::string::npos)
      << plan.failure;

  // The same on a structure field every invocation shares.
  const std::string fields =
      "(curare-declare (noalias ms))"
      "(defun ms (l b) (when l (setf (car b) (+ (car b) (car l)))"
      "  (ms (cdr l) b) (setf (car b) (* (car b) 2))))";
  ASSERT_EQ(oracle::original_value(
                fields, "(let ((b (list 1))) (ms '(1 2 3 4 5 6 7 8) b) b)"),
            "(9472)");
  cur.load_program(fields);
  plan = cur.transform("ms");
  EXPECT_FALSE(plan.ok) << plan.to_string();
  EXPECT_NE(plan.failure.find("(setf (car b) (* (car b) 2))"),
            std::string::npos)
      << plan.failure;
}

TEST_F(CurareTest, OneOperatorOnBothSidesOfTheCallIsReordered) {
  // The same update before and after the call commutes with itself.
  const std::string program =
      std::string(kWorkFirstPrelude) +
      "(setq v 1)"
      "(defun pp (l) (when l (setq v (+ v (car l))) (pp (cdr l))"
      "  (setq v (+ v 1))))";
  const std::string want =
      oracle::original_value(program, "(progn (setq v 1) (pp (iota 64)) v)");
  ASSERT_EQ(want, "2145");
  cur.load_program(program);
  TransformPlan plan = cur.transform("pp");
  ASSERT_TRUE(plan.ok) << plan.failure;
  EXPECT_EQ(plan.reordered, 2) << plan.to_string();
  forced::install(cur);
  for (std::size_t servers : {1, 4}) {
    EXPECT_EQ(write_str(cur.eval_program(
                  "(progn (setq v 1) " +
                  forced::call(plan, servers, "(iota 64)") + " v)")),
              want)
        << "S=" << servers;
  }
}

// ---- §4.1: the entry runs CRI or the original defun ------------------

TEST_F(CurareTest, HeadOnlyFunctionFallsBackAndReprobes) {
  // dbl's recursive call is its last statement, so its head loop queues
  // no tail: a run measures t = 0, so c_f = (h+t)/h = 1 and the model
  // gives one server at any S. After the first run the entry runs the
  // original defun, except on every kReprobeEvery-th call.
  const std::string program =
      "(defun dbl (l) (when l (setf (car l) (* 2 (car l))) (dbl (cdr l))))";
  const auto probe = [](const std::string& fn) {
    return "(progn (setq xs (list 1 2 3 4 5 6 7 8)) (list (" + fn +
           " xs) xs))";
  };
  const std::string want = oracle::original_value(program, probe("dbl"));
  ASSERT_EQ(want, "(nil (2 4 6 8 10 12 14 16))");
  cur.load_program(program);
  TransformPlan plan = cur.transform("dbl");
  ASSERT_TRUE(plan.ok) << plan.failure;
  ASSERT_TRUE(plan.work_first) << plan.to_string();
  ASSERT_EQ(plan.tail, nullptr) << plan.to_string();
  runtime::Runtime& rt = cur.runtime();
  obs::Counter& fallbacks =
      rt.obs().metrics.counter("cri.sequential_fallback");
  const std::string par = probe("dbl$parallel 4");

  // Nothing is measured before the first call: it runs CRI.
  EXPECT_EQ(write_str(cur.eval_program(par)), want);
  EXPECT_FALSE(rt.last_cri_stats().sequential);
  EXPECT_EQ(rt.last_cri_stats().servers, 4u);
  EXPECT_EQ(rt.last_cri_stats().invocations, 9u);
  EXPECT_EQ(rt.last_cri_stats().tail_ns, 0u);
  EXPECT_EQ(fallbacks.get(), 0u);

  constexpr std::uint32_t kEvery = runtime::Runtime::kReprobeEvery;
  for (std::uint32_t n = 1; n < kEvery; ++n) {
    EXPECT_EQ(write_str(cur.eval_program(par)), want) << "call " << n + 1;
    const runtime::CriStats& st = rt.last_cri_stats();
    EXPECT_TRUE(st.sequential) << "call " << n + 1;
    EXPECT_EQ(st.invocations, 0u);
    EXPECT_EQ(st.servers, 0u);
    EXPECT_EQ(fallbacks.get(), n);
  }
  const std::vector<obs::MeasuredRun> runs = rt.obs().speedup.runs();
  ASSERT_FALSE(runs.empty());
  EXPECT_TRUE(runs.back().sequential);
  EXPECT_EQ(runs.back().label, "dbl$cri");
  EXPECT_DOUBLE_EQ(runs.back().c_f, 1.0);
  EXPECT_EQ(runs.back().invocations, 9u);
  EXPECT_EQ(
      rt.obs().metrics.gauge("cri.sequential_fallback.c_f_milli").get(),
      1000);
  EXPECT_NE(rt.obs().speedup.table().find("seq"), std::string::npos)
      << rt.obs().speedup.table();

  // The kEvery-th call after the run re-probes with CRI...
  EXPECT_EQ(write_str(cur.eval_program(par)), want);
  EXPECT_FALSE(rt.last_cri_stats().sequential);
  EXPECT_EQ(rt.last_cri_stats().invocations, 9u);
  EXPECT_EQ(fallbacks.get(), kEvery - 1);
  // ... and its measurement starts the schedule again.
  EXPECT_EQ(write_str(cur.eval_program(par)), want);
  EXPECT_TRUE(rt.last_cri_stats().sequential);
  EXPECT_EQ(fallbacks.get(), kEvery);

  // S = 0 asks the model, which reads the same measurement.
  const Value args[] = {read("(1 2 3)")};
  EXPECT_EQ(write_str(cur.run_parallel("dbl", args, 0)), "nil");
  EXPECT_TRUE(rt.last_cri_stats().sequential);
  EXPECT_EQ(fallbacks.get(), kEvery + 1);
  // %cri-run itself always runs CRI.
  forced::install(cur);
  EXPECT_EQ(write_str(cur.eval_program(
                "(progn (setq xs (list 1 2 3)) " +
                forced::call(plan, 4, "xs") + " xs)")),
            "(2 4 6)");
  EXPECT_FALSE(rt.last_cri_stats().sequential);
  EXPECT_EQ(fallbacks.get(), kEvery + 1);
}

TEST_F(CurareTest, ConcurrentSessionsShareOneRecord) {
  // Two Curare instances on one Runtime, as the serving layer runs its
  // sessions, call the same head-only entry at once: both read and
  // write the one record kept for dbl$cri.
  const std::string program =
      "(defun dbl (l) (when l (setf (car l) (* 2 (car l))) (dbl (cdr l))))";
  Curare other(ctx, cur.runtime());
  for (Curare* d : {&cur, &other}) {
    d->load_program(program);
    ASSERT_TRUE(d->transform("dbl").ok);
  }
  constexpr int kCalls = 40;
  std::atomic<int> wrong{0};
  auto caller = [&](Curare& d) {
    gc::GcHeap& gc = ctx.heap.gc();
    for (int i = 0; i < kCalls; ++i) {
      gc::MutatorScope ms(gc);
      const Value r = d.load_program(
          "(progn (setq xs (list 1 2 3 4 5 6 7 8)) (dbl$parallel 2 xs) xs)");
      if (write_str(r) != "(2 4 6 8 10 12 14 16)") ++wrong;
    }
  };
  std::thread a(caller, std::ref(cur));
  std::thread b(caller, std::ref(other));
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0);
  std::uint64_t runs = 0;
  for (const obs::MeasuredRun& r : cur.runtime().obs().speedup.runs())
    runs += r.label == "dbl$cri" && !r.sequential;
  const std::uint64_t fallbacks =
      cur.runtime().obs().metrics.counter("cri.sequential_fallback").get();
  EXPECT_EQ(runs + fallbacks, 2u * kCalls);
  // Each caller's first call may start before any run is recorded;
  // after that only the re-probes run CRI.
  EXPECT_GE(runs, 1u);
  EXPECT_LE(runs, 2u + 2u * kCalls / runtime::Runtime::kReprobeEvery);
}

TEST_F(CurareTest, TailHeavyFunctionsKeepTheirRequestedServers) {
  // tally's work is in its tail (h/(h+t) well under 0.1), and serve_mix's
  // ptally measures about 0.5: c_f = 2, so S = 2 is kept.
  cur.load_program(std::string(kWorkFirstPrelude) +
                   "(setq total 0)"
                   "(defun tally (l k)"
                   "  (when l (tally (cdr l) k) (work k)"
                   "    (setq total (+ total (car l))) nil))"
                   "(setq ptotal 0)"
                   "(defun ptally (l) (when l (ptally (cdr l))"
                   "  (setq ptotal (+ ptotal (car l)))))");
  ASSERT_TRUE(cur.transform("tally").ok);
  ASSERT_TRUE(cur.transform("ptally").ok);
  runtime::Runtime& rt = cur.runtime();
  obs::Counter& fallbacks =
      rt.obs().metrics.counter("cri.sequential_fallback");
  for (int call = 0; call < 4; ++call) {
    EXPECT_EQ(cur.eval_program("(progn (setq total 0)"
                               " (tally$parallel 4 (iota 400) 200) total)")
                  .as_fixnum(),
              80200);
    EXPECT_FALSE(rt.last_cri_stats().sequential) << "tally call " << call;
    EXPECT_EQ(rt.last_cri_stats().servers, 4u);
    EXPECT_EQ(cur.eval_program("(progn (setq ptotal 0)"
                               " (ptally$parallel 2 (iota 2000)) ptotal)")
                  .as_fixnum(),
              2001000);
    EXPECT_FALSE(rt.last_cri_stats().sequential) << "ptally call " << call;
    EXPECT_EQ(rt.last_cri_stats().servers, 2u);
  }
  EXPECT_EQ(fallbacks.get(), 0u);
}

TEST_F(CurareTest, RepeatedLoadsKeepOnlyTheDistinctDefinitions) {
  // A served session may send its whole program with every request.
  // The driver keeps the latest form of each definition, not every
  // form it was sent, so its roots stop growing once the program is in.
  const std::string program =
      "(curare-declare (noalias walk))"
      "(defun walk (l) (when l (setq hits (+ hits 1)) (walk (cdr l))))"
      "(defstruct pt (pointers) (data px))"
      "(defun len (l) (if (null l) 0 (+ 1 (len (cdr l)))))"
      "(setq hits 0)";
  std::vector<Value> first_roots;
  for (int i = 0; i < 1000; ++i) {
    cur.load_program(program);
    EXPECT_EQ(write_str(cur.load_program("(walk (list 1 2 3)) (list hits)")),
              "(3)");
    if (i == 0) cur.gc_roots(first_roots);
  }
  std::vector<Value> roots;
  cur.gc_roots(roots);
  EXPECT_EQ(roots.size(), first_roots.size());

  std::vector<std::string> defs;
  for (Value d : cur.definitions()) defs.push_back(write_str(d));
  ASSERT_EQ(defs.size(), 4u);
  EXPECT_EQ(defs[0].rfind("(defstruct pt", 0), 0u) << defs[0];
  EXPECT_EQ(defs[1].rfind("(defun len", 0), 0u) << defs[1];
  EXPECT_EQ(defs[2].rfind("(defun walk", 0), 0u) << defs[2];
  EXPECT_EQ(defs[3], "(curare-declare (noalias walk))");
  EXPECT_EQ(cur.summaries().size(), 2u);
}

TEST(CurareLoad, CollectsBetweenTopLevelForms) {
  // One load of many allocating forms reaches a safepoint between them:
  // under a low threshold the heap collects during the call itself.
  sexpr::Ctx ctx;
  Curare cur(ctx, 1);
  gc::GcHeap& gc = ctx.heap.gc();
  std::string program =
      "(defun junk (n)"
      "  (let ((r nil)) (dotimes (i n) (setq r (cons i r))) r))";
  for (int i = 0; i < 100; ++i) program += "(setq keep (junk 2000))";
  program += "(length keep)";
  gc.set_threshold(gc::kBlockSize);
  const std::uint64_t before = gc.stats().collections;
  EXPECT_EQ(cur.load_program(program).as_fixnum(), 2000);
  EXPECT_GT(gc.stats().collections, before);
  gc.set_threshold(0);
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
