// Runtime facade tests: lock builtins, atomic updates, futures from
// Lisp, force-tree, and the scheduler model functions.
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/scheduler.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"

namespace curare::runtime {
namespace {

using sexpr::Value;

class RuntimeTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  lisp::Interp in{ctx};
  Runtime rt{in, 4};

  void SetUp() override { rt.install(); }

  std::string run(std::string_view src) {
    return sexpr::write_str(in.eval_program(src));
  }
};

TEST_F(RuntimeTest, LockUnlockRoundTrip) {
  EXPECT_EQ(run("(let ((x (cons 1 2)))"
                "  (%lock x 'car)"
                "  (%unlock x 'car)"
                "  'ok)"),
            "ok");
  EXPECT_EQ(rt.locks().live_entries(), 0u);
}

TEST_F(RuntimeTest, LockReadMode) {
  EXPECT_EQ(run("(let ((x (cons 1 2)))"
                "  (%lock x 'car 'read)"
                "  (%unlock x 'car 'read)"
                "  'ok)"),
            "ok");
}

TEST_F(RuntimeTest, LockOnNilLocationIsNoop) {
  EXPECT_EQ(run("(progn (%lock nil 'car) (%unlock nil 'car) 'ok)"), "ok");
  EXPECT_EQ(rt.locks().operations(), 0u);
}

TEST_F(RuntimeTest, BadLockModeThrows) {
  EXPECT_THROW(run("(%lock (cons 1 2) 'car 'sideways)"), sexpr::LispError);
}

TEST_F(RuntimeTest, VarLockRoundTrip) {
  EXPECT_EQ(run("(progn (%lock-var 'v) (%unlock-var 'v) 'ok)"), "ok");
}

TEST_F(RuntimeTest, AtomicAddOnCons) {
  EXPECT_EQ(run("(let ((x (cons 10 0)))"
                "  (%atomic-add x 'car 5)"
                "  (car x))"),
            "15");
  EXPECT_EQ(run("(let ((x (cons 0 10)))"
                "  (%atomic-add x 'cdr -3)"
                "  (cdr x))"),
            "7");
}

TEST_F(RuntimeTest, AtomicAddRejectsNonFixnum) {
  EXPECT_THROW(run("(%atomic-add (cons 'sym 0) 'car 1)"),
               sexpr::LispError);
}

TEST_F(RuntimeTest, AtomicIncfVar) {
  EXPECT_EQ(run("(progn (setq n 10) (%atomic-incf-var 'n 7) n)"), "17");
  // An unbound variable is an error, as for (setq v (+ v 3)).
  try {
    run("(%atomic-incf-var 'fresh-var 3)");
    ADD_FAILURE() << "an unbound variable must not start from 0";
  } catch (const sexpr::LispError& e) {
    EXPECT_NE(std::string(e.what()).find("unbound variable: fresh-var"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(RuntimeTest, LockedUpdateVarAppliesFunction) {
  EXPECT_EQ(run("(progn (setq acc '(1))"
                "  (%locked-update-var 'acc (lambda (old) (cons 2 old)))"
                "  acc)"),
            "(2 1)");
}

TEST_F(RuntimeTest, LockedUpdateOnConsField) {
  EXPECT_EQ(run("(let ((x (cons 1 '(2))))"
                "  (%locked-update x 'car (lambda (old) (+ old 10)))"
                "  (%locked-update x 'cdr (lambda (old) (cons 3 old)))"
                "  x)"),
            "(11 3 2)");
  EXPECT_EQ(rt.locks().live_entries(), 0u) << "both locks released";
}

TEST_F(RuntimeTest, LockedUpdateOnStructField) {
  EXPECT_EQ(run("(defstruct acc-box (data total))"
                "(let ((b (make-acc-box 'total 5)))"
                "  (list (%locked-update b 'total (lambda (old) (* old 3)))"
                "        (total b)))"),
            "(15 15)");
  EXPECT_EQ(rt.locks().live_entries(), 0u);
}

TEST_F(RuntimeTest, LockedUpdateRejectsBadField) {
  run("(defstruct acc-box (data total))");
  EXPECT_THROW(run("(%locked-update (make-acc-box) 'nope (lambda (o) o))"),
               sexpr::LispError);
  EXPECT_THROW(run("(%locked-update (cons 1 2) 'cadr (lambda (o) o))"),
               sexpr::LispError);
  EXPECT_THROW(run("(%locked-update 7 'car (lambda (o) o))"),
               sexpr::LispError);
  EXPECT_EQ(rt.locks().live_entries(), 0u) << "no lock taken on a bad field";
}

TEST_F(RuntimeTest, FutureSpecialFormIsAsyncWithRuntime) {
  EXPECT_EQ(run("(touch (future (+ 40 2)))"), "42");
}

TEST_F(RuntimeTest, FuturePPredicate) {
  EXPECT_EQ(run("(future-p (future 1))"), "t");
  EXPECT_EQ(run("(future-p 1)"), "nil");
  EXPECT_EQ(run("(future-p (touch (future 1)))"), "nil");
}

TEST_F(RuntimeTest, SpawnBuiltinReturnsFuture) {
  EXPECT_EQ(run("(touch (spawn (lambda () 99)))"), "99");
}

TEST_F(RuntimeTest, TouchOnPlainValueIsIdentity) {
  EXPECT_EQ(run("(touch 5)"), "5");
}

TEST_F(RuntimeTest, FutureErrorsSurfaceAtTouch) {
  EXPECT_THROW(run("(touch (future (error \"inside\")))"),
               sexpr::LispError);
}

TEST_F(RuntimeTest, ForceTreeResolvesNestedFutures) {
  EXPECT_EQ(run("(force-tree (cons (future 1) (cons (future (cons 2 3))"
                " nil)))"),
            "(1 (2 . 3))");
}

TEST_F(RuntimeTest, ForceTreeOnPlainStructure) {
  EXPECT_EQ(run("(force-tree '(1 (2) 3))"), "(1 (2) 3)");
  EXPECT_EQ(run("(force-tree 7)"), "7");
}

TEST_F(RuntimeTest, ForceTreeLongFutureChain) {
  // remq-with-futures shape: futures in successive cdrs.
  EXPECT_EQ(run("(defun count-f (n)"
                "  (if (= n 0) nil (cons n (future (count-f (- n 1))))))"
                "(length (force-tree (count-f 200)))"),
            "200");
}

TEST_F(RuntimeTest, ConcurrentAtomicIncrementsAllLand) {
  // 4 CRI servers incrementing one counter 250 times each.
  in.eval_program(
      "(setq hits 0)"
      "(defun inc-cri (n)"
      "  (when (> n 0)"
      "    (%atomic-incf-var 'hits 1)"
      "    (%cri-enqueue 0 (- n 1))))");
  rt.run_cri(in.global("inc-cri"), 1, 4, {Value::fixnum(1000)});
  EXPECT_EQ(run("hits"), "1000");
}

TEST_F(RuntimeTest, AtomicIncfVarIsExactAcrossThreads) {
  // %atomic-incf-var is a CAS loop on the variable's global cell: four
  // threads' increments all land.
  run("(setq n 0)");
  const Value incf = in.global("%atomic-incf-var");
  const Value args[] = {ctx.sym("n"), Value::fixnum(1)};
  constexpr int kThreads = 4, kEach = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kEach; ++i) in.apply(incf, args);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(run("n"), std::to_string(kThreads * kEach));
  EXPECT_EQ(rt.locks().operations(), 0u) << "the CAS takes no lock";
}

TEST_F(RuntimeTest, HeldVarLockExcludesLockedIncf) {
  // A plan that also %lock-vars the variable increments it with a
  // %locked-update-var, which waits for a held lock.
  run("(setq v 0) (%lock-var 'v)");
  std::atomic<bool> done{false};
  std::thread other([&] {
    in.eval_program("(%locked-update-var 'v (lambda (%old) (+ %old 5)))");
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load()) << "the update ran under another's lock";
  EXPECT_EQ(run("v"), "0");
  run("(%unlock-var 'v)");
  other.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(run("v"), "5");
}

// ---- scheduler model (§4.1 / Figure 10) ---------------------------------

TEST(Scheduler, WorkFirstTimeIsHeadChainOrSharedWork) {
  // T_wf(S) = max(d·h, d·(h+t)/S) + t.
  // d=100, h=1, t=9, S=4: max(100, 250) + 9 = 259 — the work bound.
  EXPECT_DOUBLE_EQ(predicted_time_work_first(4, 100, 1, 9), 259.0);
  // S=20: max(100, 50) + 9 = 109 — the head chain bound.
  EXPECT_DOUBLE_EQ(predicted_time_work_first(20, 100, 1, 9), 109.0);
  // S=1: all the work on one server, plus the last tail.
  EXPECT_DOUBLE_EQ(predicted_time_work_first(1, 100, 1, 9), 1009.0);
}

TEST(Scheduler, PredictedTimeMatchesFormula) {
  // d=100, h=1, t=9, S=10: (⌈100/10⌉-1)(10) + (10·1+9) = 90+19 = 109.
  EXPECT_DOUBLE_EQ(predicted_time(10, 100, 1, 9), 109.0);
}

TEST(Scheduler, OneServerIsFullySequentialPlusOverhead) {
  // S=1: (d-1)(h+t) + (h+t) = d(h+t).
  EXPECT_DOUBLE_EQ(predicted_time(1, 50, 2, 3), 50.0 * 5.0);
}

TEST(Scheduler, OptimalServersFormula) {
  // S* = sqrt(d(h+t)/h): d=100, h=1, t=3 → sqrt(400) = 20.
  EXPECT_DOUBLE_EQ(optimal_servers_continuous(100, 1, 3), 20.0);
}

TEST(Scheduler, PredictedTimeIsMinimalNearSStar) {
  const double d = 1024, h = 1, t = 7;
  const double s_star = optimal_servers_continuous(d, h, t);
  const double at_star = predicted_time(s_star, d, h, t);
  EXPECT_LE(at_star, predicted_time(s_star / 4, d, h, t));
  EXPECT_LE(at_star, predicted_time(s_star * 4, d, h, t));
}

TEST(Scheduler, MaxConcurrencyCappedByConflictDistance) {
  EXPECT_DOUBLE_EQ(max_concurrency(1, 9, std::nullopt), 10.0);
  EXPECT_DOUBLE_EQ(max_concurrency(1, 9, 4), 4.0);
}

TEST(Scheduler, NestedAllocationGivesSerialInnerNothing) {
  // The inner recursion is all-head (serial no matter how many servers
  // it gets): the split gives the processors to the outer pool, where
  // the inner runs — folded into outer tails — can still overlap.
  RecursionShape outer{64, 1, 31};
  RecursionShape inner{64, 10, 0};
  NestedAllocation a = allocate_nested(outer, inner, 16);
  EXPECT_GE(a.outer, 8u);
  EXPECT_EQ(a.inner, 1u);
}

TEST(Scheduler, NestedAllocationNeverExtravagant) {
  // §4.1: "extravagant allocation [S1 × S2] … is not practical". The
  // split never hands out more than P per level.
  RecursionShape outer{64, 1, 15};
  RecursionShape inner{64, 1, 15};
  NestedAllocation a = allocate_nested(outer, inner, 16);
  EXPECT_LE(a.outer, 16u);
  EXPECT_LE(a.inner, 16u);
  EXPECT_LE(a.outer * a.inner, 16u)
      << "S2 = P / S1: the product stays within the machine";
}

TEST(Scheduler, NestedAllocationBeatsBothExtremes) {
  RecursionShape outer{128, 2, 30};
  RecursionShape inner{128, 2, 30};
  NestedAllocation a = allocate_nested(outer, inner, 12);
  const double all_outer = predicted_nested_time(outer, inner, 12, 1);
  const double all_inner = predicted_nested_time(outer, inner, 1, 12);
  EXPECT_LE(a.predicted, all_outer);
  EXPECT_LE(a.predicted, all_inner);
}

TEST(Scheduler, NestedAllocationOneProcessorIsSerial) {
  RecursionShape outer{10, 1, 1};
  RecursionShape inner{10, 1, 1};
  NestedAllocation a = allocate_nested(outer, inner, 1);
  EXPECT_EQ(a.outer, 1u);
  EXPECT_EQ(a.inner, 1u);
  EXPECT_DOUBLE_EQ(a.predicted,
                   10.0 * (1 + 1 + 10.0 * 2.0));
}

TEST(Scheduler, ChooseServersRespectsAllCaps) {
  EXPECT_EQ(choose_servers(10000, 1, 99, std::nullopt, 8), 8u)
      << "hardware cap";
  EXPECT_EQ(choose_servers(10000, 1, 99, 3, 64), 3u) << "conflict cap";
  EXPECT_EQ(choose_servers(4, 1, 99, std::nullopt, 64), 4u) << "depth cap";
  EXPECT_GE(choose_servers(1, 1, 0, 1, 1), 1u) << "at least one server";
}

TEST(Scheduler, ChooseServersGivesOneToAHeadHeavyFunction) {
  // remq's shape: the (wcar lst k) test runs before the call, so h/(h+t)
  // is 0.84–0.96 and c_f = (h+t)/h rounds to 1 at any depth or S.
  EXPECT_EQ(choose_servers(1000, 0.84, 0.16, std::nullopt, 4), 1u);
  EXPECT_EQ(choose_servers(1000, 0.95, 0.05, std::nullopt, 4), 1u);
  EXPECT_EQ(choose_servers(200, 950, 50, std::nullopt, 64), 1u);
  // No tail at all: nothing for a second server to overlap.
  EXPECT_EQ(choose_servers(1000, 1, 0, std::nullopt, 4), 1u);
  // One processor, one requested server or a depth of one.
  EXPECT_EQ(choose_servers(1000, 1, 99, std::nullopt, 1), 1u);
  EXPECT_EQ(choose_servers(1, 1, 99, std::nullopt, 4), 1u);
}

TEST(Scheduler, ChooseServersKeepsServersForATailHeavyFunction) {
  // tally's shape: the work is in the tail (h/(h+t) about 0.07–0.1).
  EXPECT_EQ(choose_servers(1000, 0.07, 0.93, std::nullopt, 4), 4u);
  EXPECT_EQ(choose_servers(200, 10, 90, std::nullopt, 4), 4u);
  // ptally in serve_mix: h/(h+t) about 0.5, so c_f = 2 and S = 2.
  EXPECT_EQ(choose_servers(500, 1, 1, std::nullopt, 2), 2u);
  EXPECT_EQ(choose_servers(500, 1, 1, std::nullopt, 4), 2u);
  // A conflict distance of 1 bounds the enqueue form to one server.
  EXPECT_EQ(choose_servers(1000, 0.07, 0.93, 1, 4), 1u);
}

}  // namespace
}  // namespace curare::runtime
