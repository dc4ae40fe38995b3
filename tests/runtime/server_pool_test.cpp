// CRI server-pool tests: the §4 execution model end-to-end on hand-
// transformed functions (the transform module's output shape).
#include "runtime/server_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "runtime/runtime.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"
#include "vm/vm.hpp"

namespace curare::runtime {
namespace {

using sexpr::Value;

// A CRI run always records: no constructor leaves out the Recorder.
static_assert(!std::is_constructible_v<CriRun, lisp::Interp&, Value,
                                       std::size_t, std::size_t>);
static_assert(!std::is_constructible_v<FuturePool, std::size_t>);
static_assert(!std::is_default_constructible_v<FuturePool>);
static_assert(!std::is_default_constructible_v<LockManager>);

// A CriRun is single-shot: run() exists only on an rvalue.
template <typename R>
concept RunnableAsLvalue = requires(R& r, TaskArgs a) { r.run(a); };
template <typename R>
concept RunnableAsRvalue =
    requires(R&& r, TaskArgs a) { std::move(r).run(a); };
static_assert(!RunnableAsLvalue<CriRun>);
static_assert(RunnableAsRvalue<CriRun>);

class ServerPoolTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  lisp::Interp in{ctx};
  Runtime rt{in, 4};

  void SetUp() override { rt.install(); }

  Value run_src(std::string_view src) { return in.eval_program(src); }
};

TEST_F(ServerPoolTest, SingleSiteTraversalVisitsEveryElement) {
  // Hand-transformed Fig 3: the recursive call became %cri-enqueue.
  run_src(
      "(setq visited 0)"
      "(defun f-cri (l)"
      "  (when l"
      "    (%atomic-incf-var 'visited 1)"
      "    (%cri-enqueue 0 (cdr l))))");
  Value fn = in.global("f-cri");
  std::string list_src = "(";
  for (int i = 0; i < 500; ++i) list_src += std::to_string(i) + " ";
  list_src += ")";
  Value list = sexpr::read_one(ctx, list_src);

  CriStats stats = rt.run_cri(fn, 1, 4, {list});
  EXPECT_EQ(stats.invocations, 501u) << "500 elements + the nil base case";
  EXPECT_EQ(run_src("visited").as_fixnum(), 500);
}

TEST_F(ServerPoolTest, SingleSiteQueueNeverGrows) {
  // §4.1: with one call site the queue never exceeds its initial length
  // (1): each task adds at most one successor.
  run_src("(defun g-cri (l) (when l (%cri-enqueue 0 (cdr l))))");
  Value fn = in.global("g-cri");
  Value list = sexpr::read_one(ctx, "(1 2 3 4 5 6 7 8)");
  CriStats stats = rt.run_cri(fn, 1, 3, {list});
  EXPECT_LE(stats.max_queue_length, 1u + stats.servers)
      << "single-site queues stay near their initial size";
}

TEST_F(ServerPoolTest, MultiSiteTreeRecursionCountsAllNodes) {
  // Binary-tree walk: two call sites, one queue each.
  run_src(
      "(setq nodes 0)"
      "(defun walk-cri (x)"
      "  (when (consp x)"
      "    (%atomic-incf-var 'nodes 1)"
      "    (%cri-enqueue 0 (car x))"
      "    (%cri-enqueue 1 (cdr x))))");
  Value fn = in.global("walk-cri");
  Value tree = sexpr::read_one(ctx, "((1 2) (3 (4 5)) 6)");
  CriStats stats = rt.run_cri(fn, 2, 4, {tree});
  // Cons count of the tree: ((1 2)(3 (4 5)) 6) has 9 conses.
  EXPECT_EQ(run_src("nodes").as_fixnum(), 9);
  EXPECT_EQ(stats.queue.pops, stats.invocations)
      << "every task dequeued exactly once across both sites";
}

TEST_F(ServerPoolTest, ServerCountOneIsSequential) {
  run_src(
      "(setq acc nil)"
      "(defun collect-cri (l)"
      "  (when l (setq acc (cons (car l) acc)) (%cri-enqueue 0 (cdr l))))");
  Value fn = in.global("collect-cri");
  Value list = sexpr::read_one(ctx, "(1 2 3 4 5)");
  rt.run_cri(fn, 1, 1, {list});
  EXPECT_EQ(sexpr::write_str(in.eval_program("acc")), "(5 4 3 2 1)")
      << "one server preserves sequential order exactly";
}

TEST_F(ServerPoolTest, StatsCarryMeasuredAggregates) {
  run_src("(defun m-cri (l) (when l (%cri-enqueue 0 (cdr l))))");
  Value fn = in.global("m-cri");
  Value list = sexpr::read_one(ctx, "(1 2 3 4 5 6 7 8 9 10)");
  CriStats stats = rt.run_cri(fn, 1, 3, {list});

  EXPECT_EQ(stats.invocations, 11u);
  EXPECT_EQ(stats.enqueues, 10u) << "one enqueue per non-nil element";
  EXPECT_GT(stats.wall_ns, 0u);
  ASSERT_EQ(stats.busy_ns.size(), stats.servers);
  ASSERT_EQ(stats.idle_ns.size(), stats.servers);
  ASSERT_EQ(stats.tasks_per_server.size(), stats.servers);
  std::uint64_t tasks = 0;
  for (std::uint64_t n : stats.tasks_per_server) tasks += n;
  EXPECT_EQ(tasks, stats.invocations) << "every task ran on some server";
  EXPECT_GT(stats.busy_ns_total(), 0u);
  EXPECT_LE(stats.head_ns + stats.tail_ns, stats.busy_ns_total())
      << "head/tail split partitions (a subset of) body time";
  EXPECT_GT(stats.utilization(), 0.0);
  EXPECT_LE(stats.utilization(), 1.0);
}

TEST_F(ServerPoolTest, DirectCriRunFillsMeasuredAggregates) {
  // Direct CriRun construction, outside the Runtime facade: counts stay
  // exact and the measured aggregates are filled, as every run records.
  run_src("(defun b-cri (l) (when l (%cri-enqueue 0 (cdr l))))");
  Value fn = in.global("b-cri");
  CriRun run(in, fn, 1, 2, rt.obs());
  CriStats stats = std::move(run).run({sexpr::read_one(ctx, "(1 2 3)")});
  EXPECT_EQ(stats.invocations, 4u);
  EXPECT_EQ(stats.enqueues, 3u);
  EXPECT_GT(stats.wall_ns, 0u);
  EXPECT_EQ(stats.busy_ns.size(), stats.servers);
}

TEST_F(ServerPoolTest, ErrorsInBodyPropagate) {
  run_src("(defun bad-cri (l) (error \"boom\"))");
  Value fn = in.global("bad-cri");
  EXPECT_THROW(rt.run_cri(fn, 1, 3, {Value::nil()}), sexpr::LispError);
}

TEST_F(ServerPoolTest, RunCriAfterAbortedRunCriStaysConsistent) {
  // Same regression through the Runtime facade (fresh CriRun, shared
  // recorder/metrics): an aborted run must not poison the next one.
  run_src("(defun boom-cri (l) (error \"boom\"))");
  EXPECT_THROW(rt.run_cri(in.global("boom-cri"), 1, 3, {Value::nil()}),
               sexpr::LispError);
  run_src(
      "(setq visited2 0)"
      "(defun ok-cri (l)"
      "  (when l (%atomic-incf-var 'visited2 1) (%cri-enqueue 0 (cdr l))))");
  CriStats stats = rt.run_cri(in.global("ok-cri"), 1, 4,
                              {sexpr::read_one(ctx, "(1 2 3 4 5)")});
  EXPECT_EQ(stats.invocations, 6u);
  EXPECT_EQ(run_src("visited2").as_fixnum(), 5);
}

TEST_F(ServerPoolTest, ErrorMidRecursionStopsWithoutHanging) {
  // The error fires mid-flight with successors already queued; the
  // remaining tasks are discarded with exact pending_ accounting (no
  // deadlock waiting on a count that can never reach zero).
  run_src(
      "(defun dies-at-3-cri (n)"
      "  (when (> n 0)"
      "    (%cri-enqueue 0 (- n 1))"
      "    (when (= n 3) (error \"mid-flight\"))))");
  Value fn = in.global("dies-at-3-cri");
  EXPECT_THROW(rt.run_cri(fn, 1, 2, {Value::fixnum(10)}),
               sexpr::LispError);
  // And the pool is reusable afterwards.
  CriStats stats = rt.run_cri(fn, 1, 2, {Value::fixnum(2)});
  EXPECT_EQ(stats.invocations, 3u);
}

TEST_F(ServerPoolTest, EarlyFinishDiscardsRemainingQueuedWork) {
  // Exponential two-site fan-out; %cri-finish fires deep inside. The
  // remaining queue must be discarded, not executed: invocations stay
  // far below the 2^12 the full recursion would run.
  run_src(
      "(defun fan-cri (n)"
      "  (when (> n 0)"
      "    (%cri-enqueue 0 (- n 1))"
      "    (%cri-enqueue 1 (- n 1))"
      "    (when (= n 6) (%cri-finish 'deep))))");
  Value fn = in.global("fan-cri");
  CriStats stats = rt.run_cri(fn, 2, 4, {Value::fixnum(12)});
  EXPECT_TRUE(stats.finished_early);
  EXPECT_EQ(sexpr::write_str(stats.result), "deep");
  EXPECT_LT(stats.invocations, 1u << 12)
      << "servers must discard, not drain-execute, after finish";
}

TEST_F(ServerPoolTest, TwoSiteSingleServerDrainsSiteZeroFirst) {
  // §4.1 ordering invariant, deterministic with one server: the server
  // finishes all queued site-0 calls before touching site 1, and new
  // site-0 work pulls it back before site 1 resumes.
  run_src(
      "(setq order nil)"
      "(defun two-cri (tag n)"
      "  (setq order (cons tag order))"
      "  (when (> n 0)"
      "    (%cri-enqueue 0 'a (- n 1))"
      "    (%cri-enqueue 1 'b (- n 1))))");
  Value fn = in.global("two-cri");
  rt.run_cri(fn, 2, 1,
             {sexpr::read_one(ctx, "r"), Value::fixnum(2)});
  EXPECT_EQ(sexpr::write_str(in.eval_program("order")),
            "(b b a b a a r)")
      << "execution order must be r a a b a b b (site 0 before site 1)";
}

TEST_F(ServerPoolTest, QueueStatsExposeSchedulerInternals) {
  run_src("(defun q-cri (l) (when l (%cri-enqueue 0 (cdr l))))");
  Value fn = in.global("q-cri");
  CriStats stats = rt.run_cri(fn, 1, 3,
                              {sexpr::read_one(ctx, "(1 2 3 4 5 6 7 8)")});
  EXPECT_EQ(stats.queue.pushes, stats.invocations)
      << "initial task + every enqueue";
  EXPECT_EQ(stats.queue.pops, stats.invocations);
  EXPECT_EQ(stats.queue.notify_sent + stats.queue.notify_suppressed,
            stats.queue.pushes)
      << "every push either signalled a sleeper or skipped the cv";
}

TEST_F(ServerPoolTest, EnqueueOutsideRunThrows) {
  EXPECT_THROW(run_src("(%cri-enqueue 0 nil)"), sexpr::LispError);
}

TEST_F(ServerPoolTest, CriRunBuiltinFromLisp) {
  run_src(
      "(setq n 0)"
      "(defun h-cri (l)"
      "  (when l (%atomic-incf-var 'n 1) (%cri-enqueue 0 (cdr l))))"
      "(%cri-run h-cri 1 4 '(a b c d e f))");
  EXPECT_EQ(run_src("n").as_fixnum(), 6);
}

TEST_F(ServerPoolTest, BadSiteIndexSurfaces) {
  run_src("(defun s-cri (l) (when l (%cri-enqueue 7 (cdr l))))");
  Value fn = in.global("s-cri");
  EXPECT_THROW(rt.run_cri(fn, 1, 2, {sexpr::read_one(ctx, "(1 2)")}),
               sexpr::LispError);
}

// ---- server threads are reused across runs ------------------------------

std::size_t live_thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST_F(ServerPoolTest, RepeatedRunsStartNoThreads) {
  run_src("(defun r-cri (l) (when l (%cri-enqueue 0 (cdr l))))");
  Value fn = in.global("r-cri");
  Value list = sexpr::read_one(ctx, "(1 2 3 4 5 6 7 8 9 10 11 12)");
  rt.run_cri(fn, 1, 4, {list});  // warm-up: the pool holds >= 4 threads
  const std::size_t threads = live_thread_count();
  const std::size_t pool = ServerPool::instance().size();
  for (int i = 0; i < 200; ++i) {
    CriStats stats = rt.run_cri(fn, 1, 4, {list});
    ASSERT_EQ(stats.invocations, 13u);
  }
  EXPECT_EQ(live_thread_count(), threads)
      << "200 S=4 runs must reuse the pooled servers";
  EXPECT_EQ(ServerPool::instance().size(), pool);
}

TEST_F(ServerPoolTest, NestedCriRunInsideServerBodyCompletes) {
  // Every outer server blocks in an inner %cri-run whose servers must
  // come from somewhere: the pool grows instead of deadlocking.
  run_src(
      "(setq inner-count 0)"
      "(defun inner-cri (l)"
      "  (when l (%atomic-incf-var 'inner-count 1) (%cri-enqueue 0 (cdr l))))"
      "(defun outer-cri (n)"
      "  (when (> n 0)"
      "    (%cri-run inner-cri 1 2 '(a b c))"
      "    (%cri-enqueue 0 (- n 1))))");
  CriStats stats = rt.run_cri(in.global("outer-cri"), 1, 4,
                              {Value::fixnum(8)});
  EXPECT_EQ(stats.invocations, 9u);
  EXPECT_EQ(run_src("inner-count").as_fixnum(), 8 * 3);
}

TEST_F(ServerPoolTest, ServerSeedingInnerRunsKeepsItsOwnLane) {
  // The one server seeds five inner %cri-runs in turn, then enqueues
  // its successor. Each inner run's queue is a different queue the
  // thread pushes to; none of that may move the thread off its own
  // lane in the outer run, so every outer push stays a ring append.
  run_src(
      "(setq inner-count 0)"
      "(defun inner-cri (l)"
      "  (when l (%atomic-incf-var 'inner-count 1) (%cri-enqueue 0 (cdr l))))"
      "(defun outer-cri (n)"
      "  (when (> n 0)"
      "    (dotimes (i 5) (%cri-run inner-cri 1 1 '(a b)))"
      "    (%cri-enqueue 0 (- n 1))))");
  CriStats stats = rt.run_cri(in.global("outer-cri"), 1, 1,
                              {Value::fixnum(6)});
  EXPECT_EQ(stats.invocations, 7u);
  EXPECT_EQ(stats.queue.pushes, 7u);
  EXPECT_EQ(stats.queue.pops, 7u);
  EXPECT_EQ(stats.queue.spill_pushes, 0u);
  EXPECT_EQ(run_src("inner-count").as_fixnum(), 6 * 5 * 2);
}

TEST_F(ServerPoolTest, ThrowingBodyLeavesPoolReusable) {
  run_src(
      "(setq seen 0)"
      "(defun t-cri (n)"
      "  (when (= n 5) (error \"boom\"))"
      "  (when (> n 0) (%atomic-incf-var 'seen 1) (%cri-enqueue 0 (- n 1))))");
  Value fn = in.global("t-cri");
  rt.run_cri(fn, 1, 4, {Value::fixnum(3)});  // warm-up
  const std::size_t pool = ServerPool::instance().size();
  for (int i = 0; i < 20; ++i)
    EXPECT_THROW(rt.run_cri(fn, 1, 4, {Value::fixnum(9)}), sexpr::LispError);
  run_src("(setq seen 0)");
  CriStats stats = rt.run_cri(fn, 1, 4, {Value::fixnum(4)});
  EXPECT_EQ(stats.invocations, 5u);
  EXPECT_EQ(run_src("seen").as_fixnum(), 4);
  EXPECT_EQ(ServerPool::instance().size(), pool)
      << "servers of a failed run go back to the pool";
}

TEST(ServerPoolLease, JobExceptionReachesCaller) {
  ServerPool::Lease lease = ServerPool::instance().lease(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(lease.run([&](std::size_t i) {
                 ran.fetch_add(1);
                 if (i == 1) throw std::runtime_error("job");
               }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 3) << "every leased thread ran its job";
}

TEST(ServerPoolLease, TickExceptionWaitsForTheJobs) {
  // A throwing tick must not leave run() while a job still runs: the
  // jobs point into run()'s frame. The exception arrives after the join.
  ServerPool::Lease lease = ServerPool::instance().lease(2);
  std::atomic<int> finished{0};
  EXPECT_THROW(
      {
        lease.run(
            [&](std::size_t) {
              std::this_thread::sleep_for(std::chrono::milliseconds(100));
              finished.fetch_add(1);
            },
            std::chrono::milliseconds(5),
            [] { throw std::runtime_error("tick"); });
      },
      std::runtime_error);
  EXPECT_EQ(finished.load(), 2) << "run() returned before its jobs";
}

// ---- per-server counters stay exact ---------------------------------------

TEST(ServerPoolCounters, MultiServerCountsMatchSingleServer) {
  // The same two-site tree walk at S=1 (ground truth: one thread) and
  // S=4: every per-server counter, summed at the join, must agree.
  struct Totals {
    CriStats stats;
    std::uint64_t depth_count = 0, applies = 0, compiled = 0;
  };
  auto measure = [](std::size_t servers) {
    sexpr::Ctx ctx;
    lisp::Interp in{ctx};
    vm::Vm vm{in};
    vm.install_apply_hook();
    Runtime rt{in, 2};
    rt.install();
    in.eval_program(
        "(setq nodes 0)"
        "(defun tree (d)"
        "  (if (= d 0) nil (cons (tree (- d 1)) (tree (- d 1)))))"
        "(defun walk-cri (x)"
        "  (when (consp x)"
        "    (%atomic-incf-var 'nodes 1)"
        "    (%cri-enqueue 0 (car x))"
        "    (%cri-enqueue 1 (cdr x))))"
        "(setq input (tree 9))");
    Value fn = in.global("walk-cri");
    Value input = in.global("input");
    obs::Histogram& depth = rt.obs().metrics.histogram(
        "cri.queue_depth", obs::Histogram::default_depth_bounds());
    Totals t;
    const std::uint64_t depth0 = depth.count();
    const std::uint64_t applies0 = in.apply_count();
    const std::uint64_t compiled0 = vm.compiled_entries();
    t.stats = rt.run_cri(fn, 2, servers, {input});
    t.depth_count = depth.count() - depth0;
    t.applies = in.apply_count() - applies0;
    t.compiled = vm.compiled_entries() - compiled0;
    EXPECT_EQ(in.eval_program("nodes").as_fixnum(), (1 << 9) - 1);
    return t;
  };
  const Totals one = measure(1);
  const Totals four = measure(4);
  // 511 conses, 512 nil leaves.
  EXPECT_EQ(one.stats.invocations, 1023u);
  EXPECT_EQ(one.stats.enqueues, 1022u);
  EXPECT_EQ(four.stats.invocations, one.stats.invocations);
  EXPECT_EQ(four.stats.enqueues, one.stats.enqueues);
  EXPECT_EQ(one.depth_count, one.stats.enqueues)
      << "one cri.queue_depth observation per enqueue";
  EXPECT_EQ(four.depth_count, four.stats.enqueues);
  EXPECT_EQ(four.applies, one.applies);
  EXPECT_GT(one.compiled, 0u);
  EXPECT_EQ(four.compiled, one.compiled);
}

// Parameterized: invocation counting is exact for every server count.
class ServerSweep : public ::testing::TestWithParam<int> {
 protected:
  sexpr::Ctx ctx;
  lisp::Interp in{ctx};
  Runtime rt{in, 2};
};

TEST_P(ServerSweep, InvocationCountIndependentOfS) {
  rt.install();
  in.eval_program(
      "(defun c-cri (l) (when l (%cri-enqueue 0 (cdr l))))");
  Value fn = in.global("c-cri");
  std::string list_src = "(";
  for (int i = 0; i < 100; ++i) list_src += "x ";
  list_src += ")";
  CriStats stats = rt.run_cri(fn, 1, static_cast<std::size_t>(GetParam()),
                              {sexpr::read_one(ctx, list_src)});
  EXPECT_EQ(stats.invocations, 101u);
  EXPECT_EQ(stats.servers, static_cast<std::size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, ServerSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace curare::runtime
