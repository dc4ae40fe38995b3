// Memory-management subsystem tests: exact live counters, reclamation
// of unreachable objects, root precision (RootScope, future slots,
// queued CRI task arguments), concurrent allocation under repeated
// collections, and GC interaction with aborted server pools and
// full transform pipelines.
//
// The multithreaded cases double as the TSan/ASan targets wired into
// CI: they exercise the bump-allocation fast path, the two-phase
// stop-the-world handshake, and parallel marking from several threads.
#include "gc/gc.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "curare/curare.hpp"
#include "lisp/interp.hpp"
#include "obs/request.hpp"
#include "runtime/resource.hpp"
#include "runtime/runtime.hpp"
#include "runtime/server_pool.hpp"
#include "runtime/task_queue.hpp"
#include "sexpr/ctx.hpp"
#include "sexpr/equal.hpp"
#include "sexpr/list_ops.hpp"
#include "sexpr/reader.hpp"

#include "../curare/forced_cri.hpp"

namespace curare::gc {
namespace {

using sexpr::car;
using sexpr::cdr;
using sexpr::Value;

TEST(GcHeapTest, ExactLiveCountersTrackAllocationAndReclamation) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();
  const std::size_t base = ctx.heap.live_objects();

  {
    RootScope roots(gc);
    {
      MutatorScope ms(gc);
      Value chain = Value::nil();
      for (int i = 0; i < 100; ++i) chain = ctx.heap.cons(Value::fixnum(i), chain);
      roots.add(chain);
    }
    EXPECT_EQ(ctx.heap.live_objects(), base + 100)
        << "counters are exact, not approximate";

    gc.collect("test");
    EXPECT_EQ(ctx.heap.live_objects(), base + 100)
        << "rooted chain survives a collection";
  }
  // Scope gone: the whole chain is garbage now.
  gc.collect("test");
  EXPECT_EQ(ctx.heap.live_objects(), base);
}

TEST(GcHeapTest, ExitedThreadCachesAreFreedAndCountsStayExact) {
  // A thread's cache folds into the heap totals and is freed when the
  // thread exits, so live counts stay exact while the per-thread walks
  // (live_objects, stats, root gathering) cover live threads only.
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();
  const std::size_t caches = gc.thread_caches();
  const std::uint64_t base = gc.live_objects();
  RootScope roots(gc);
  std::vector<Value> kept(1000);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 100; ++t) {
      const int i = round * 100 + t;
      threads.emplace_back([&ctx, &kept, i] {
        MutatorScope ms(ctx.heap.gc());
        ctx.heap.cons(Value::fixnum(i), Value::nil());  // garbage
        kept[static_cast<std::size_t>(i)] =
            ctx.heap.cons(Value::fixnum(i), Value::nil());
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (Value v : kept) roots.add(v);
  EXPECT_EQ(gc.thread_caches(), caches)
      << "1000 exited threads leave no cache behind";
  EXPECT_EQ(gc.live_objects(), base + 2000);
  gc.collect("test");
  EXPECT_EQ(gc.live_objects(), base + 1000);
  for (std::size_t i = 0; i < kept.size(); ++i)
    EXPECT_EQ(car(kept[i]).as_fixnum(), static_cast<std::int64_t>(i));
}

TEST(GcHeapTest, UnreachableConsesAreReclaimed) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();
  const std::size_t base = ctx.heap.live_objects();
  {
    MutatorScope ms(gc);
    for (int i = 0; i < 1000; ++i) ctx.heap.cons(Value::fixnum(i), Value::nil());
  }
  const std::uint64_t before = gc.stats().reclaimed_objects;
  gc.collect("test");
  EXPECT_EQ(ctx.heap.live_objects(), base);
  EXPECT_GE(gc.stats().reclaimed_objects, before + 1000);
  EXPECT_EQ(gc.stats().live_objects, base);
}

TEST(GcHeapTest, RootScopeContentsSurviveWithStructureIntact) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();
  RootScope roots(gc);
  {
    MutatorScope ms(gc);
    Value inner = ctx.heap.cons(Value::fixnum(7), Value::fixnum(8));
    roots.add(ctx.heap.cons(Value::fixnum(1), inner));
  }
  gc.collect("test");
  gc.collect("test");  // survives repeated cycles, not just one

  // Re-read through the still-rooted value (the scope keeps a copy).
  // Allocate a probe to make sure the allocator still works after the
  // sweeps returned blocks.
  MutatorScope ms(gc);
  Value probe = ctx.heap.cons(Value::fixnum(9), Value::nil());
  EXPECT_EQ(car(probe).as_fixnum(), 9);
}

/// An object whose cell exceeds a bump block: exercises the dedicated-
/// block path (no sexpr type embeds its payload, so build one).
struct BigObj : sexpr::Obj {
  BigObj() : sexpr::Obj(sexpr::Kind::Native) {}
  char payload[2 * kBlockSize] = {};
};

TEST(GcHeapTest, OversizedObjectsGetDedicatedBlocksAndAreReclaimed) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();
  // Prime this thread's cache so the baseline block count is stable.
  {
    MutatorScope ms(gc);
    ctx.heap.cons(Value::nil(), Value::nil());
  }
  const std::uint64_t blocks_before = gc.stats().total_blocks;
  {
    MutatorScope ms(gc);
    ctx.heap.alloc<BigObj>();  // dropped immediately
  }
  EXPECT_GT(gc.stats().total_blocks, blocks_before);
  gc.collect("test");
  EXPECT_EQ(gc.stats().total_blocks, blocks_before)
      << "dead oversized blocks are released, not pooled";
}

TEST(GcHeapTest, ThresholdArmsAutomaticCollection) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();
  gc.set_threshold(kBlockSize);  // every refill crosses the threshold
  {
    MutatorScope ms(gc);
    for (int i = 0; i < 20000; ++i)
      ctx.heap.cons(Value::fixnum(i), Value::nil());
  }
  gc.maybe_collect();
  EXPECT_GE(gc.stats().collections, 1u);
  // Threshold 0 disables the automatic trigger entirely.
  gc.set_threshold(0);
  const std::uint64_t n = gc.stats().collections;
  {
    MutatorScope ms(gc);
    for (int i = 0; i < 20000; ++i)
      ctx.heap.cons(Value::fixnum(i), Value::nil());
  }
  gc.maybe_collect();
  EXPECT_EQ(gc.stats().collections, n);
}

TEST(GcRootPrecisionTest, ResolvedFutureSlotValueSurvives) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  runtime::Runtime rt(in, 2);
  rt.install();

  // Hold only the C++ FutureState handle: once resolved, the value's
  // sole root is the pool's slot registry.
  auto state = rt.futures().spawn(
      [&ctx] {
        MutatorScope ms(ctx.heap.gc());
        return ctx.heap.cons(Value::fixnum(41), Value::fixnum(42));
      },
      Value::nil());
  Value v = rt.futures().touch(state);
  ASSERT_EQ(car(v).as_fixnum(), 41);

  ctx.heap.gc().collect("test");
  Value again = rt.futures().touch(state);
  EXPECT_EQ(car(again).as_fixnum(), 41);
  EXPECT_EQ(cdr(again).as_fixnum(), 42);
}

TEST(GcRootPrecisionTest, PendingFutureThunkSurvives) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  runtime::Runtime rt(in, 2);
  rt.install();

  // Each recursion level gets a fresh binding of n, so every thunk
  // captures its own value. A collection may run before any worker
  // picks a task up; the thunk rides along as the task's root.
  in.eval_program(
      "(defun mk (n)"
      "  (if (> n 0) (cons (future (cons n n)) (mk (- n 1))) nil))"
      "(setq fs (mk 50))");
  ctx.heap.gc().collect("test");
  Value n = in.eval_program(
      "(setq total 0)"
      "(dolist (f fs total) (setq total (+ total (car (touch f)))))");
  EXPECT_EQ(n.as_fixnum(), 50 * 51 / 2);
}

TEST(GcRootPrecisionTest, QueuedCriTaskArgumentSurvives) {
  // A real S=1 run: the seed task collects, enqueues a fresh cons that
  // only the queue holds, and collects again. With one server the
  // successor cannot start before the seed task ends, so the second
  // collection sees the cons only through CriRun::gc_roots. The body
  // steps out of its unsafe region to collect, as a server does when
  // it parks: collect() inside the region would only arm the next
  // quiescent point, and its frames stay shadow-stack rooted.
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  runtime::Runtime rt(in, 1);
  rt.install();
  std::vector<std::uint64_t> live;
  in.define_builtin("collect-now", 0, 0,
                    [&](lisp::Interp&, std::span<const Value>) {
                      GcHeap& gc = ctx.heap.gc();
                      const std::size_t depth = gc.blocking_release();
                      gc.collect("test");
                      gc.blocking_reacquire(depth);
                      live.push_back(ctx.heap.live_objects());
                      return Value::nil();
                    });
  std::int64_t received = 0;
  in.define_builtin("receive", 1, 1,
                    [&](lisp::Interp&, std::span<const Value> a) {
                      received = car(a[0]).as_fixnum();
                      return Value::nil();
                    });
  in.eval_program(
      "(defun body (x)"
      "  (if (eq x 'seed)"
      "      (progn (collect-now) (%cri-enqueue 0 (cons 123 nil))"
      "             (collect-now))"
      "      (receive x)))");
  runtime::CriRun run(in, in.global("body"), 1, 1, rt.obs());
  std::move(run).run({ctx.sym("seed")});

  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[1], live[0] + 1)
      << "a pending task's argument is a root while queued";
  EXPECT_EQ(received, 123);
}

TEST(GcRootPrecisionTest, NegativeControlUnrootedValueIsCollected) {
  sexpr::Ctx ctx;
  const std::size_t base = ctx.heap.live_objects();
  {
    MutatorScope ms(ctx.heap.gc());
    ctx.heap.cons(Value::fixnum(123), Value::nil());  // dropped
  }
  ctx.heap.gc().collect("test");
  EXPECT_EQ(ctx.heap.live_objects(), base)
      << "without a root the same cons is reclaimed";
}

// ---------------------------------------------------------------------------
// Root precision across every queue implementation. The work-stealing
// rework moved pending tasks out of one mutex-guarded deque into
// per-lane rings and spill vectors; these typed tests pin down that
// for_each_task still reaches a payload wherever it is physically
// parked — owner ring, a sibling lane a thief would rob, or a spill
// vector — and that a payload stops being a root the moment its task
// is dequeued (reclamation is exact, not deferred).
// ---------------------------------------------------------------------------

/// Builds each queue and speaks its API: the work-stealing queue takes
/// an explicit lane (two lanes here), the mutex oracle has none.
template <typename Q>
struct QueueFactory;

template <>
struct QueueFactory<runtime::SingleMutexTaskQueues> {
  using Q = runtime::SingleMutexTaskQueues;
  static std::unique_ptr<Q> make(std::size_t nsites) {
    return std::make_unique<Q>(nsites);
  }
  static void push(Q& q, std::size_t, std::size_t site,
                   runtime::TaskArgs t) {
    q.push(site, std::move(t));
  }
  static std::optional<runtime::TaskArgs> pop(Q& q, std::size_t) {
    return q.pop();
  }
};

template <>
struct QueueFactory<runtime::WorkStealingTaskQueues> {
  using Q = runtime::WorkStealingTaskQueues;
  static std::unique_ptr<Q> make(std::size_t nsites) {
    return std::make_unique<Q>(nsites, 2);
  }
  static void push(Q& q, std::size_t lane, std::size_t site,
                   runtime::TaskArgs t) {
    q.push(lane, site, std::move(t));
  }
  static std::optional<runtime::TaskArgs> pop(Q& q, std::size_t lane) {
    return q.pop(lane);
  }
};

/// The CriRun root hookup, reduced to its essence: every queued task's
/// argument vector is a root while — and only while — it is queued.
template <typename Q>
class QueueRootAdapter : public RootSource {
 public:
  explicit QueueRootAdapter(const Q& q) : q_(q) {}
  void gc_roots(std::vector<sexpr::Value>& out) override {
    q_.for_each_task([&out](const runtime::TaskArgs& t) {
      out.insert(out.end(), t.begin(), t.end());
    });
  }

 private:
  const Q& q_;
};

template <typename Q>
class QueueGcRootsTest : public ::testing::Test {};

using QueueImpls =
    ::testing::Types<runtime::SingleMutexTaskQueues,
                     runtime::WorkStealingTaskQueues>;
TYPED_TEST_SUITE(QueueGcRootsTest, QueueImpls);

TYPED_TEST(QueueGcRootsTest, PayloadsSurviveAtEveryQueuePosition) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();
  using F = QueueFactory<TypeParam>;
  auto q = F::make(2);
  q->attach_gc(&gc);
  QueueRootAdapter<TypeParam> roots(*q);
  gc.add_root_source(&roots);
  const std::size_t base = ctx.heap.live_objects();

  // Payload k is (cons k nil), planted so the work-stealing impl has
  // them in all three physical positions.
  constexpr int kRing =
      static_cast<int>(runtime::WorkStealingTaskQueues::kRingCapacity);
  constexpr int kTotal = kRing + 4;
  auto payload = [&](int k) {
    return runtime::TaskArgs{ctx.heap.cons(Value::fixnum(k), Value::nil())};
  };
  {
    MutatorScope ms(gc);
    // 0..kRing-1 fill lane 0's site-0 ring (the owner fast path);
    // the next two find it full — the spill vector.
    for (int k = 0; k < kRing + 2; ++k) F::push(*q, 0, 0, payload(k));
    // The last two go to lane 1 — the position a thief's steal serves.
    for (int k = kRing + 2; k < kTotal; ++k) F::push(*q, 1, 1, payload(k));
    // A decoy with no root: precision means the collector reclaims
    // exactly this one while every queued payload survives.
    ctx.heap.cons(Value::fixnum(999), Value::nil());
  }

  gc.collect("test");
  EXPECT_EQ(ctx.heap.live_objects(), base + kTotal)
      << "all queued payloads survive; the unqueued decoy does not";

  // Dequeue three. Their payloads leave the root set with them: the
  // next collection must reclaim exactly those three.
  long sum = 0;
  for (int i = 0; i < 3; ++i) {
    auto got = F::pop(*q, 0);
    ASSERT_TRUE(got.has_value());
    sum += sexpr::car((*got)[0]).as_fixnum();
  }
  gc.collect("test");
  EXPECT_EQ(ctx.heap.live_objects(), base + kTotal - 3)
      << "a dequeued task's payload is garbage immediately";

  // Drain the rest from lane 0 — in the work-stealing impl the lane-1
  // payloads arrive via the steal path — and verify integrity: every
  // planted fixnum came back exactly once.
  for (int i = 3; i < kTotal; ++i) {
    auto got = F::pop(*q, 0);
    ASSERT_TRUE(got.has_value());
    sum += sexpr::car((*got)[0]).as_fixnum();
  }
  EXPECT_EQ(sum, static_cast<long>(kTotal) * (kTotal - 1) / 2);
  gc.collect("test");
  EXPECT_EQ(ctx.heap.live_objects(), base);
  gc.remove_root_source(&roots);
}

TYPED_TEST(QueueGcRootsTest, RemainingTasksStayRootedAfterClose) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();
  using F = QueueFactory<TypeParam>;
  auto q = F::make(1);
  q->attach_gc(&gc);
  QueueRootAdapter<TypeParam> roots(*q);
  gc.add_root_source(&roots);
  const std::size_t base = ctx.heap.live_objects();

  {
    MutatorScope ms(gc);
    for (int k = 0; k < 5; ++k)
      F::push(*q, 0, 0, {ctx.heap.cons(Value::fixnum(k), Value::nil())});
  }
  q->close();
  gc.collect("test");
  EXPECT_EQ(ctx.heap.live_objects(), base + 5)
      << "close() is not a drain: undrained payloads remain rooted";

  // Post-close pops still serve the backlog (the kill token only
  // arrives once empty), and the roots fall away task by task.
  for (int k = 0; k < 5; ++k) {
    auto got = F::pop(*q, 0);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(sexpr::car((*got)[0]).as_fixnum(), k) << "FIFO across close";
  }
  EXPECT_FALSE(F::pop(*q, 0).has_value()) << "kill token after the backlog";
  gc.collect("test");
  EXPECT_EQ(ctx.heap.live_objects(), base);
  gc.remove_root_source(&roots);
}

TEST(GcStressTest, ConcurrentAllocationAndCollection) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  constexpr int kChain = 20;

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  // Collections the stress thread has finished. Workers keep allocating
  // past kIters until there is at least one, so every run overlaps
  // allocation with a concurrent collection however the threads are
  // scheduled.
  std::atomic<int> collected{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ctx, &gc, &bad, &collected] {
      RootScope kept(gc);
      std::vector<Value> mine;
      for (int i = 0; i < kIters || collected.load() == 0; ++i) {
        MutatorScope ms(gc);
        Value chain = Value::nil();
        for (int k = 0; k < kChain; ++k)
          chain = ctx.heap.cons(Value::fixnum(k), chain);
        if (i % 10 == 0) {
          kept.add(chain);
          mine.push_back(chain);
        }
        // Most chains drop here — garbage for the concurrent sweeps.
      }
      // Verify every kept chain end-to-end before the scope dies.
      for (Value chain : mine) {
        MutatorScope ms(gc);
        int expect = kChain - 1;
        for (Value c = chain; !c.is_nil(); c = cdr(c))
          if (car(c).as_fixnum() != expect--) bad.fetch_add(1);
      }
    });
  }

  std::thread collector([&gc, &stop, &collected] {
    while (!stop.load()) {
      gc.collect("stress");
      collected.fetch_add(1);
      std::this_thread::yield();
    }
  });

  for (std::thread& w : workers) w.join();
  stop.store(true);
  collector.join();

  EXPECT_EQ(bad.load(), 0) << "kept chains must survive intact";
  gc.collect("final");
  EXPECT_GE(gc.stats().collections, 2u);
}

class GcServerPoolTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  lisp::Interp in{ctx};
  runtime::Runtime rt{in, 2};

  void SetUp() override {
    rt.install();
    // Collect on every block refill: maximal GC pressure during runs.
    ctx.heap.gc().set_threshold(kBlockSize);
  }
};

TEST_F(GcServerPoolTest, AbortedRunCanBeRerunUnderCollections) {
  in.eval_program(
      "(setq visited 0)"
      "(defun f-cri (l)"
      "  (when l"
      "    (when (eq (car l) 'boom) (error \"boom\"))"
      "    (%atomic-incf-var 'visited 1)"
      "    (cons (car l) (car l))"  // garbage per task
      "    (%cri-enqueue 0 (cdr l))))");
  Value fn = in.global("f-cri");
  runtime::CriRun run(in, fn, 1, 4, rt.obs());

  Value poisoned = sexpr::read_one(ctx, "(1 2 3 boom 5 6)");
  EXPECT_THROW(std::move(run).run({poisoned}), sexpr::LispError);

  // A fresh run, fresh input: the abort must have left the runtime and
  // the GC hand-off consistent.
  in.eval_program("(setq visited 0)");
  std::string big = "(";
  for (int i = 0; i < 400; ++i) big += std::to_string(i) + " ";
  big += ")";
  Value list = sexpr::read_one(ctx, big);
  runtime::CriStats stats = rt.run_cri(fn, 1, 4, {list});
  EXPECT_EQ(stats.invocations, 401u);
  EXPECT_EQ(in.eval_program("visited").as_fixnum(), 400);
}

TEST_F(GcServerPoolTest, AllocatingServerBodiesCollectMidRun) {
  in.eval_program(
      "(defun build (n) (if (> n 0) (cons n (build (- n 1))) nil))"
      "(defun sum (l) (if l (+ (car l) (sum (cdr l))) 0))"
      "(setq total 0)"
      "(defun g-cri (l)"
      "  (when l"
      "    (%atomic-incf-var 'total (sum (build 40)))"
      "    (%cri-enqueue 0 (cdr l))))");
  Value fn = in.global("g-cri");
  std::string big = "(";
  for (int i = 0; i < 300; ++i) big += "x ";
  big += ")";
  Value list = sexpr::read_one(ctx, big);
  rt.run_cri(fn, 1, 4, {list});
  EXPECT_EQ(in.eval_program("total").as_fixnum(), 300 * (40 * 41 / 2));
  EXPECT_GE(ctx.heap.gc().stats().collections, 1u)
      << "the threshold must have fired during the run";
}

// ---------------------------------------------------------------------------
// Resource governance (DESIGN.md §14). The allocator is the charge
// point for both the per-request memory quota and the process-wide
// heap watermarks; these tests pin down that a budget breach throws
// *before* the cell is carved (the unwind leaves no half-built object,
// exactly like the gc.alloc fault-injection site) and that the heap
// keeps serving normal allocations once the pressure is gone.
// ---------------------------------------------------------------------------

TEST(GcResourceTest, MemQuotaBreachThrowsAndLeavesHeapConsistent) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();
  const std::size_t base = ctx.heap.live_objects();

  auto rc = std::make_shared<obs::RequestContext>();
  rc->mem_quota = 16 * 1024;
  bool threw = false;
  {
    obs::RequestScope scope(rc);
    MutatorScope ms(gc);
    try {
      for (int i = 0; i < 100000; ++i)
        ctx.heap.cons(Value::fixnum(i), Value::nil());
    } catch (const runtime::ResourceExhausted& e) {
      threw = true;
      EXPECT_EQ(e.kind(), runtime::ResourceExhausted::Kind::kMemQuota);
    }
  }
  ASSERT_TRUE(threw) << "a 16 KiB quota cannot survive 100k conses";
  EXPECT_GT(rc->mem_used.load(), rc->mem_quota)
      << "the breaching charge itself is recorded";

  // The throw unwound out of allocate() before any cell was carved:
  // every successfully returned cons is garbage now, nothing else.
  gc.collect("test");
  EXPECT_EQ(ctx.heap.live_objects(), base);

  // With the budget scope gone the same thread allocates freely again.
  MutatorScope ms(gc);
  Value probe = ctx.heap.cons(Value::fixnum(7), Value::nil());
  EXPECT_EQ(car(probe).as_fixnum(), 7);
}

TEST(GcResourceTest, QuotaIsPerRequestNotPerThread) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();

  // Two contexts on the same thread: exhausting the first must not
  // taint the second — the budget lives in the context, not the heap.
  auto starved = std::make_shared<obs::RequestContext>();
  starved->mem_quota = 1;  // any allocation breaches
  {
    obs::RequestScope scope(starved);
    MutatorScope ms(gc);
    EXPECT_THROW(ctx.heap.cons(Value::nil(), Value::nil()),
                 runtime::ResourceExhausted);
  }
  auto roomy = std::make_shared<obs::RequestContext>();
  roomy->mem_quota = 1 << 20;
  {
    obs::RequestScope scope(roomy);
    MutatorScope ms(gc);
    Value v = ctx.heap.cons(Value::fixnum(1), Value::nil());
    EXPECT_EQ(car(v).as_fixnum(), 1);
  }
  EXPECT_GT(roomy->mem_used.load(), 0u);
}

TEST(GcResourceTest, HeapHardWatermarkFailsAllocationNotTheProcess) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();

  // Park the hard limit below the next block refill: growth past it
  // must surface as a catchable error, not an OS-level OOM.
  gc.set_heap_limits(0, gc.used_bytes_estimate() + 1);
  bool threw = false;
  {
    MutatorScope ms(gc);
    try {
      for (int i = 0; i < 100000; ++i)
        ctx.heap.cons(Value::fixnum(i), Value::nil());
    } catch (const runtime::ResourceExhausted& e) {
      threw = true;
      EXPECT_EQ(e.kind(), runtime::ResourceExhausted::Kind::kHeapHard);
    }
  }
  ASSERT_TRUE(threw);

  // Lifting the limit (an operator raising --heap-hard) restores
  // service; the aborted allocation left the heap consistent.
  gc.set_heap_limits(0, 0);
  gc.collect("test");
  MutatorScope ms(gc);
  Value probe = ctx.heap.cons(Value::fixnum(9), Value::nil());
  EXPECT_EQ(car(probe).as_fixnum(), 9);
}

TEST(GcResourceTest, SoftWatermarkArmsCollectionAndRecedesAfterSweep) {
  sexpr::Ctx ctx;
  GcHeap& gc = ctx.heap.gc();
  gc.set_threshold(0);  // isolate the watermark trigger

  {
    MutatorScope ms(gc);
    for (int i = 0; i < 20000; ++i)
      ctx.heap.cons(Value::fixnum(i), Value::nil());  // all garbage
  }
  const std::uint64_t grown = gc.used_bytes_estimate();
  ASSERT_GT(grown, 0u);
  gc.set_heap_limits(grown / 2, 0);
  EXPECT_TRUE(gc.above_soft_watermark());

  // A sweep re-bases the estimate to live bytes: the dead 20k conses
  // fall out and the measure recedes below the soft line — the
  // property that lets the serving layer stop shedding once GC has
  // caught up (heap_bytes_, the monotone capacity total, could not
  // express this).
  gc.collect("test");
  EXPECT_LT(gc.used_bytes_estimate(), grown / 2);
  EXPECT_FALSE(gc.above_soft_watermark());
}

TEST(GcTransformTest, TransformedRunMatchesSequentialUnderLowThreshold) {
  sexpr::Ctx ctx;
  Curare cur(ctx, 4);
  ctx.heap.gc().set_threshold(2 * kBlockSize);

  cur.load_program(
      "(setq seen 0)"
      "(defun count-elts (l)"
      "  (when l (%atomic-incf-var 'seen 1) (count-elts (cdr l))))");
  TransformPlan plan = cur.transform("count-elts");
  ASSERT_TRUE(plan.ok) << plan.failure;

  std::string big = "(";
  for (int i = 0; i < 2000; ++i) big += std::to_string(i) + " ";
  big += ")";
  for (int round = 0; round < 5; ++round) {
    cur.interp().eval_program("(setq seen 0)");
    RootScope roots(ctx.heap.gc());
    Value args0;
    {
      MutatorScope ms(ctx.heap.gc());
      args0 = sexpr::read_one(ctx, big);
      roots.add(args0);
    }
    const Value args[] = {args0};
    // count-elts has no tail: after round 0 its entry would run the
    // original defun, so every round is a forced CRI run.
    forced::cri(cur, plan, args, 4);
    EXPECT_EQ(cur.interp().eval_program("seen").as_fixnum(), 2000)
        << "round " << round;
  }
  EXPECT_EQ(cur.interp().ctx().heap.live_objects(),
            ctx.heap.live_objects());
}

}  // namespace
}  // namespace curare::gc
