// Resilience-layer tests (DESIGN.md §10): deadlines and cancellation,
// the join-side stall check, a fresh run after an aborted one,
// pool-shutdown touch behavior, and the deterministic fault-injection
// soak.
#include "runtime/resilience.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>

#include "runtime/fault_injector.hpp"
#include "runtime/future_pool.hpp"
#include "runtime/runtime.hpp"
#include "runtime/server_pool.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"

namespace curare::runtime {
namespace {

using sexpr::Value;

class ResilienceTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  lisp::Interp in{ctx};
  Runtime rt{in, 2};

  void SetUp() override { rt.install(); }
  void TearDown() override {
    // A test that aborted mid-acquisition may leave Lisp-level holds;
    // never leak them into the next test body.
    FaultInjector::instance().disable();
    rt.locks().reset();
  }

  Value run_src(std::string_view src) { return in.eval_program(src); }

  std::uint64_t stalls() {
    return rt.obs().metrics.counter("cri.stalls").get();
  }
};

/// The calling process's thread count.
std::ptrdiff_t thread_count() {
  namespace fs = std::filesystem;
  return std::distance(fs::directory_iterator("/proc/self/task"),
                       fs::directory_iterator{});
}

TEST_F(ResilienceTest, DeadlineAbortsInfiniteReEnqueue) {
  // Each task re-enqueues itself while stop-flag is 0: the recursion
  // never terminates, but every body completes — only the deadline
  // (not the stall check) can end this run.
  run_src(
      "(setq stop-flag 0)"
      "(defun spin-cri (i)"
      "  (if (> stop-flag 0) nil (%cri-enqueue 0 i)))");
  Value fn = in.global("spin-cri");

  CriRun run(in, fn, 1, 2, rt.obs());
  const auto t0 = std::chrono::steady_clock::now();
  try {
    // The deadline is the caller's: the run chains its token under it.
    CancelState deadline;
    deadline.set_deadline_ms(150);
    CancelScope scope(&deadline);
    std::move(run).run({Value::fixnum(0)});
    FAIL() << "an infinite re-enqueue loop must not terminate normally";
  } catch (const StallError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
    EXPECT_NE(e.dump().find("pending tasks"), std::string::npos)
        << "dump should carry run state, got: " << e.dump();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10))
      << "abort must be prompt, not an eventual timeout";

  // The abort leaves nothing behind: a fresh run of the same function
  // completes, exactly as after a body throw.
  run_src("(setq stop-flag 1)");
  CriStats stats = rt.run_cri(fn, 1, 2, {Value::fixnum(0)});
  EXPECT_EQ(stats.invocations, 1u);
}

TEST_F(ResilienceTest, DeadlineAbortsBusyInfiniteRecursion) {
  // Infinite *tail* recursion inside one body: the server never
  // finishes a task and never blocks, so only the eval loop's
  // cancellation poll can observe the token.
  run_src(
      "(defun rec-loop (n) (rec-loop (+ n 1)))"
      "(defun busy-cri (i) (rec-loop 0))");
  Value fn = in.global("busy-cri");

  {
    CancelState deadline;
    deadline.set_deadline_ms(150);
    CancelScope scope(&deadline);
    EXPECT_THROW(rt.run_cri(fn, 1, 2, {Value::fixnum(0)}), StallError);
  }
  EXPECT_GE(rt.obs().metrics.counter("cri.aborts").get(), 1u);
}

TEST_F(ResilienceTest, DeadlineAbortsLockDeadlockedRun) {
  // Every server blocks acquiring a lock the main thread holds, and no
  // stall window is armed: only the caller's deadline, seen through
  // the run token's chain from inside the lock wait, can end the run.
  run_src(
      "(defun stuck-cri (i)"
      "  (%lock-var 'dl-shared)"
      "  (%unlock-var 'dl-shared))");
  run_src("(%lock-var 'dl-shared)");
  const auto t0 = std::chrono::steady_clock::now();
  try {
    CancelState deadline;
    deadline.set_deadline_ms(150);
    CancelScope scope(&deadline);
    rt.run_cri(in.global("stuck-cri"), 1, 2, {Value::fixnum(0)});
    ADD_FAILURE() << "a deadlocked lock program must not terminate";
  } catch (const StallError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  run_src("(%unlock-var 'dl-shared)");
}

TEST_F(ResilienceTest, WatchdogFiresOnDeadlockedLockProgram) {
  // The main thread holds an exclusive variable lock; every server
  // blocks acquiring it. Tasks start but never complete, which is
  // precisely the stall check's signal.
  run_src(
      "(defun stuck-cri (i)"
      "  (%lock-var 'wd-shared)"
      "  (%unlock-var 'wd-shared))");
  Value fn = in.global("stuck-cri");
  run_src("(%lock-var 'wd-shared)");

  CriRun run(in, fn, 1, 2, rt.obs());
  ResilienceConfig rc;
  rc.stall_ms = 150;
  rc.extra_dump = [this] { return rt.locks().dump_held(); };
  run.set_resilience(rc);

  const std::uint64_t stalls_before = stalls();
  try {
    std::move(run).run({Value::fixnum(0)});
    FAIL() << "a deadlocked lock program must not terminate normally";
  } catch (const StallError& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos)
        << e.what();
    EXPECT_NE(e.dump().find("held locks"), std::string::npos)
        << "dump should include the lock table, got: " << e.dump();
    EXPECT_NE(e.dump().find("wd-shared"), std::string::npos)
        << "dump should name the deadlocked location, got: " << e.dump();
  }
  EXPECT_EQ(stalls(), stalls_before + 1);

  // Release the lock; a fresh run of the same function completes.
  run_src("(%unlock-var 'wd-shared)");
  CriStats stats = rt.run_cri(fn, 1, 2, {Value::fixnum(0)});
  EXPECT_EQ(stats.invocations, 1u);
}

TEST_F(ResilienceTest, WatchdogDisarmedWhenInitialPushThrows) {
  // A push that throws (the kQueuePush fault here) ends the run before
  // any server starts; no stall may be counted for it, during the
  // throw or after the CriRun is gone.
  run_src("(defun noop-cri (i) nil)");
  Value fn = in.global("noop-cri");
  const std::uint64_t stalls_before = stalls();
  {
    CriRun run(in, fn, 1, 2, rt.obs());
    ResilienceConfig rc;
    rc.stall_ms = 50;
    run.set_resilience(rc);
    FaultInjector::instance().configure(7, 1.0, FaultInjector::kThrow);
    EXPECT_THROW(std::move(run).run({Value::fixnum(0)}), sexpr::LispError);
    FaultInjector::instance().disable();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(stalls(), stalls_before) << "an aborted run counted a stall";
}

TEST_F(ResilienceTest, StallCheckStartsNoThread) {
  // The stall check runs on the thread that joins the run: arming a
  // stall window, passing one, and aborting on one start no thread
  // beyond the pooled servers.
  run_src(
      "(defun noop-cri (i) nil)"
      "(defun stuck-cri (i)"
      "  (%lock-var 'nt-shared)"
      "  (%unlock-var 'nt-shared))");
  rt.run_cri(in.global("noop-cri"), 1, 2, {Value::fixnum(0)});
  const std::ptrdiff_t threads = thread_count();

  rt.set_stall_ms(200);
  rt.run_cri(in.global("noop-cri"), 1, 2, {Value::fixnum(0)});
  run_src("(%lock-var 'nt-shared)");
  EXPECT_THROW(rt.run_cri(in.global("stuck-cri"), 1, 2, {Value::fixnum(0)}),
               StallError);
  run_src("(%unlock-var 'nt-shared)");
  rt.set_stall_ms(0);
  EXPECT_EQ(stalls(), 1u);
  EXPECT_EQ(thread_count(), threads);
}

TEST_F(ResilienceTest, StallCheckSparesARunThatKeepsCompleting) {
  // Six tasks of 60 ms each, one after another, under a 200 ms window:
  // checks between completions see no change, yet no gap reaches the
  // window. The window restarts at every completion, so nothing fires.
  run_src(
      "(defun spin-until (t1)"
      "  (when (< (get-internal-real-time) t1) (spin-until t1)))"
      "(defun paced-cri (n)"
      "  (spin-until (+ (get-internal-real-time) 60000000))"
      "  (when (> n 0) (%cri-enqueue 0 (- n 1))))");
  CriRun run(in, in.global("paced-cri"), 1, 2, rt.obs());
  ResilienceConfig rc;
  rc.stall_ms = 200;
  run.set_resilience(rc);
  EXPECT_EQ(std::move(run).run({Value::fixnum(5)}).invocations, 6u);
  EXPECT_EQ(stalls(), 0u);
}

TEST_F(ResilienceTest, TouchHonorsCancelDeadline) {
  // An orphan state nobody will ever resolve: without the resilience
  // layer, touch would block forever.
  auto orphan = std::make_shared<FutureState>();
  CancelState tok;
  tok.set_deadline_ms(100);
  CancelScope scope(&tok);
  EXPECT_THROW(rt.futures().touch(orphan), StallError);
}

TEST_F(ResilienceTest, FutureTaskInheritsSpawnersDeadline) {
  // A CRI run that re-enqueues forever, started inside a future under a
  // 150 ms deadline. Whichever thread runs the task, it runs under a
  // copy of the spawner's deadline, so the run ends even though the
  // touch below happens outside the spawner's scope.
  run_src(
      "(setq stop-flag 0)"
      "(defun spin-cri (i)"
      "  (if (> stop-flag 0) nil (%cri-enqueue 0 i)))");
  {
    CancelState deadline;
    deadline.set_deadline_ms(150);
    CancelScope scope(&deadline);
    run_src("(setq fut (future (%cri-run spin-cri 1 2 0)))");
  }
  // Backstop so a task that ignores the deadline fails this test rather
  // than hanging it; stop-flag below then lets such a run end.
  CancelState backstop;
  backstop.set_deadline_ms(5000);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    CancelScope scope(&backstop);
    run_src("(touch fut)");
    ADD_FAILURE() << "an infinite re-enqueue loop must not terminate";
  } catch (const StallError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3))
      << "the run ran past its spawner's deadline";
  run_src("(setq stop-flag 1)");
  rt.futures().wait_idle();
}

TEST_F(ResilienceTest, AbortWaitersWakesBlockedTouch) {
  auto orphan = std::make_shared<FutureState>();
  std::thread aborter([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rt.futures().abort_waiters();
  });
  // The orphan never registered with the pool, so the wake arrives via
  // the bounded wait slice rather than a notify — still bounded.
  EXPECT_THROW(rt.futures().touch(orphan), sexpr::LispError);
  aborter.join();
}

TEST_F(ResilienceTest, LockWaitDeadlineProducesDiagnosticDump) {
  // A lock wait is bounded by the waiting thread's token alone: its
  // deadline ends the wait with a StallError carrying the token's dump.
  run_src("(%lock-var 'budget-loc)");
  std::string dump;
  std::thread contender([this, &dump] {
    CancelState deadline;
    deadline.set_deadline_ms(80);
    deadline.dump_fn = [this] { return rt.locks().dump_held(); };
    CancelScope scope(&deadline);
    try {
      rt.locks().lock(
          LocKey{ctx.symbols.intern("budget-loc"), nullptr}, true);
      ADD_FAILURE() << "the wait past the deadline must throw, not acquire";
    } catch (const StallError& e) {
      dump = e.dump();
    }
  });
  contender.join();
  EXPECT_NE(dump.find("budget-loc"), std::string::npos)
      << "dump should name the held location, got: " << dump;
  run_src("(%unlock-var 'budget-loc)");
}

TEST_F(ResilienceTest, ChaosSoakIsDeterministicallySurvivable) {
  // Fixed seeds × {delay, throw} over a workload that visits all five
  // fault sites: cons allocation (gc.alloc), %atomic-incf-var
  // (lock.acquire), %cri-enqueue (queue.push), future/touch
  // (future.spawn, task.run). Injected throws abort runs like any
  // body error; the invariant under test is that nothing hangs, leaks
  // a lock the reset can't clear, or corrupts the runtime for the
  // clean run at the end.
  run_src(
      "(setq chaos-count 0)"
      "(defun chaos-cri (l)"
      "  (when l"
      "    (%atomic-incf-var 'chaos-count 1)"
      "    (cons (car l) (touch (future (car l))))"
      "    (%cri-enqueue 0 (cdr l))))");
  Value fn = in.global("chaos-cri");

  gc::GcHeap& gc = ctx.heap.gc();
  gc::RootScope roots(gc);
  Value list;
  {
    gc::MutatorScope ms(gc);
    std::string src = "(";
    for (int i = 0; i < 60; ++i) src += std::to_string(i) + " ";
    src += ")";
    list = sexpr::read_one(ctx, src);
    roots.add(list);
  }
  const std::uint64_t old_threshold = gc.threshold();
  gc.set_threshold(128 * 1024);  // force collections mid-soak

  FaultInjector& fi = FaultInjector::instance();
  const std::uint64_t seeds[] = {0x101, 0x202, 0x303};
  const unsigned kind_sets[] = {FaultInjector::kDelay,
                                FaultInjector::kThrow};
  int aborted = 0, completed = 0;
  for (const std::uint64_t seed : seeds) {
    for (const unsigned kinds : kind_sets) {
      fi.configure(seed, 0.02, kinds);
      for (int iter = 0; iter < 3; ++iter) {
        try {
          // Even the reset of the counter allocates conses, so it can
          // draw a gc.alloc fault — it belongs inside the try.
          run_src("(setq chaos-count 0)");
          rt.run_cri(fn, 1, 2, {list});
          ++completed;
        } catch (const sexpr::LispError&) {
          ++aborted;  // injected throw surfaced as a body error
        }
        // An injected throw between a Lisp lock and its unlock can
        // leak the hold; reset is the documented recovery.
        rt.locks().reset();
      }
    }
  }
  fi.disable();
  gc.set_threshold(old_threshold);
  EXPECT_EQ(aborted + completed, 18);
  if (std::getenv("CURARE_CHAOS_VERBOSE") != nullptr) {
    std::printf("%s", fi.report().c_str());
  }

  // Delay-only rounds never abort a run; with kThrow in the mix some
  // runs abort — either way the runtime must be intact now.
  run_src("(setq chaos-count 0)");
  CriStats stats = rt.run_cri(fn, 1, 2, {list});
  EXPECT_EQ(stats.invocations, 61u);
  EXPECT_EQ(run_src("chaos-count").as_fixnum(), 60);
}

TEST_F(ResilienceTest, StealSiteChaosIsTargetedDeterministicAndSurvivable) {
  FaultInjector& fi = FaultInjector::instance();
  constexpr unsigned kStealOnly =
      1u << static_cast<unsigned>(FaultInjector::Site::kQueueSteal);

  // (a) Named-site targeting with replay determinism: with a fixed
  // seed the fire/skip decision at queue.steal is a pure function of
  // the per-site arrival index (configure() zeroes those counters), so
  // an identical reconfiguration yields the identical schedule — the
  // property the CI chaos jobs rely on for local replays. Sites
  // outside the mask never fire, whatever their arrival count.
  auto throws_in_400 = [&fi] {
    int thrown = 0;
    for (int i = 0; i < 400; ++i) {
      try {
        fi.check(FaultInjector::Site::kQueueSteal);
      } catch (const FaultInjectedError&) {
        ++thrown;
      }
      EXPECT_FALSE(fi.check(FaultInjector::Site::kQueuePush));
      EXPECT_FALSE(fi.check(FaultInjector::Site::kLockAcquire));
    }
    return thrown;
  };
  fi.configure(0xD1CE, 0.05, FaultInjector::kThrow, kStealOnly);
  const int first = throws_in_400();
  EXPECT_GT(first, 0) << "5% over 400 arrivals must fire sometimes";
  fi.configure(0xD1CE, 0.05, FaultInjector::kThrow, kStealOnly);
  EXPECT_EQ(throws_in_400(), first) << "same seed, same schedule";
  EXPECT_EQ(fi.stats(FaultInjector::Site::kQueuePush).throws, 0u);
  EXPECT_EQ(fi.stats(FaultInjector::Site::kLockAcquire).throws, 0u);

  // (b) Soak the real steal path: four servers sharing one spawning
  // chain keep three lanes dry, so every dry round crosses the
  // queue.steal site. Delays stretch the cross-lane races; throws
  // surface out of pop() and must take the server loop's drain path
  // (record, close, keep draining) without wedging the run or leaking
  // state into the clean rerun below.
  run_src(
      "(setq steal-count 0)"
      "(defun steal-cri (n)"
      "  (when (> n 0)"
      "    (%atomic-incf-var 'steal-count 1)"
      "    (%cri-enqueue 0 (- n 1))))");
  Value fn = in.global("steal-cri");
  int aborted = 0, completed = 0;
  for (const unsigned kinds :
       {unsigned(FaultInjector::kDelay),
        unsigned(FaultInjector::kDelay | FaultInjector::kThrow)}) {
    fi.configure(0xD1CE, 0.02, kinds, kStealOnly);
    for (int iter = 0; iter < 3; ++iter) {
      try {
        run_src("(setq steal-count 0)");
        rt.run_cri(fn, 1, 4, {Value::fixnum(200)});
        ++completed;
      } catch (const sexpr::LispError&) {
        ++aborted;  // injected steal-path throw, routed as a body error
      }
      rt.locks().reset();
    }
    const FaultInjector::SiteStats st =
        fi.stats(FaultInjector::Site::kQueueSteal);
    EXPECT_GT(st.visits, 0u) << "idle servers must have probed victims";
    if (kinds == FaultInjector::kDelay) {
      EXPECT_EQ(aborted, 0) << "delay-only rounds never abort a run";
    }
  }
  fi.disable();
  EXPECT_EQ(aborted + completed, 6);

  // Clean rerun: the soak must not have corrupted the runtime.
  run_src("(setq steal-count 0)");
  const CriStats stats = rt.run_cri(fn, 1, 4, {Value::fixnum(200)});
  EXPECT_EQ(stats.invocations, 201u);
  EXPECT_EQ(run_src("steal-count").as_fixnum(), 200);
}

TEST_F(ResilienceTest, InjectorStatsAndReportTrackSites) {
  FaultInjector& fi = FaultInjector::instance();
  fi.configure(42, 1.0, FaultInjector::kThrow);
  EXPECT_THROW(fi.check(FaultInjector::Site::kQueuePush),
               FaultInjectedError);
  const auto st = fi.stats(FaultInjector::Site::kQueuePush);
  EXPECT_EQ(st.visits, 1u);
  EXPECT_EQ(st.throws, 1u);
  EXPECT_NE(fi.report().find("queue.push"), std::string::npos);
  fi.disable();
  EXPECT_FALSE(fi.check(FaultInjector::Site::kQueuePush));
}

// The one chaos grammar every front end parses (FaultInjector::
// parse_spec): each row is a spec and the configuration it yields, or
// a rejection.
TEST(FaultInjectorSpec, ParseSpecTable) {
  using FI = FaultInjector;
  unsigned steal = 0;
  unsigned push = 0;
  ASSERT_TRUE(FI::site_bit("queue.steal", steal));
  ASSERT_TRUE(FI::site_bit("queue.push", push));
  struct Row {
    const char* spec;
    bool ok;
    std::uint64_t seed;
    double rate;
    unsigned kinds;
    unsigned sites;
  };
  const Row rows[] = {
      {"1234:0.02", true, 1234, 0.02, FI::kAllKinds, FI::kAllSites},
      {"0x4d2:0.02:delay,throw", true, 0x4d2, 0.02,
       FI::kDelay | FI::kThrow, FI::kAllSites},
      {"7:1:wake:queue.steal,queue.push", true, 7, 1.0, FI::kWake,
       steal | push},
      {"7:0.1::queue.steal", true, 7, 0.1, FI::kAllKinds, steal},
      {"7:0.1:all:all", true, 7, 0.1, FI::kAllKinds, FI::kAllSites},
      {"7:0.1:throw:", true, 7, 0.1, FI::kThrow, FI::kAllSites},
      {"18446744073709551615:0.5", true, 18446744073709551615ull, 0.5,
       FI::kAllKinds, FI::kAllSites},
      {"", false, 0, 0, 0, 0},
      {"7", false, 0, 0, 0, 0},
      {"7:", false, 0, 0, 0, 0},
      {":0.1", false, 0, 0, 0, 0},
      {"7:0", false, 0, 0, 0, 0},
      {"7:1.5", false, 0, 0, 0, 0},
      {"7:0.1x", false, 0, 0, 0, 0},
      {"-7:0.1", false, 0, 0, 0, 0},
      {"7x:0.1", false, 0, 0, 0, 0},
      {"0x:0.1", false, 0, 0, 0, 0},
      {"18446744073709551616:0.1", false, 0, 0, 0, 0},
      {"7:0.1:smash", false, 0, 0, 0, 0},
      {"7:0.1:delay,,throw", false, 0, 0, 0, 0},
      {"7:0.1:delay:queue.pop", false, 0, 0, 0, 0},
      {"7:0.1:delay:queue.push:x", false, 0, 0, 0, 0},
  };
  for (const Row& r : rows) {
    const auto spec = FI::parse_spec(r.spec);
    ASSERT_EQ(spec.has_value(), r.ok) << "'" << r.spec << "'";
    if (!spec) continue;
    EXPECT_EQ(spec->seed, r.seed) << r.spec;
    EXPECT_EQ(spec->rate, r.rate) << r.spec;
    EXPECT_EQ(spec->kinds, r.kinds) << r.spec;
    EXPECT_EQ(spec->sites, r.sites) << r.spec;
  }
}

TEST_F(ResilienceTest, ResilienceReportListsConfiguration) {
  rt.set_stall_ms(500);
  const std::string rep = rt.resilience_report();
  EXPECT_NE(rep.find("500 ms"), std::string::npos) << rep;
  EXPECT_NE(rep.find("stalls detected"), std::string::npos) << rep;
}

}  // namespace
}  // namespace curare::runtime
