// FuturePool tests: spawn/touch, error propagation, help-first waiting.
#include "runtime/future_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "sexpr/value.hpp"

namespace curare::runtime {
namespace {

using sexpr::Value;

TEST(FuturePool, SpawnAndTouch) {
  obs::Recorder rec;
  FuturePool pool(rec, 2);
  auto f = pool.spawn([] { return Value::fixnum(42); });
  EXPECT_EQ(pool.touch(f).as_fixnum(), 42);
}

TEST(FuturePool, TouchIsIdempotent) {
  obs::Recorder rec;
  FuturePool pool(rec, 2);
  auto f = pool.spawn([] { return Value::fixnum(7); });
  EXPECT_EQ(pool.touch(f).as_fixnum(), 7);
  EXPECT_EQ(pool.touch(f).as_fixnum(), 7);
}

TEST(FuturePool, ManyFuturesAllResolve) {
  obs::Recorder rec;
  FuturePool pool(rec, 4);
  std::vector<std::shared_ptr<FutureState>> fs;
  for (int i = 0; i < 500; ++i)
    fs.push_back(pool.spawn([i] { return Value::fixnum(i); }));
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(pool.touch(fs[static_cast<std::size_t>(i)]).as_fixnum(), i);
}

TEST(FuturePool, ErrorsPropagateOnTouch) {
  obs::Recorder rec;
  FuturePool pool(rec, 2);
  auto f = pool.spawn([]() -> Value {
    throw sexpr::LispError("task failed");
  });
  EXPECT_THROW(pool.touch(f), sexpr::LispError);
}

TEST(FuturePool, HelpFirstTouchAvoidsDeadlockOnSingleWorker) {
  // One worker, and the worker's task spawns+touches a child future. A
  // blocking touch would deadlock; help-first touch must complete.
  obs::Recorder rec;
  FuturePool pool(rec, 1);
  auto parent = pool.spawn([&pool]() -> Value {
    auto child = pool.spawn([] { return Value::fixnum(5); });
    return Value::fixnum(pool.touch(child).as_fixnum() + 1);
  });
  EXPECT_EQ(pool.touch(parent).as_fixnum(), 6);
}

TEST(FuturePool, DeepFutureChainCompletes) {
  obs::Recorder rec;
  FuturePool pool(rec, 2);
  std::function<Value(int)> chain = [&](int n) -> Value {
    if (n == 0) return Value::fixnum(0);
    auto f = pool.spawn([&chain, n] { return chain(n - 1); });
    return Value::fixnum(pool.touch(f).as_fixnum() + 1);
  };
  EXPECT_EQ(chain(100).as_fixnum(), 100);
}

TEST(FuturePool, WorkerCountDefaultsPositive) {
  obs::Recorder rec;
  FuturePool pool(rec);
  EXPECT_GE(pool.workers(), 2u);
}

TEST(FuturePool, SpawnCountTracks) {
  obs::Recorder rec;
  FuturePool pool(rec, 2);
  auto a = pool.spawn([] { return Value::nil(); });
  auto b = pool.spawn([] { return Value::nil(); });
  pool.touch(a);
  pool.touch(b);
  EXPECT_EQ(pool.spawned(), 2u);
}

TEST(FuturePool, RecorderCountsSpawnsAndWaits) {
  obs::Recorder rec;
  FuturePool pool(rec, 2);
  auto slow = pool.spawn([]() -> Value {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return Value::fixnum(1);
  });
  auto fast = pool.spawn([] { return Value::fixnum(2); });
  EXPECT_EQ(pool.touch(slow).as_fixnum(), 1);
  EXPECT_EQ(pool.touch(fast).as_fixnum(), 2);
  EXPECT_EQ(rec.metrics.counter("future.spawned").get(), 2u);
  EXPECT_EQ(rec.metrics.counter("future.touches").get(), 2u);
  // The slow touch blocked; its wait time was recorded (this histogram
  // is the proof the old 1ms poll loop is gone — a poll would burn CPU,
  // a blocked predicate wait records one span covering the whole wait).
  EXPECT_GE(rec.metrics.counter("future.touch_waits").get(), 1u);
  EXPECT_EQ(rec.metrics.histogram("future.wait_ns").count(),
            rec.metrics.counter("future.touch_waits").get());
  EXPECT_GE(rec.metrics.histogram("future.wait_ns").max(), 5'000'000u);
}

TEST(FuturePool, ResolvedTouchNeverCountsAsWait) {
  obs::Recorder rec;
  FuturePool pool(rec, 2);
  auto f = pool.spawn([] { return Value::fixnum(3); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pool.touch(f).as_fixnum(), 3);
  EXPECT_EQ(rec.metrics.counter("future.touch_waits").get(), 0u);
  EXPECT_EQ(rec.metrics.histogram("future.wait_ns").count(), 0u);
}

TEST(FuturePool, HelpedCounterTracksInlineRuns) {
  obs::Recorder rec;
  // One worker busy on a slow task; touching a queued future forces the
  // caller to help-run it inline.
  FuturePool pool(rec, 1);
  auto slow = pool.spawn([]() -> Value {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return Value::nil();
  });
  auto queued = pool.spawn([] { return Value::fixnum(9); });
  EXPECT_EQ(pool.touch(queued).as_fixnum(), 9);
  EXPECT_GE(rec.metrics.counter("future.helped").get(), 1u);
  pool.touch(slow);
}

TEST(FuturePool, ParallelExecutionActuallyOverlaps) {
  obs::Recorder rec;
  FuturePool pool(rec, 4);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::shared_ptr<FutureState>> fs;
  for (int i = 0; i < 4; ++i) {
    fs.push_back(pool.spawn([&]() -> Value {
      int now = running.fetch_add(1) + 1;
      int old = peak.load();
      while (now > old && !peak.compare_exchange_weak(old, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      running.fetch_sub(1);
      return Value::nil();
    }));
  }
  for (auto& f : fs) pool.touch(f);
  EXPECT_GT(peak.load(), 1) << "tasks must overlap on a 4-worker pool";
}

}  // namespace
}  // namespace curare::runtime
