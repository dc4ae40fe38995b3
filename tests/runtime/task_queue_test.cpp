// Scheduler queue tests (paper §4.1) for the work-stealing deques
// CriRun uses: the site-ordering invariant, depth accounting,
// close-while-pushing races, ring-overflow FIFO, notify throttling,
// steal-path exactness, the mailbox-lane and desperate-round
// protocols, and single-threaded parity with the single-mutex queue
// (the ordering oracle). This file is part of runtime_test, which the
// CI TSan job runs — the concurrent cases here are the race detectors'
// workload.
#include "runtime/task_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "runtime/spmc_ring.hpp"

namespace curare::runtime {
namespace {

using sexpr::Value;

TaskArgs task(std::int64_t v) { return {Value::fixnum(v)}; }

std::int64_t val(const TaskArgs& t) { return t[0].as_fixnum(); }

// ---- SpmcRing unit ------------------------------------------------------

TEST(SpmcRing, FillDrainFifo) {
  SpmcRing<TaskArgs> r(8);
  EXPECT_EQ(r.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(r.try_push_sp(task(i)));
  TaskArgs rejected = task(99);
  EXPECT_FALSE(r.try_push_sp(std::move(rejected)));
  EXPECT_EQ(val(rejected), 99) << "a failed push must not consume the task";
  TaskArgs t;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(r.try_pop(t));
    EXPECT_EQ(val(t), i);
  }
  EXPECT_FALSE(r.try_pop(t));
}

TEST(SpmcRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpmcRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpmcRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpmcRing<int>(64).capacity(), 64u);
}

TEST(SpmcRing, ConcurrentSumExact) {
  // A lane's traffic: its owner is the only producer, while the owner
  // and thieves consume. Small capacity so the producer hits full and
  // consumers hit empty often.
  SpmcRing<TaskArgs> r(64);
  constexpr int kConsumers = 4;
  constexpr long kTotal = 80000;
  std::atomic<long> sum{0};
  std::atomic<long> taken{0};
  std::vector<std::thread> ts;
  ts.emplace_back([&r] {
    for (long i = 0; i < kTotal; ++i) {
      TaskArgs t = task(i);
      while (!r.try_push_sp(std::move(t))) std::this_thread::yield();
    }
  });
  for (int c = 0; c < kConsumers; ++c) {
    ts.emplace_back([&] {
      TaskArgs t;
      while (taken.load(std::memory_order_relaxed) < kTotal) {
        if (r.try_pop(t)) {
          sum.fetch_add(val(t), std::memory_order_relaxed);
          taken.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(taken.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2)
      << "every pushed task popped exactly once";
}

// ---- work-stealing deques (the CriRun scheduler) ------------------------

// Every push and pop names its lane, and each lane below has exactly
// one thread — the contract CriRun keeps with its server indices.
// Cases that need the ring→spill transition push past kRingCapacity.
constexpr std::size_t kRing = WorkStealingTaskQueues::kRingCapacity;

// Single-threaded, every task lives in one lane: the deque scheduler
// must reproduce the seed queue's order exactly (FIFO per site, lowest
// site first), spill path included.
TEST(WorkStealingQueues, SingleConsumerOrderMatchesSingleMutexQueue) {
  WorkStealingTaskQueues nq(3, 1);
  SingleMutexTaskQueues lq(3);
  std::mt19937 rng(42);
  long next = 0, queued = 0;
  for (int step = 0; step < 4000; ++step) {
    if (queued == 0 || rng() % 3 != 0) {
      const std::size_t site = rng() % 3;
      nq.push(0, site, task(next));
      lq.push(site, task(next));
      ++next;
      ++queued;
    } else {
      std::size_t ns = 7, ls = 7;
      auto a = nq.pop(0, &ns);
      auto b = lq.pop(&ls);
      ASSERT_TRUE(a.has_value() && b.has_value());
      ASSERT_EQ(val(*a), val(*b)) << "at step " << step;
      ASSERT_EQ(ns, ls);
      --queued;
    }
  }
  EXPECT_GT(nq.stats().spill_pushes, 0u) << "the walk must reach the spill";
  nq.close();
  lq.close();
  for (;;) {
    auto a = nq.pop(0);
    auto b = lq.pop();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    ASSERT_EQ(val(*a), val(*b));
  }
}

TEST(WorkStealingQueues, NewLowSiteWorkPreemptsRemainingHighSite) {
  // After the consumer has moved on to site 1, fresh site-0 work must
  // be served before the rest of site 1.
  WorkStealingTaskQueues q(2, 1);
  q.push(0, 1, task(10));
  q.push(0, 1, task(11));
  q.push(0, 0, task(0));
  std::size_t site = 9;
  EXPECT_EQ(val(*q.pop(0, &site)), 0);
  EXPECT_EQ(site, 0u);
  EXPECT_EQ(val(*q.pop(0, &site)), 10);
  EXPECT_EQ(site, 1u);
  q.push(0, 0, task(1));  // arrives while site 1 is being drained
  EXPECT_EQ(val(*q.pop(0, &site)), 1) << "site 0 drains before site 1 resumes";
  EXPECT_EQ(site, 0u);
  EXPECT_EQ(val(*q.pop(0, &site)), 11);
  EXPECT_EQ(site, 1u);
}

TEST(WorkStealingQueues, PushReturnsLaneDepthSample) {
  WorkStealingTaskQueues q(2, 1);
  EXPECT_EQ(q.push(0, 0, task(1)), 1u);
  EXPECT_EQ(q.push(0, 1, task(2)), 2u);
  EXPECT_EQ(q.push(0, 0, task(3)), 3u);
  EXPECT_EQ(q.depth(), 3u);
  (void)q.pop(0);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.push(0, 0, task(4)), 3u);
  EXPECT_EQ(q.max_length(), 3u);
}

// A producer that never pops (the seeding caller, a serve dispatcher)
// leaves a "mailbox" lane; every one of its tasks must be stolen. With
// each worker owning a distinct lane, all takes are cross-lane steals
// and the steal counter must account for every task exactly.
TEST(WorkStealingQueues, MailboxProducerWorkIsStolenAndServed) {
  constexpr std::size_t kWorkers = 4;
  WorkStealingTaskQueues q(1, kWorkers + 1);
  constexpr long kN = 2000;
  static_assert(kN > static_cast<long>(kRing), "must reach the spill");
  std::atomic<long> sum{0}, served{0};
  for (long i = 0; i < kN; ++i) q.push(kWorkers, 0, task(i));
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kWorkers; ++t) {
    ts.emplace_back([&, t] {
      while (auto got = q.pop(t)) {
        sum.fetch_add(val(*got), std::memory_order_relaxed);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (served.load(std::memory_order_relaxed) < kN)
    std::this_thread::yield();
  q.close();
  for (auto& th : ts) th.join();
  EXPECT_EQ(served.load(), kN);
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2) << "each task served exactly once";
  const QueueStats st = q.stats();
  EXPECT_EQ(st.pushes, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(st.pops, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(st.steals, static_cast<std::uint64_t>(kN))
      << "every take from the mailbox lane is a steal";
  EXPECT_GT(st.spill_pushes, 0u);
  EXPECT_EQ(q.depth(), 0u);
}

// Liveness backstop for the wake throttle + steal-affinity rule: a
// consuming owner's single parked task is deliberately not offered to
// thieves (no notify, no spin-phase steal), but a sleeping thief's
// desperate round must still rescue it once the owner stalls.
TEST(WorkStealingQueues, DesperateRoundRescuesParkedDepthOneTask) {
  WorkStealingTaskQueues q(1, 2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<bool> parked{false};
  std::thread owner([&] {
    q.push(0, 0, task(1));
    (void)q.pop(0);  // marks lane 0's owner as consuming
    q.push(0, 0, task(2));  // depth-1: throttled, no handshake
    parked.store(true, std::memory_order_release);
    gate.wait();  // stall without ever popping again
  });
  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
  std::optional<TaskArgs> stolen = q.pop(1);  // must not block forever
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(val(*stolen), 2);
  EXPECT_GE(q.stats().steals, 1u);
  release.set_value();
  owner.join();
  q.close();
  EXPECT_FALSE(q.pop(1).has_value());
}

TEST(WorkStealingQueues, DepthAndStatsExactAtQuiescence) {
  // Four pushing lanes and two popping lanes, one thread each; every
  // site of a pushing lane receives more than a ring's worth.
  constexpr int kPushers = 4, kPoppers = 2, kPer = 5000;
  static_assert(kPer / 4 > static_cast<int>(kRing), "must reach the spill");
  WorkStealingTaskQueues q(4, kPushers + kPoppers);
  constexpr long kTotal = static_cast<long>(kPushers) * kPer;
  std::atomic<long> popped{0};
  std::vector<std::thread> ts;
  for (int p = 0; p < kPushers; ++p) {
    ts.emplace_back([&q, p] {
      for (int i = 0; i < kPer; ++i)
        q.push(static_cast<std::size_t>(p), static_cast<std::size_t>(i % 4),
               task(p));
    });
  }
  std::vector<std::thread> poppers;
  for (int c = 0; c < kPoppers; ++c) {
    poppers.emplace_back([&, c] {
      while (q.pop(static_cast<std::size_t>(kPushers + c)))
        popped.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : ts) th.join();
  while (popped.load() < kTotal) std::this_thread::yield();
  q.close();
  for (auto& th : poppers) th.join();
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(q.depth(), 0u);
  const QueueStats st = q.stats();
  EXPECT_EQ(st.pushes, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(st.pops, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(st.steals, static_cast<std::uint64_t>(kTotal))
      << "no pushing lane is ever popped by its owner";
  EXPECT_GE(q.max_length(), 1u);
}

TEST(WorkStealingQueues, CloseWakesWithEmpty) {
  WorkStealingTaskQueues q(1, 1);
  q.close();
  EXPECT_FALSE(q.pop(0).has_value());
  EXPECT_TRUE(q.closed());
}

TEST(WorkStealingQueues, DrainsRemainingAfterCloseFromAnotherThread) {
  WorkStealingTaskQueues q(1, 2);
  q.push(0, 0, task(1));  // main's lane
  q.close();
  std::optional<TaskArgs> got;
  std::thread t([&] { got = q.pop(1); });  // cross-lane post-close drain
  t.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(val(*got), 1);
  EXPECT_FALSE(q.pop(0).has_value());
}

TEST(WorkStealingQueues, CloseWhilePushingTerminates) {
  for (int round = 0; round < 10; ++round) {
    WorkStealingTaskQueues q(2, 4);
    std::atomic<bool> stop{false};
    std::atomic<long> pushed{0}, popped{0};
    std::vector<std::thread> ts;
    for (int p = 0; p < 2; ++p) {
      ts.emplace_back([&, p] {
        for (long i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          q.push(static_cast<std::size_t>(p),
                 static_cast<std::size_t>((i + p) % 2), task(i));
          pushed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (int c = 0; c < 2; ++c) {
      ts.emplace_back([&, c] {
        while (q.pop(static_cast<std::size_t>(2 + c)))
          popped.fetch_add(1, std::memory_order_relaxed);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    q.close();
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : ts) th.join();
    EXPECT_LE(popped.load(), pushed.load());
  }
}

TEST(WorkStealingQueues, BadSiteThrows) {
  WorkStealingTaskQueues q(2, 1);
  EXPECT_THROW(q.push(0, 5, {}), sexpr::LispError);
}

TEST(WorkStealingQueues, SpillOverflowPreservesFifo) {
  WorkStealingTaskQueues q(1, 1);
  const int kN = static_cast<int>(kRing) + 100;
  for (int i = 0; i < kN; ++i) q.push(0, 0, task(i));
  EXPECT_EQ(q.stats().spill_pushes, 100u) << "overflow must hit the spill";
  EXPECT_EQ(q.depth(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    auto t = q.pop(0);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(val(*t), i) << "FIFO across ring→spill→refill boundaries";
  }
  q.close();
  EXPECT_FALSE(q.pop(0).has_value());
}

// A push to a lane nobody pops runs the sleeper handshake: with no
// server asleep it skips the condition variable, with one asleep it
// pays for exactly one notify.
TEST(WorkStealingQueues, NotifySkippedWithoutSleeperSentWithOne) {
  WorkStealingTaskQueues q(1, 2);
  q.push(0, 0, task(1));  // nobody asleep: cv untouched
  EXPECT_EQ(q.stats().notify_suppressed, 1u);
  EXPECT_EQ(q.stats().notify_sent, 0u);

  std::thread popper([&q] {
    (void)q.pop(1);  // steals task 1 from main's mailbox lane
    (void)q.pop(1);  // then parks until task 2 arrives
  });
  // Sleep slices double from 1 ms; the seventh park lasts 64 ms, so the
  // push below lands while the popper is still registered as a sleeper.
  while (q.stats().sleeps < 7) std::this_thread::yield();
  q.push(0, 0, task(2));  // must pay the cv now
  popper.join();
  EXPECT_EQ(q.stats().notify_sent, 1u);
  EXPECT_EQ(q.stats().notify_suppressed, 1u);
  q.close();
}

// Producer-only lanes racing consumer lanes, one thread per lane:
// owner fast-path pushes past the ring into the spill, steals of every
// task, and the sleeper handshake all at once. This is the TSan
// workload for the steal path; the visible assertion is exactness (no
// task lost or double-served).
TEST(WorkStealingQueues, ConcurrentMixedStealSumExact) {
  // Producers never pop, so every push takes the full wake handshake
  // and a consumer blocked on an empty queue is always woken — either
  // by a remaining push or by the final close().
  constexpr int kProducers = 3, kConsumers = 3, kPer = 8000;
  static_assert(kPer / 2 > static_cast<int>(kRing), "must reach the spill");
  WorkStealingTaskQueues q(2, kProducers + kConsumers);
  constexpr long kTotal = static_cast<long>(kProducers) * kPer;
  std::atomic<long> sum{0}, served{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kProducers; ++t) {
    ts.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) * 7919 + 1);
      for (long i = 0; i < kPer; ++i)
        q.push(static_cast<std::size_t>(t), rng() % 2,
               task(static_cast<long>(t) * kPer + i));
    });
  }
  for (int t = 0; t < kConsumers; ++t) {
    ts.emplace_back([&, t] {
      for (;;) {
        auto got = q.pop(static_cast<std::size_t>(kProducers + t));
        if (!got) break;
        sum.fetch_add(val(*got), std::memory_order_relaxed);
        if (served.fetch_add(1, std::memory_order_relaxed) + 1 == kTotal)
          q.close();
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(served.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(q.depth(), 0u);
  const QueueStats st = q.stats();
  EXPECT_EQ(st.pushes, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(st.pops, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(st.steals, static_cast<std::uint64_t>(kTotal));
}

}  // namespace
}  // namespace curare::runtime
