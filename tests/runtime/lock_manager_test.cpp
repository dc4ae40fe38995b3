// LockManager tests: exclusion, read sharing, reentrancy, error cases.
#include "runtime/lock_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "sexpr/ctx.hpp"

namespace curare::runtime {
namespace {

class LockManagerTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  obs::Recorder rec;
  LockManager lm{rec};

  LocKey key(const char* field = "car") {
    return LocKey{cell_, ctx.symbols.intern(field)};
  }

  sexpr::Cons* cell_ = ctx.heap.alloc<sexpr::Cons>(sexpr::Value::nil(),
                                                   sexpr::Value::nil());
};

TEST_F(LockManagerTest, ExclusiveLockUnlock) {
  lm.lock(key(), true);
  EXPECT_EQ(lm.live_entries(), 1u);
  lm.unlock(key(), true);
  EXPECT_EQ(lm.live_entries(), 0u);
}

TEST_F(LockManagerTest, DistinctFieldsAreDistinctLocations) {
  lm.lock(key("car"), true);
  lm.lock(key("cdr"), true);  // must not self-deadlock
  EXPECT_EQ(lm.live_entries(), 2u);
  lm.unlock(key("cdr"), true);
  lm.unlock(key("car"), true);
}

TEST_F(LockManagerTest, WriterReentrancy) {
  lm.lock(key(), true);
  lm.lock(key(), true);  // same thread, same location
  lm.unlock(key(), true);
  EXPECT_EQ(lm.live_entries(), 1u) << "still held once";
  lm.unlock(key(), true);
  EXPECT_EQ(lm.live_entries(), 0u);
}

TEST_F(LockManagerTest, WriterMayAlsoTakeReadLock) {
  lm.lock(key(), true);
  lm.lock(key(), false);  // read inside write: counts as reentrant hold
  lm.unlock(key(), false);
  lm.unlock(key(), true);
  EXPECT_EQ(lm.live_entries(), 0u);
}

TEST_F(LockManagerTest, ReadToWriteUpgradeThrowsInsteadOfDeadlocking) {
  // A reader that asks for the write lock on the same location would
  // wait for its own read hold to drain — a self-deadlock. The manager
  // must detect this and throw while the read hold stays intact.
  lm.lock(key(), false);
  try {
    lm.lock(key(), true);
    FAIL() << "upgrade must throw, not acquire (or hang)";
  } catch (const sexpr::LispError& e) {
    EXPECT_NE(std::string(e.what()).find("upgrade"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(lm.live_entries(), 1u) << "the read hold must survive";
  lm.unlock(key(), false);
  EXPECT_EQ(lm.live_entries(), 0u);
}

TEST_F(LockManagerTest, UpgradeDetectionIsPerThread) {
  // Another thread's read hold is ordinary contention, not an upgrade:
  // the writer must wait for it, then acquire.
  lm.lock(key(), false);
  std::atomic<bool> acquired{false};
  std::thread writer([&] {
    lm.lock(key(), true);  // blocks until the main thread releases
    acquired.store(true);
    lm.unlock(key(), true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acquired.load()) << "writer ran through a live read hold";
  lm.unlock(key(), false);
  writer.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(lm.live_entries(), 0u);
}

TEST_F(LockManagerTest, HandOffUnlockLeavesNoStaleUpgradeRecord) {
  // Hand-off pattern: lock shared on one thread, unlock on another.
  // Regression: the locker's reader_holds record used to survive the
  // other thread's unlock, so the locker's later exclusive request on
  // the same key threw a false "read->write upgrade" error even though
  // it no longer held anything.
  lm.lock(key(), false);
  std::thread other([&] { lm.unlock(key(), false); });
  other.join();
  EXPECT_EQ(lm.live_entries(), 0u);
  EXPECT_NO_THROW(lm.lock(key(), true))
      << "stale reader record misread as an upgrade";
  lm.unlock(key(), true);
  EXPECT_EQ(lm.live_entries(), 0u);
}

TEST_F(LockManagerTest, HandOffUnlockWithOtherReadersTracksCounts) {
  // Two live read holds, one of them handed off: the hand-off unlock
  // must retire exactly one record so the count view stays exact and
  // a later fresh exclusive acquisition (after the second release)
  // succeeds.
  lm.lock(key(), false);
  std::thread t([&] {
    lm.lock(key(), false);
    lm.unlock(key(), false);  // its own hold: ordinary unlock
  });
  t.join();
  std::thread other([&] { lm.unlock(key(), false); });  // hand-off
  other.join();
  EXPECT_EQ(lm.live_entries(), 0u);
  EXPECT_NO_THROW(lm.lock(key(), true));
  lm.unlock(key(), true);
}

TEST_F(LockManagerTest, DumpHeldNamesLocationsAndReset) {
  EXPECT_NE(lm.dump_held().find("none"), std::string::npos);
  lm.lock(key(), true);
  const std::string dump = lm.dump_held();
  EXPECT_NE(dump.find("held locks (1)"), std::string::npos) << dump;
  EXPECT_NE(dump.find("car"), std::string::npos) << dump;
  lm.reset();  // recovery path after an aborted run
  EXPECT_EQ(lm.live_entries(), 0u);
}

TEST_F(LockManagerTest, ReleaseThreadHoldsDropsOnlyTheCallersHolds) {
  // A failed CRI body's thread drops what it holds — a reentrant write
  // and a read — while another thread's read of the same location stays.
  lm.lock(key("cdr"), false);  // this thread's hold, kept
  std::thread failed([&] {
    lm.lock(key("car"), true);
    lm.lock(key("car"), true);
    lm.lock(key("cdr"), false);
    lm.release_thread_holds();
  });
  failed.join();
  EXPECT_EQ(lm.live_entries(), 1u) << lm.dump_held();
  std::thread later([&] {
    lm.lock(key("car"), true);  // would wait forever on a leaked hold
    lm.unlock(key("car"), true);
  });
  later.join();
  lm.unlock(key("cdr"), false);
  EXPECT_EQ(lm.live_entries(), 0u);
}

TEST_F(LockManagerTest, SharedReadersCoexist) {
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([&] {
      lm.lock(key(), false);
      int now = concurrent.fetch_add(1) + 1;
      int old_peak = peak.load();
      while (now > old_peak && !peak.compare_exchange_weak(old_peak, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      concurrent.fetch_sub(1);
      lm.unlock(key(), false);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_GT(peak.load(), 1) << "read locks must admit multiple readers";
}

TEST_F(LockManagerTest, WriterExcludesWriter) {
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([&] {
      for (int k = 0; k < 50; ++k) {
        lm.lock(key(), true);
        if (inside.fetch_add(1) != 0) overlap = true;
        std::this_thread::yield();
        inside.fetch_sub(1);
        lm.unlock(key(), true);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(overlap.load());
}

TEST_F(LockManagerTest, WriterWaitsForReaders) {
  lm.lock(key(), false);  // this thread reads
  std::atomic<bool> writer_done{false};
  std::thread w([&] {
    lm.lock(key(), true);
    writer_done = true;
    lm.unlock(key(), true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(writer_done.load()) << "writer must wait for the reader";
  lm.unlock(key(), false);
  w.join();
  EXPECT_TRUE(writer_done.load());
}

TEST_F(LockManagerTest, UnlockWithoutLockThrows) {
  EXPECT_THROW(lm.unlock(key(), true), sexpr::LispError);
}

TEST_F(LockManagerTest, UnlockByNonOwnerThrows) {
  lm.lock(key(), true);
  std::exception_ptr err;
  std::thread t([&] {
    try {
      lm.unlock(key(), true);
    } catch (...) {
      err = std::current_exception();
    }
  });
  t.join();
  EXPECT_NE(err, nullptr);
  lm.unlock(key(), true);
}

TEST_F(LockManagerTest, OperationCountAdvances) {
  const auto before = lm.operations();
  lm.lock(key(), true);
  lm.unlock(key(), true);
  EXPECT_EQ(lm.operations(), before + 2);
}

TEST_F(LockManagerTest, HashSpreadsAlignedPointerKeys) {
  // Regression: heap objects are allocated at (at least) 16-byte-aligned
  // addresses, so without a finalizer the low bits feeding `% shards`
  // are mostly zero and whole shard groups go unused. 512 distinct cons
  // locations must spread across nearly all 64 shards, with no shard
  // absorbing a large multiple of its fair share (fair = 8 per shard).
  constexpr std::size_t kNumShards = 64;  // mirrors LockManager::kShards
  std::array<int, kNumShards> bucket{};
  const sexpr::Symbol* field = ctx.symbols.intern("car");
  for (int i = 0; i < 512; ++i) {
    auto* cell = ctx.heap.alloc<sexpr::Cons>(sexpr::Value::nil(),
                                             sexpr::Value::nil());
    LocKey k{cell, field};
    ++bucket[LocKeyHash{}(k) % kNumShards];
  }
  int hit = 0;
  int worst = 0;
  for (int n : bucket) {
    if (n > 0) ++hit;
    worst = std::max(worst, n);
  }
  EXPECT_GE(hit, 56) << "aligned pointers must not collapse onto a few "
                        "shards (pre-fix behaviour hit ~4 of 64)";
  EXPECT_LE(worst, 64) << "no shard may absorb 8x its fair share";
}

TEST_F(LockManagerTest, VariableLocationKeys) {
  LocKey var_key{ctx.symbols.intern("total"), nullptr};
  lm.lock(var_key, true);
  lm.unlock(var_key, true);
  EXPECT_EQ(lm.live_entries(), 0u);
}

}  // namespace
}  // namespace curare::runtime
