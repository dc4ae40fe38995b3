// Location lock manager (paper §3.2.1).
//
// Curare's locking transformation inserts Lock(M)/Unlock(M) around a
// conflicting location M, where M is a single memory cell — a field of a
// cons (or a global variable). The paper notes some architectures have
// per-word lock tags; ours doesn't, so this manager keeps a dynamic map
// from location keys to lock entries, exactly the "more-costly,
// dynamically-allocated collection of locks" alternative it describes.
//
// Semantics:
//  * read/write (shared/exclusive) modes — §3.2.1's "replace exclusive
//    locks by read-write locks in cases in which more than one
//    invocation reads M";
//  * writer reentrancy per thread (an invocation may lock a coalesced
//    location and then touch it through several statements);
//  * no deadlock by construction of the transformed programs: all locks
//    are acquired in the head, and heads execute in sequential
//    invocation order, so acquisition order is globally consistent
//    (two-phase locking, §3.2.1).
//
// The table is sharded: a location hashes to one of kShards shards, each
// with its own mutex + cv + entry map, so unrelated locations rarely
// contend on manager state.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "runtime/splitmix.hpp"
#include "sexpr/value.hpp"

namespace curare::runtime {

/// A lockable location: a field of a heap object, or a global variable
/// (object = the Symbol, field = nullptr).
struct LocKey {
  const sexpr::Obj* object = nullptr;
  const sexpr::Symbol* field = nullptr;

  friend bool operator==(const LocKey&, const LocKey&) = default;
};

struct LocKeyHash {
  /// Pointer values are dominated by alignment zeros in their low bits;
  /// feeding them into `% kShards` (or the unordered_map's bucket
  /// count) without mixing collapses traffic onto a handful of shards.
  /// splitmix64 diffuses every input bit into the low bits the modulo
  /// actually uses.
  std::size_t operator()(const LocKey& k) const {
    const auto obj = reinterpret_cast<std::uintptr_t>(k.object);
    const auto fld = reinterpret_cast<std::uintptr_t>(k.field);
    return static_cast<std::size_t>(splitmix64(obj ^ splitmix64(fld)));
  }
};

class LockManager {
 public:
  /// Every lock reports into `rec` (§3.2.1's lock-cost question made
  /// measurable): acquisition and contention counts, a wait-time
  /// histogram, and wait/acquire/release trace events.
  explicit LockManager(obs::Recorder& rec);
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquire `key`. Throws LispError on a same-thread read→write
  /// upgrade (the thread would wait for its own shared hold to drain —
  /// a guaranteed self-deadlock, see DESIGN.md §10), StallError when
  /// the caller's CancelState (or a token on its chain) fires.
  void lock(const LocKey& key, bool exclusive);
  void unlock(const LocKey& key, bool exclusive);

  /// Human-readable table of currently held entries — the lock half of
  /// every stall dump. Takes each shard mutex briefly; callers must not
  /// hold one (lock() drops its shard before building diagnostics).
  std::string dump_held() const;

  /// Release every hold the calling thread has, shared and exclusive at
  /// any depth, and wake the waiters. A CRI server calls it when a body
  /// it ran failed: an aborted invocation never reaches its unlocks, and
  /// the pooled thread would otherwise keep its locks into later runs.
  void release_thread_holds();

  /// Drop every entry and wake all waiters. For tests and the chaos
  /// harness only: an injected throw between a Lisp-level lock and its
  /// unlock leaks the hold, and reset() is the documented way to
  /// recover the manager between chaos iterations.
  void reset();

  /// Number of lock/unlock operations served (for benchmarks).
  std::uint64_t operations() const {
    return ops_.load(std::memory_order_relaxed);
  }

  /// Entries currently held somewhere (for tests).
  std::size_t live_entries() const;

 private:
  struct Entry {
    int readers = 0;
    std::thread::id writer{};
    int writer_depth = 0;
    /// Which threads hold shared and how many times each — what makes
    /// the read→write upgrade detectable. Tiny in practice (readers of
    /// one location at one instant), so a flat vector beats a map.
    std::vector<std::pair<std::thread::id, int>> reader_holds;

    int holds_by(std::thread::id t) const {
      for (const auto& [tid, n] : reader_holds)
        if (tid == t) return n;
      return 0;
    }
  };

  static constexpr std::size_t kShards = 64;

  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<LocKey, Entry, LocKeyHash> entries;
  };

  Shard& shard_for(const LocKey& key) {
    return shards_[LocKeyHash{}(key) % kShards];
  }
  const Shard& shard_for(const LocKey& key) const {
    return shards_[LocKeyHash{}(key) % kShards];
  }

  mutable std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> ops_{0};

  // Resolved once at construction so lock() never touches the metrics
  // registry's mutex.
  obs::Recorder& rec_;
  obs::Counter& acquisitions_;
  obs::Counter& contended_;
  obs::Histogram& wait_ns_;
};

}  // namespace curare::runtime
