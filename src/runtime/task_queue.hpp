// Ordered task queues for the CRI server pool (paper §4.1).
//
// "If f contains multiple self-recursive calls, then the order of
// invocations can be scrambled by the queue. … This problem can be
// resolved by maintaining an ordered set of queues, one for each call
// site, and by having a server use the next queue only after it
// finishes executing all calls in the current queue."
//
// pop() therefore always drains the lowest-index nonempty queue first.
// Termination uses the paper's kill-token idea: close() wakes every
// server with an empty pop, and they exit.
//
// Two implementations share that contract:
//
//  * WorkStealingTaskQueues — the scheduler CriRun runs on. One *lane*
//    per server, each lane holding the full per-site structure (ring +
//    spill). The caller names its lane on every push and pop (CriRun
//    passes the server index); the lane's one producer pushes with a
//    single-producer ring append (no CAS) and pops from its own lane
//    first, so a task's head→spawn chain stays on the server that
//    spawned it. Only when the owner's lane is dry does it steal —
//    single tasks, oldest-first, two-choice victim selection — and
//    only after several dry rounds does it sleep. There is no
//    global depth word at all: emptiness is read off the ring cursors
//    (publication *is* the count), so the owner's push+pop pair
//    serializes on nothing shared — one ring-cursor CAS on its own
//    lane's consumer side is the only lock-prefixed instruction in the
//    pair.
//
//  * SingleMutexTaskQueues — one mutex, one condition variable, a deque
//    per site. The runtime does not use it: it is the single-threaded
//    ordering oracle in tests and the A/B baseline in bench_queue. Put
//    behind CriRun it lost end-to-end throughput on CRI workloads
//    (EXPERIMENTS.md E7), which is why the work-stealing queue stays.
//
// Work-stealing ordering semantics: per-site FIFO holds for causally
// ordered pushes (a server's own successive enqueues — the §4.1
// invocation-order requirement), and pop prefers the lowest nonempty
// site of the popper's own lane, then steals. Under concurrent mutation
// the lowest-site preference is best-effort within a race window (two
// in-flight operations may linearize either way), which is
// indistinguishable from scheduling nondeterminism; with a single
// thread, or at any quiescent point with one consumer, the order is
// exact and equal to SingleMutexTaskQueues.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "gc/gc.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/spmc_ring.hpp"
#include "sexpr/value.hpp"

namespace curare::runtime {

using TaskArgs = std::vector<sexpr::Value>;

/// Counters a queue accumulates over its life (one CRI run); CriRun
/// publishes them to the metrics registry after the run.
struct QueueStats {
  std::uint64_t pushes = 0;       ///< tasks enqueued
  std::uint64_t pops = 0;         ///< tasks dequeued
  std::uint64_t notify_sent = 0;  ///< pushes that signalled a sleeper
  std::uint64_t notify_suppressed = 0;  ///< pushes with no sleeper (no cv)
  std::uint64_t spill_pushes = 0;  ///< pushes that overflowed a ring
  std::uint64_t sleeps = 0;        ///< times a server actually blocked
  std::uint64_t steals = 0;  ///< tasks taken from another server's lane
};

// ---------------------------------------------------------------------------
// SingleMutexTaskQueues: ordering oracle and A/B baseline.
// ---------------------------------------------------------------------------

class SingleMutexTaskQueues {
 public:
  explicit SingleMutexTaskQueues(std::size_t num_sites)
      : queues_(num_sites == 0 ? 1 : num_sites) {}

  /// Enqueue an invocation's arguments at a call site's queue. Returns
  /// the total queued depth after the push (an observability sample —
  /// §4.1's queue-growth discussion made measurable).
  std::size_t push(std::size_t site, TaskArgs args) {
    if (FaultInjector::instance().check(FaultInjector::Site::kQueuePush))
      cv_.notify_all();  // injected spurious wakeup
    std::size_t total = 0;
    {
      std::lock_guard<std::mutex> g(mu_);
      if (site >= queues_.size())
        throw sexpr::LispError("cri: call-site index out of range");
      queues_[site].push_back(std::move(args));
      for (const auto& q : queues_) total += q.size();
      if (total > max_len_) max_len_ = total;
    }
    cv_.notify_one();
    return total;
  }

  /// Block for the next task (lowest-index site first); nullopt when the
  /// queues are closed and empty — the kill token. When `site_out` is
  /// non-null it receives the call-site index the task came from.
  std::optional<TaskArgs> pop(std::size_t* site_out = nullptr) {
    std::unique_lock<std::mutex> g(mu_);
    for (;;) {
      for (std::size_t i = 0; i < queues_.size(); ++i) {
        auto& q = queues_[i];
        if (!q.empty()) {
          TaskArgs t = std::move(q.front());
          q.pop_front();
          if (site_out) *site_out = i;
          return t;
        }
      }
      if (closed_) return std::nullopt;
      // Park hook: a server sleeping here is at a quiescent point — the
      // values it will consume on wake are still queue-rooted — so it
      // must not hold its unsafe region and stall the collector.
      // Bounded slice: close()/push() still wake us immediately; the
      // timeout only bounds how long a cancelled server can stay parked
      // before its serve loop re-checks the token.
      const std::size_t gcd = gc_ ? gc_->blocking_release() : 0;
      cv_.wait_for(g, std::chrono::milliseconds(100));
      if (gcd != 0) {
        // Re-enter outside the queue lock: reacquire may block on a
        // stop-the-world whose root enumeration needs this mutex.
        g.unlock();
        gc_->blocking_reacquire(gcd);
        g.lock();
      }
    }
  }

  void close() {
    {
      std::lock_guard<std::mutex> g(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> g(mu_);
    return closed_;
  }

  /// High-water mark of total queued tasks (§4.1: with a single call
  /// site the queue never grows beyond its initial length).
  std::size_t max_length() const {
    std::lock_guard<std::mutex> g(mu_);
    return max_len_;
  }

  std::size_t sites() const { return queues_.size(); }

  /// Let blocked pops release their GC unsafe region while sleeping.
  void attach_gc(gc::GcHeap* gc) { gc_ = gc; }

  /// Visit every pending task's argument vector. The collector calls
  /// this while the world is stopped; sleeping servers hold no queue
  /// state, so the mutex is uncontended-or-briefly-held.
  template <typename Fn>
  void for_each_task(Fn&& fn) const {
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& q : queues_)
      for (const TaskArgs& t : q) fn(t);
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<TaskArgs>> queues_;
  bool closed_ = false;
  std::size_t max_len_ = 0;
  gc::GcHeap* gc_ = nullptr;
};

// ---------------------------------------------------------------------------
// WorkStealingTaskQueues: per-server lanes with work stealing.
// ---------------------------------------------------------------------------
//
// Shard by *server*, not by site: one lane per server, each lane
// carrying the full per-site array of {ring, spill}. (A global per-site
// ring that any server drains has no locality, and its shared cursors
// cost several contended RMWs per push+pop pair.) The caller names the
// lane on every push and pop — CriRun passes the server index; its
// caller seeds lane 0 before server 0 starts — and each lane has
// exactly one producer at a time. So the lane's producer pushes with
// single-producer ring appends (no CAS) and pops its own lane first: a
// head→spawn chain stays on the server that spawned it. Consumption
// stays multi-consumer: a dry owner steals single tasks, oldest first,
// from the lowest nonempty site of a victim lane (randomized two-choice
// selection by estimated load, then a deterministic sweep so
// provably-present work is never missed), and only after several dry
// rounds does it sleep.
//
// Steal protocol and memory orders:
//  * Payload publication: Vyukov cell-sequence release/acquire in the
//    rings; the spill deques under their per-site mutex. There is no
//    separate depth word — a task is "in the queue" exactly when its
//    cell sequence (or spill slot) says so, so emptiness probes and
//    the kill-token check sweep the cursors instead of trusting a
//    counter that could run ahead of the payload.
//  * Depth accounting: three monotonic per-lane counters
//    (pushed/popped_own/popped_stolen). The first two are
//    single-writer (the lane's one producer and owner) — plain
//    load+store, no lock prefix; popped_stolen is an RMW on the steal
//    path only. depth() and stats() are sums, exact at quiescence.
//  * Sleeper handshake (Dekker): a pusher that may need to wake a
//    server publishes the payload, then issues a seq_cst fence, then
//    reads sleepers_; a sleeper registers in sleepers_ (seq_cst RMW,
//    under wait_mu_) and then re-sweeps every ring/spill before
//    waiting. Either the pusher sees the registration and notifies
//    (at most one) under the mutex, or the sleeper's sweep sees the
//    published payload and skips the wait.
//  * Wake throttle: an owner that also consumes its lane skips the
//    fence/notify entirely when its lane depth after the push is 1 —
//    the producer is the next consumer, so there is nothing for a
//    thief to do (the classic work-stealing wake rule). Surplus
//    pushes (lane depth > 1) and pushes to a lane nobody has popped
//    yet (a seeding caller's) always go through the handshake.
//    The bounded 100 ms sleep slice is the liveness backstop if a
//    consuming owner stalls mid-chain.

class WorkStealingTaskQueues {
 public:
  /// Per lane-site ring slots; a site that outgrows them spills.
  static constexpr std::size_t kRingCapacity = 512;

  /// `lanes` is the number of lane indices callers will pass to push
  /// and pop. CriRun passes its server count S: lane i for server i,
  /// with the caller seeding the initial task into lane 0.
  WorkStealingTaskQueues(std::size_t num_sites, std::size_t lanes)
      : nsites_(num_sites == 0 ? 1 : num_sites) {
    const std::size_t nlanes = lanes == 0 ? 1 : lanes;
    lanes_.reserve(nlanes);
    for (std::size_t i = 0; i < nlanes; ++i)
      lanes_.push_back(std::make_unique<Lane>(nsites_));
  }

  WorkStealingTaskQueues(const WorkStealingTaskQueues&) = delete;
  WorkStealingTaskQueues& operator=(const WorkStealingTaskQueues&) = delete;

  /// Enqueue at a call site of lane `lane_index`, whose only producer
  /// the caller must be. Returns the lane's depth after the push (the
  /// affinity-local observability sample — the depth a server's own
  /// backlog has grown to). Fast path: one SP ring append (no CAS, no
  /// fence) plus plain single-writer counters — when the lane's owner
  /// also consumes it and this task is its only backlog, the push
  /// executes zero lock-prefixed instructions.
  std::size_t push(std::size_t lane_index, std::size_t site, TaskArgs args) {
    if (FaultInjector::instance().check(
            FaultInjector::Site::kQueuePush)) {
      // Injected spurious wakeup for any sleeping server.
      std::lock_guard<std::mutex> g(wait_mu_);
      wait_cv_.notify_all();
    }
    if (site >= nsites_)
      throw sexpr::LispError("cri: call-site index out of range");
    Lane& lane = *lanes_[lane_index];
    LaneSite& s = *lane.sites[site];
    // SP append unless the site has spilled items — ring items must
    // stay older than spill items so per-site FIFO survives an
    // overflow episode.
    if (s.spill_count.load(std::memory_order_acquire) != 0 ||
        !s.ring.try_push_sp(std::move(args))) {
      std::lock_guard<std::mutex> g(s.mu);
      if (!(s.spill.empty() && s.ring.try_push_sp(std::move(args)))) {
        s.spill.push_back(std::move(args));
        s.spill_count.store(s.spill.size(), std::memory_order_release);
        spill_pushes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Single-writer counter: plain load+store, no lock prefix.
    lane.pushed.store(lane.pushed.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);

    // Lane depth after the push, from the monotonic counters. A stale
    // popped_stolen can only make the depth look larger, which errs
    // toward a spurious notify below, never a missed one.
    const std::int64_t d = lane_depth(lane);
    const std::size_t total = d > 0 ? static_cast<std::size_t>(d) : 1;
    std::size_t m = lane.max_depth.load(std::memory_order_relaxed);
    if (total > m)
      lane.max_depth.store(total, std::memory_order_relaxed);

    // Wake throttle: when the lane's owner consumes it and this task
    // is its only backlog, the producer is the next consumer — skip
    // the handshake entirely (no fence, no sleeper check). Any surplus
    // task, any push to a lane nobody pops, and every task of a
    // work-first run (a tail, which its producer is busy not running)
    // must offer itself to a thief: publish-then-fence, then read the
    // sleeper count (Dekker with the sleeper's registration RMW +
    // re-sweep), waking at most one.
    if (work_first_.load(std::memory_order_relaxed) ||
        !lane.owner_consumes.load(std::memory_order_relaxed) || d > 1) {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (sleepers_.load(std::memory_order_relaxed) > 0) {
        notify_sent_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> g(wait_mu_);
        wait_cv_.notify_one();
      }
    }
    return total;
  }

  /// Block for the next task (lane `lane_index`'s lowest site first,
  /// then steal); nullopt when the queues are closed and empty — the
  /// kill token. The caller must be that lane's producer.
  std::optional<TaskArgs> pop(std::size_t lane_index,
                              std::size_t* site_out = nullptr) {
    const std::size_t home = lane_index;
    const std::size_t nlanes = lanes_.size();
    Lane& own = *lanes_[home];
    if (!own.owner_consumes.load(std::memory_order_relaxed))
      own.owner_consumes.store(true, std::memory_order_relaxed);
    std::size_t dry_rounds = 0;
    bool desperate = false;
    // Exponential sleep slice: the first park is short so a desperate
    // steal rescues a task stranded on a stalled owner's lane within
    // ~1 ms (a single chain with a long tail migrates almost
    // immediately), then doubles toward the 100 ms cap while this
    // sleeper keeps waking to nothing — steal-back churn on a hot
    // owner decays instead of recurring every slice.
    auto slice = std::chrono::milliseconds(1);
    constexpr auto kMaxSlice = std::chrono::milliseconds(100);
    for (;;) {
      // Own lane first, lowest site first. Owner takes are the
      // single-writer counter.
      std::optional<TaskArgs> t = take_from_lane(own, site_out);
      if (t) {
        own.popped_own.store(
            own.popped_own.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        return t;
      }
      if (nlanes > 1) {
        // Steal round. The fault site fires here — before any victim
        // is probed — so chaos runs can delay or abort exactly the
        // cross-lane path; it never fires on the owner fast path (a
        // single-lane queue never steals).
        if (FaultInjector::instance().check(
                FaultInjector::Site::kQueueSteal)) {
          std::lock_guard<std::mutex> g(wait_mu_);
          wait_cv_.notify_all();  // injected spurious wakeup
        }
        // Two-choice probe, then a deterministic sweep so work that
        // provably exists is never missed (drain-after-close and the
        // kill-token check both rely on scan completeness). Both
        // passes honor the steal-affinity rule.
        std::size_t victim = pick_victim(home);
        if (steal_ok(*lanes_[victim], desperate))
          t = take_from_lane(*lanes_[victim], site_out);
        for (std::size_t k = 1; !t && k < nlanes; ++k) {
          victim = (home + k) % nlanes;
          if (victim != home && steal_ok(*lanes_[victim], desperate))
            t = take_from_lane(*lanes_[victim], site_out);
        }
        if (t) {
          lanes_[victim]->popped_stolen.fetch_add(
              1, std::memory_order_relaxed);
          steals_.fetch_add(1, std::memory_order_relaxed);
          return t;
        }
      }
      desperate = false;
      // A full round (own lane + every victim) came up dry. The round
      // itself is the emptiness observation — there is no depth word
      // to consult; a task exists exactly when its ring cell or spill
      // slot says so.
      if (closed_.load(std::memory_order_seq_cst)) {
        // Kill-token verification: anything pushed before close() is
        // published before the closed_ store we just acquired, so one
        // more sweep after observing the flag either finds it or
        // proves the queue empty. (Pushes racing close() may be
        // dropped, but nothing published happens-before close is ever
        // abandoned.)
        if (!sweep_nonempty()) return std::nullopt;
        continue;
      }
      if (++dry_rounds < kDryRoundsBeforeSleep) {
        // Sleep throttle: several dry scan+steal rounds before paying
        // the futex — a busy neighbor usually refills within a round.
        std::this_thread::yield();
        continue;
      }
      dry_rounds = 0;
      // Sleep protocol: register, then re-check. A pusher that may
      // need a thief (a surplus task, or any push to a lane nobody
      // pops) publishes the payload, fences seq_cst, then reads
      // sleepers_; our registration is a seq_cst RMW, so either the
      // pusher sees it and notifies under wait_mu_, or this re-check
      // sees the payload and we skip the wait — no lost wakeup on
      // that path. The re-check is takeable_now, not a bare sweep:
      // it mirrors exactly what a non-desperate round may take, so a
      // consuming owner's depth-1 task (whose push skipped the
      // handshake by design) does not keep thieves spinning awake.
      // Its liveness backstop is the owner's own progress plus the
      // bounded slice below — after which we run one desperate round.
      std::unique_lock<std::mutex> lk(wait_mu_);
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      if (!takeable_now(home)) {
        sleeps_.fetch_add(1, std::memory_order_relaxed);
        // Park hook: a sleeping server is at a quiescent point (the
        // values it will consume on wake are still queue-rooted), so
        // it releases its GC unsafe region for the duration. Bounded
        // slice: push()/close() still wake us immediately; the
        // timeout both bounds how long a cancelled server stays
        // parked before its serve loop re-checks the token and is
        // the wake-of-last-resort for throttled owner pushes.
        const std::size_t gcd = gc_ ? gc_->blocking_release() : 0;
        wait_cv_.wait_for(lk, slice);
        if (slice < kMaxSlice) slice *= 2;
        if (gcd != 0) {
          // Re-enter outside wait_mu_: reacquire may block on a
          // stop-the-world, and nobody should hold queue locks then.
          lk.unlock();
          gc_->blocking_reacquire(gcd);
          lk.lock();
        }
        // We paid the futex; the next round ignores the affinity
        // rule so a task parked on a stalled owner's lane is picked
        // up within one sleep slice.
        desperate = true;
      }
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  void close() {
    closed_.store(true, std::memory_order_seq_cst);
    std::lock_guard<std::mutex> g(wait_mu_);
    wait_cv_.notify_all();
  }

  bool closed() const { return closed_.load(std::memory_order_seq_cst); }

  /// A work-first head loop is running. From then on the steal-affinity
  /// rule and the wake throttle are off for this queue: its lanes hold
  /// tails, which nothing waits on, not chain successors.
  void mark_work_first() {
    work_first_.store(true, std::memory_order_relaxed);
  }

  /// True when lane `lane_index`'s ring for `site` has no free cell, so
  /// the next push there would spill. Call as that lane's producer.
  bool ring_full(std::size_t lane_index, std::size_t site) const {
    const LaneSite& s = *lanes_[lane_index]->sites[site];
    return s.spill_count.load(std::memory_order_acquire) != 0 ||
           s.ring.full_sp();
  }

  /// Total queued tasks right now (sum of the per-lane monotonic
  /// counters; exact when quiescent). A racy snapshot can transiently
  /// dip below zero (a take observed before its push); clamp.
  std::size_t depth() const {
    std::int64_t d = 0;
    for (const auto& lp : lanes_) d += lane_depth(*lp);
    return d > 0 ? static_cast<std::size_t>(d) : 0;
  }

  /// High-water mark of a single lane's backlog (§4.1: with a single
  /// call site the queue never grows beyond its initial length). With
  /// one lane in use this equals the total-depth high-water; with
  /// several it is a per-server measure — the backlog any one server
  /// accumulated — and approximate while thieves race the owner.
  std::size_t max_length() const {
    std::size_t m = 0;
    for (const auto& lp : lanes_)
      m = std::max(m, lp->max_depth.load(std::memory_order_relaxed));
    return m;
  }

  std::size_t sites() const { return nsites_; }

  /// Exact at any quiescent point; derived fields can lag by in-flight
  /// operations mid-run. Keeping the derivable counters (pops, skipped
  /// notifies) off the hot path keeps its RMW count down.
  QueueStats stats() const {
    QueueStats st;
    for (const auto& lp : lanes_) {
      st.pushes += lp->pushed.load(std::memory_order_relaxed);
      st.pops += lp->popped_own.load(std::memory_order_relaxed) +
                 lp->popped_stolen.load(std::memory_order_relaxed);
    }
    st.notify_sent = notify_sent_.load(std::memory_order_relaxed);
    st.notify_suppressed =
        st.pushes - std::min<std::uint64_t>(st.pushes, st.notify_sent);
    st.spill_pushes = spill_pushes_.load(std::memory_order_relaxed);
    st.sleeps = sleeps_.load(std::memory_order_relaxed);
    st.steals = steals_.load(std::memory_order_relaxed);
    return st;
  }

  /// Let blocked pops release their GC unsafe region while sleeping.
  void attach_gc(gc::GcHeap* gc) { gc_ = gc; }

  /// Visit every pending task's argument vector (per lane, per site:
  /// ring then spill, oldest first). Collector-only, world stopped.
  template <typename Fn>
  void for_each_task(Fn&& fn) const {
    for (const auto& lp : lanes_) {
      for (const auto& sp : lp->sites) {
        sp->ring.for_each(fn);
        std::lock_guard<std::mutex> g(sp->mu);
        for (const TaskArgs& t : sp->spill) fn(t);
      }
    }
  }

 private:
  static constexpr std::size_t kDryRoundsBeforeSleep = 4;

  struct LaneSite {
    SpmcRing<TaskArgs> ring{kRingCapacity};
    std::atomic<std::size_t> spill_count{0};
    std::mutex mu;  ///< guards spill
    std::deque<TaskArgs> spill;
  };

  struct alignas(64) Lane {
    explicit Lane(std::size_t nsites) {
      sites.reserve(nsites);
      for (std::size_t i = 0; i < nsites; ++i)
        sites.push_back(std::make_unique<LaneSite>());
    }
    std::vector<std::unique_ptr<LaneSite>> sites;
    /// Set by the first pop on this lane — distinguishes
    /// a server (producer-is-next-consumer, wake throttle applies) from
    /// a lane nobody has popped yet, like lane 0 holding the seed
    /// (whose push always runs the sleeper handshake, and which any
    /// server may take). Written and read by the owner only.
    std::atomic<bool> owner_consumes{false};
    /// Monotonic depth counters, padded off the sites vector so
    /// stats() reads don't bounce the owner's hot line. pushed and
    /// popped_own are single-writer (the owner) — plain load+store;
    /// popped_stolen is an RMW by thieves, on its own line.
    alignas(64) std::atomic<std::uint64_t> pushed{0};
    std::atomic<std::uint64_t> popped_own{0};
    std::atomic<std::size_t> max_depth{0};
    alignas(64) std::atomic<std::uint64_t> popped_stolen{0};
  };

  /// Racy lane backlog from the monotonic counters (exact when
  /// quiescent; clamped by callers where a transient negative racy
  /// snapshot matters).
  static std::int64_t lane_depth(const Lane& lane) {
    return static_cast<std::int64_t>(
               lane.pushed.load(std::memory_order_relaxed)) -
           static_cast<std::int64_t>(
               lane.popped_own.load(std::memory_order_relaxed) +
               lane.popped_stolen.load(std::memory_order_relaxed));
  }

  /// Take the oldest task of one site: the ring (older — owner pushes
  /// gate to the spill while it is nonempty), then the spill. Nothing
  /// refills the ring from the spill: its producer side belongs to the
  /// lane owner alone.
  static bool take_from_site(LaneSite& s, TaskArgs& out) {
    if (s.ring.try_pop(out)) return true;
    if (s.spill_count.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard<std::mutex> g(s.mu);
    if (s.ring.try_pop(out)) return true;
    if (s.spill.empty()) return false;
    out = std::move(s.spill.front());
    s.spill.pop_front();
    s.spill_count.store(s.spill.size(), std::memory_order_release);
    return true;
  }

  /// The oldest task of one lane's lowest nonempty site.
  static std::optional<TaskArgs> take_from_lane(Lane& lane,
                                                std::size_t* site_out) {
    TaskArgs t;
    for (std::size_t i = 0; i < lane.sites.size(); ++i) {
      if (take_from_site(*lane.sites[i], t)) {
        if (site_out) *site_out = i;
        return t;
      }
    }
    return std::nullopt;
  }

  /// Racy per-lane load estimate for victim selection (four relaxed
  /// loads — no ring-cursor traffic).
  static std::size_t lane_load(const Lane& lane) {
    const std::int64_t d = lane_depth(lane);
    return d > 0 ? static_cast<std::size_t>(d) : 0;
  }

  /// One lane's cursor-level emptiness probe.
  static bool lane_nonempty(const Lane& lane) {
    for (const auto& sp : lane.sites) {
      if (!sp->ring.probably_empty() ||
          sp->spill_count.load(std::memory_order_acquire) != 0)
        return true;
    }
    return false;
  }

  /// Steal-affinity rule: a spin-phase thief may rob a victim only
  /// when the work is *surplus* — the victim's owner has more backlog
  /// than it can consume next (load ≥ 2), or the lane is a mailbox (no
  /// owner has popped it yet: the seed a caller left in lane 0). A
  /// consuming owner's single in-flight task is left
  /// alone even while that owner is descheduled; robbing it would just
  /// migrate the chain and strand the owner (the churn that time-
  /// sliced hosts otherwise exhibit). Desperate rounds — the first
  /// round after any sleep, and everything after close() — ignore the
  /// rule, which bounds a stalled owner's parked task by the sleep
  /// slice. So does a work-first run: its lanes hold only tails (and
  /// the seed), any of which any server may take at any depth.
  bool steal_ok(const Lane& lane, bool desperate) const {
    return desperate || closed_.load(std::memory_order_relaxed) ||
           work_first_.load(std::memory_order_relaxed) ||
           !lane.owner_consumes.load(std::memory_order_relaxed) ||
           lane_load(lane) >= 2;
  }

  /// Pre-sleep check, mirroring exactly what a non-desperate round can
  /// take: something in the caller's own lane, anything once closed,
  /// or stealable (surplus/mailbox) work elsewhere. Sleeping is wrong
  /// while any of those exist; a throttled depth-1 chain task parked
  /// elsewhere is *not* a reason to stay awake — its owner, or our
  /// next timeout's desperate round, will take it.
  bool takeable_now(std::size_t home) const {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const Lane& lane = *lanes_[i];
      if (!lane_nonempty(lane)) continue;
      if (i == home || steal_ok(lane, /*desperate=*/false)) return true;
    }
    return closed_.load(std::memory_order_seq_cst);
  }

  /// One acquire-probe pass over every lane × site: true iff some ring
  /// cell is published or some spill is nonempty. This is the
  /// authoritative emptiness check — publication is the count — used
  /// by the sleeper re-check and the kill-token verification sweep.
  bool sweep_nonempty() const {
    for (const auto& lp : lanes_) {
      for (const auto& sp : lp->sites) {
        if (!sp->ring.probably_empty() ||
            sp->spill_count.load(std::memory_order_acquire) != 0)
          return true;
      }
    }
    return false;
  }

  static std::uint64_t tls_rng() {
    thread_local std::uint64_t x =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  /// Randomized two-choice victim selection: draw two lanes other than
  /// `home`, probe the one with the larger estimated load.
  std::size_t pick_victim(std::size_t home) const {
    const std::size_t nlanes = lanes_.size();  // caller ensures > 1
    const std::uint64_t r = tls_rng();
    std::size_t a = static_cast<std::size_t>(r % (nlanes - 1));
    if (a >= home) ++a;
    std::size_t b = static_cast<std::size_t>((r >> 32) % (nlanes - 1));
    if (b >= home) ++b;
    return lane_load(*lanes_[a]) >= lane_load(*lanes_[b]) ? a : b;
  }

  std::size_t nsites_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  // The only cross-lane flags; cold. There is no shared hot word at
  // all — every fast-path byte a push or pop touches is lane-local.
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<bool> work_first_{false};  ///< a head loop has run

  // Sleeper handshake (cold path only).
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  std::atomic<int> sleepers_{0};

  // Stats (relaxed; snapshot via stats()). None are touched on the
  // owner fast path — the hot counters live per lane.
  std::atomic<std::uint64_t> notify_sent_{0}, spill_pushes_{0}, sleeps_{0},
      steals_{0};

  gc::GcHeap* gc_ = nullptr;
};

/// The scheduler the server pool runs on.
using OrderedTaskQueues = WorkStealingTaskQueues;

}  // namespace curare::runtime
