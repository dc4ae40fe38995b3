// The CRI server pool (paper §4).
//
// "Because every transaction executes an identical function body, we can
// have a collection of servers that repeatedly execute this piece of
// code. Each server only needs to obtain the arguments to an invocation
// to begin executing a new task. It does not need to execute a process
// context switch."
//
// The abstract server model of §4.1:
//
//     while ¬ *recursion-done* do
//        dequeue parameters;
//        {body of f}
//     end
//
// CriRun realizes it: S server threads loop dequeue→apply on a
// transformed function whose recursive calls were rewritten to
// (%cri-enqueue site args…). Termination: a pending-task counter
// (enqueue +1, completion −1, initial call = 1) closes the queues at
// zero — the invocation that terminates the recursion effectively
// "enqueues tokens that kill the other servers".
//
// The server threads come from ServerPool, a process-wide set of
// threads reused across runs, and a server's per-task path writes only
// its own cache lines: counters live in per-server slots summed at join.
//
// Work-first runs (transform/cri.hpp). A head loop calls (%cri-tail
// f$tail args…) once per invocation instead of enqueueing its
// successor. The server collects those tails into a batch of g and
// pushes the batch as one task onto its own lane, where any server may
// steal it; once the lane's ring is full it runs the batch itself. g
// starts at 1 and then follows the run's measured handoff latency q
// (push → start of a batch) against its mean tail time t: g = ⌈q/t⌉,
// at most kMaxBatch. %cri-tail is also the head loop's GC safepoint,
// its cancellation poll and the stall check's progress signal.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gc/gc.hpp"
#include "lisp/interp.hpp"
#include "obs/recorder.hpp"
#include "obs/request.hpp"
#include "runtime/resilience.hpp"
#include "runtime/task_queue.hpp"

namespace curare::runtime {

struct CriStats {
  /// Invocations started: tasks run on the enqueue path; one per
  /// head-loop iteration on the work-first path.
  std::uint64_t invocations = 0;
  std::size_t max_queue_length = 0;
  std::size_t servers = 0;
  /// Value delivered by %cri-finish (any-result searches, §3.2.3);
  /// nil when the recursion ran to completion.
  sexpr::Value result;
  bool finished_early = false;
  /// Scheduler internals for the run (work-stealing queue counters:
  /// notify throttling, ring overflow, actual sleeps, steals).
  QueueStats queue;

  // ---- measured aggregates (from the run's Recorder) ----
  std::uint64_t wall_ns = 0;      ///< run() start → all servers joined
  /// %cri-enqueue and %cri-tail calls: invocations started by a
  /// recursive call (the initial one excluded).
  std::uint64_t enqueues = 0;
  /// Σ over invocations of measured head time (task begin → last
  /// enqueue) and tail time (last enqueue → task end). A base case with
  /// no enqueue is all head — the paper's H contains everything not
  /// dominated by a recursive call. On the work-first path head_ns sums
  /// the head loops and tail_ns the tail tasks.
  std::uint64_t head_ns = 0;
  std::uint64_t tail_ns = 0;
  /// The run's heads ran as a loop (work-first form), whether or not
  /// it queued tails.
  bool work_first = false;
  /// No CRI run happened: the f$parallel entry ran the original defun
  /// because the §4.1 model gave one server (Runtime::run_in_parallel).
  /// Every count is then zero.
  bool sequential = false;
  /// Per-server time inside task bodies / blocked in pop().
  std::vector<std::uint64_t> busy_ns;
  std::vector<std::uint64_t> idle_ns;
  /// Bodies each server ran: tasks, plus each tail of a batch.
  std::vector<std::uint64_t> tasks_per_server;

  std::uint64_t busy_ns_total() const {
    return std::accumulate(busy_ns.begin(), busy_ns.end(),
                           std::uint64_t{0});
  }
  std::uint64_t idle_ns_total() const {
    return std::accumulate(idle_ns.begin(), idle_ns.end(),
                           std::uint64_t{0});
  }
  /// Fraction of server-thread time spent inside task bodies.
  double utilization() const {
    const double busy = static_cast<double>(busy_ns_total());
    const double occ = busy + static_cast<double>(idle_ns_total());
    return occ > 0 ? busy / occ : 0.0;
  }
};

/// Per-run abort policy (DESIGN.md §10). Deadlines are not here: they
/// live on the caller's token, which every run chains under.
struct ResilienceConfig {
  /// No-completion window before the joining caller aborts the run
  /// (0 = no stall check).
  std::int64_t stall_ms = 0;
  /// Appended to the run's diagnostic dump (held locks, future-pool
  /// backlog — state the run cannot see itself).
  std::function<std::string()> extra_dump;
  /// Run on a server thread after a body it ran failed: releases the
  /// locks that thread still holds (LockManager::release_thread_holds),
  /// so waiters in this run finish and later runs do not stall.
  std::function<void()> release_locks;
};

/// Process-wide server threads, reused across CRI runs: a run leases S
/// threads, hands each one a server index, and waits for all S to
/// return. Idle threads park on a condition variable outside any GC
/// unsafe region. The pool grows whenever a lease finds too few idle
/// threads, so nested or concurrent runs never wait for one another;
/// threads never exit.
class ServerPool {
 public:
  static ServerPool& instance();
  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  class Lease {
   public:
    Lease(Lease&& o) noexcept
        : pool_(o.pool_), workers_(std::exchange(o.workers_, {})) {}
    Lease& operator=(Lease&&) = delete;
    ~Lease();
    /// Run job(i) on the i-th leased thread for every i, block until
    /// all have returned, and give the threads back before returning.
    /// Rethrows the first exception a job let escape. Call at most once.
    /// A nonzero `tick` wakes the wait every `tick` while jobs are still
    /// running to call on_tick(), with no lock held. An exception from
    /// on_tick() is rethrown only after every job has returned.
    void run(const std::function<void(std::size_t)>& job,
             std::chrono::milliseconds tick = {},
             const std::function<void()>& on_tick = {});

   private:
    friend class ServerPool;
    struct Worker;
    struct Batch;
    Lease(ServerPool& pool, std::vector<Worker*> workers)
        : pool_(&pool), workers_(std::move(workers)) {}
    void give_back();  ///< return the threads to the idle list
    ServerPool* pool_;
    std::vector<Worker*> workers_;
  };

  /// Take `n` idle threads, starting new ones when fewer are idle. May
  /// throw std::system_error (thread creation); then no job has run.
  Lease lease(std::size_t n);

  /// Threads started so far (every one is still alive).
  std::size_t size() const;

 private:
  friend class Lease;
  ServerPool() = default;
  void work(Lease::Worker* w);

  mutable std::mutex mu_;
  std::vector<Lease::Worker*> idle_;
  std::vector<std::unique_ptr<Lease::Worker>> workers_;
};

class CriRun : public gc::RootSource {
 public:
  /// `fn` is the transformed server-body function (a Closure value);
  /// `num_sites` the number of recursive call sites it enqueues to;
  /// `servers` the number of server threads S. The run reports
  /// per-invocation timing, metrics and trace events into `rec`, and
  /// adds a SpeedupReport entry labelled `label`.
  CriRun(lisp::Interp& interp, sexpr::Value fn, std::size_t num_sites,
         std::size_t servers, obs::Recorder& rec, std::string label = {});
  ~CriRun() override;

  /// Execute the recursion started by `initial_args` to completion.
  /// Blocks; rethrows the first body error. Returns the statistics.
  /// Single-shot (§4: one fork-join until the kill token): a CriRun
  /// runs once, so run() takes it as an rvalue.
  CriStats run(TaskArgs initial_args) &&;

  /// Called (via the %cri-enqueue builtin) from this run's server
  /// threads only; each pushes to its own lane.
  void enqueue(std::size_t site, TaskArgs args);

  /// Called (via %cri-tail) from a head loop on one of this run's
  /// servers: a = {f$tail, args…} queues one tail; empty a only marks
  /// an invocation.
  void tail(std::span<const sexpr::Value> a);

  /// Any-result search termination (§3.2.3): deliver a result and kill
  /// the remaining servers. First call wins; later calls are ignored
  /// ("a search can proceed in parallel without the additional
  /// constraint of having to find the same result as a sequential
  /// search").
  void finish(sexpr::Value result);

  /// Install the abort policy for run(). The run's token is chained
  /// under the caller's current token for the duration of the join.
  void set_resilience(ResilienceConfig cfg) { resil_ = std::move(cfg); }

  /// Diagnostic snapshot: servers, pending count, queue depths,
  /// invocation progress, plus the config's extra_dump. Safe from any
  /// thread (atomics + O(1) queue reads only).
  std::string dump_state() const;

  /// Tasks whose bodies finished (successfully or not) — the stall
  /// check's progress signal. Invocations count starts; a wedged body
  /// starts but never completes.
  std::uint64_t completions() const { return sum(&ServerSlot::completions); }

  /// The CriRun the calling server thread is executing for, if any.
  static CriRun* current();

  /// Collector callback (world stopped): the server-body closure, the
  /// early-finish result, the argument Values of every task still
  /// sitting in the site queues, and each server's pending and running
  /// tail batch are live.
  void gc_roots(std::vector<sexpr::Value>& out) override;

  /// Most tails one batch carries.
  static constexpr std::size_t kMaxBatch = 32;

 private:
  struct ServerSlot;
  void serve(std::size_t server_index);
  /// Push the slot's pending batch, or run it here when the lane's ring
  /// is full.
  void flush(ServerSlot& slot);
  /// Run the tails of slot.running; returns how many ran.
  std::size_t run_tails(ServerSlot& slot);
  /// g for the next batch, from the measured q and t.
  std::size_t batch_size() const;

  lisp::Interp& interp_;
  gc::GcHeap& gc_;
  sexpr::Value fn_;
  /// The call sites, then one more site that holds tail batches.
  OrderedTaskQueues queues_;
  std::size_t tail_site_;
  std::size_t servers_;
  /// Tasks enqueued and not yet completed; the seed is the first.
  std::atomic<std::int64_t> pending_{1};
  ResilienceConfig resil_;
  /// This run's cancellation token, chained under the caller's token
  /// for the duration of the join.
  CancelState token_;
  /// The serving request that started this run (run() captures the
  /// caller's context); servers install it so their spans and lock
  /// waits attribute to that request.
  std::shared_ptr<obs::RequestContext> req_ctx_;
  /// Set by finish() and by the first body error: remaining queued
  /// tasks are discarded (with exact pending_ accounting) instead of
  /// executed, so the servers stop promptly and the run terminates.
  std::atomic<bool> stop_{false};

  obs::Recorder& rec_;
  obs::Histogram& qdepth_;  ///< resolved once, merged at join
  std::string label_;

  /// One server's counters, alone on its cache lines: the per-task path
  /// writes only its own slot. The atomics are read while the run is
  /// live (stall check, dump_state); the rest only after the join.
  struct alignas(64) ServerSlot {
    std::atomic<std::uint64_t> invocations{0};
    std::atomic<std::uint64_t> completions{0};
    std::atomic<std::uint64_t> enqueues{0};
    std::uint64_t head_ns = 0;
    std::uint64_t tail_ns = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t idle_ns = 0;
    std::uint64_t tasks = 0;
    std::optional<obs::Histogram::Shard> qdepth;  ///< set by the ctor

    // Work-first state, owner-only except where the collector reads the
    // batches (world stopped). A batch is one TaskArgs:
    // {f$tail, arity, count, push time, args of each tail…}.
    bool work_first = false;  ///< this server ran a head loop
    TaskArgs batch;           ///< tails collected, not yet pushed
    std::size_t batch_size = 1;
    std::size_t flushes = 0;
    std::uint64_t inline_ns = 0;  ///< tails run inside the head task
    TaskArgs running;             ///< the batch this server is running
    /// Read by head loops to size batches (batch_size()).
    std::atomic<std::uint64_t> handoffs{0}, handoff_ns{0}, tails_run{0},
        tails_ns{0};
  };
  std::uint64_t sum(std::atomic<std::uint64_t> ServerSlot::*field) const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < servers_; ++i)
      n += (slots_[i].*field).load(std::memory_order_relaxed);
    return n;
  }
  std::unique_ptr<ServerSlot[]> slots_;  ///< one per server

  std::mutex err_mu_;
  std::exception_ptr first_error_;

  std::mutex result_mu_;
  sexpr::Value result_;
  bool finished_early_ = false;
};

}  // namespace curare::runtime
