// Multilisp-style futures on a fixed worker pool (paper §3.1).
//
// "If the spawning process is not strict in its use of the result (e.g.,
// it stores the result in a data structure rather than looking at its
// value), then a Multilisp future provides process creation and
// synchronization features that permit concurrent execution."
//
// The pool has a fixed number of workers — the paper is explicit that
// processes are NOT a free and infinite resource (§1.2), contra
// Multilisp. `touch` on an unresolved future helps by executing queued
// tasks instead of blocking, so a bounded pool can never deadlock on
// future dependencies.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gc/gc.hpp"
#include "obs/recorder.hpp"
#include "obs/request.hpp"
#include "sexpr/value.hpp"

namespace curare::runtime {

using sexpr::Value;

/// Shared state of one future. Heap-resident via FutureObj so Lisp code
/// can store futures in structures.
struct FutureState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Value value;
  std::exception_ptr error;
};

/// The heap object a Lisp program sees (Kind::Native).
struct FutureObj final : sexpr::Obj {
  explicit FutureObj(std::shared_ptr<FutureState> s)
      : Obj(sexpr::Kind::Native), state(std::move(s)) {}

  void gc_trace(sexpr::GcVisitor& g) const override {
    // done/value are written under state->mu; traced only while the
    // world is stopped, so every resolver is parked or quiescent.
    g.visit(state->value);
  }

  const std::shared_ptr<FutureState> state;
};

class FuturePool : public gc::RootSource {
 public:
  /// Starts `workers` threads (hardware concurrency if 0), recording
  /// spawn/run/touch-wait events and wait-time metrics into `rec`.
  explicit FuturePool(obs::Recorder& rec, std::size_t workers = 0);
  ~FuturePool() override;
  FuturePool(const FuturePool&) = delete;
  FuturePool& operator=(const FuturePool&) = delete;

  /// Submit a computation; returns its future state. `root` is a Value
  /// (typically the thunk closure) that must stay reachable until the
  /// task has run; the pool roots it while the task is queued or
  /// executing. The task inherits the deadline of the calling thread's
  /// CancelState, if any.
  std::shared_ptr<FutureState> spawn(std::function<Value()> fn,
                                     Value root = Value::nil());

  /// Block until the future resolves, helping with queued tasks while
  /// waiting. Rethrows the task's exception, if any. Throws StallError
  /// if the calling thread's CancelState fires while blocked, and
  /// LispError if the pool shuts down while the future is unresolved
  /// (instead of hanging on a cv no worker will ever signal).
  Value touch(const std::shared_ptr<FutureState>& f);

  /// Wake every blocked toucher and make unresolved touches throw.
  /// Called by the destructor after the workers are joined; also
  /// callable by tests/harnesses to flush stuck waiters.
  void abort_waiters();

  /// Tasks queued but not yet started (diagnostics).
  std::size_t pending_tasks() const {
    std::lock_guard<std::mutex> g(mu_);
    return queue_.size();
  }

  /// Block until no task is queued or executing. A departing serving
  /// session calls this before destroying its interpreter: tasks it
  /// spawned capture that interpreter by reference, so they must all
  /// have finished first. Honors the calling thread's CancelState
  /// (throws StallError if it fires mid-wait).
  void wait_idle();

  /// Participate in collections: queued/in-flight task roots and every
  /// live future's resolved value (a future dropped by the program
  /// stops pinning its value as soon as its state expires).
  void attach_gc(gc::GcHeap* gc);
  void gc_roots(std::vector<Value>& out) override;

  std::size_t workers() const { return threads_.size(); }
  std::uint64_t spawned() const {
    return spawned_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<Value()> fn;
    std::shared_ptr<FutureState> state;
    std::uint64_t id = 0;  ///< spawn ordinal, for trace correlation
    Value root;            ///< kept reachable until the task has run
    /// The serving request that spawned the future; the executing
    /// worker installs it so the task's spans/lock waits attribute to
    /// that request even after its socket frame has been answered.
    std::shared_ptr<obs::RequestContext> req_ctx;
    /// The spawner's deadline (CancelState::chain_deadline_ns), 0 for
    /// none. The executing thread runs the task under a token armed
    /// with it, so a run started inside a future stays bounded by the
    /// deadline of the CLI line or request that spawned it.
    std::int64_t deadline_ns = 0;
  };

  void worker_loop(std::size_t worker_index);
  bool run_one_task();
  void run_task(Task& t);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Signalled when the pool goes idle (queue and in-flight both
  /// empty); wait_idle() parks here.
  std::condition_variable idle_cv_;
  std::deque<Task> queue_;
  /// Roots of tasks popped but not yet finished. The pop and the
  /// insertion here happen in one mu_ critical section, so the
  /// collector's snapshot (also under mu_) never sees a task in
  /// neither place.
  std::list<Value> in_flight_;
  /// Every future ever spawned (weak); compacted lazily. Roots the
  /// resolved values of futures the program still holds.
  std::vector<std::weak_ptr<FutureState>> states_;
  bool shutdown_ = false;
  /// Set by abort_waiters(): touches of unresolved futures now throw.
  std::atomic<bool> aborted_{false};
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> spawned_{0};

  /// Atomic because attach_gc runs after the constructor has already
  /// started the workers, which read this pointer between tasks.
  std::atomic<gc::GcHeap*> gc_{nullptr};
  obs::Recorder& rec_;
  // Resolved once at construction so touch()/spawn() never pay the
  // metrics-registry lookup.
  obs::Counter& spawned_ctr_;
  obs::Counter& touches_;
  obs::Counter& touch_waits_;
  obs::Counter& helped_;
  obs::Histogram& wait_ns_;
};

}  // namespace curare::runtime
