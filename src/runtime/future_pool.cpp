#include "runtime/future_pool.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "runtime/fault_injector.hpp"
#include "runtime/resilience.hpp"

namespace curare::runtime {

FuturePool::FuturePool(obs::Recorder& rec, std::size_t workers)
    : rec_(rec),
      spawned_ctr_(rec.metrics.counter("future.spawned")),
      touches_(rec.metrics.counter("future.touches")),
      touch_waits_(rec.metrics.counter("future.touch_waits")),
      helped_(rec.metrics.counter("future.helped")),
      wait_ns_(rec.metrics.histogram("future.wait_ns")) {
  if (workers == 0) {
    workers = std::max(2u, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

FuturePool::~FuturePool() {
  {
    std::lock_guard<std::mutex> g(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // The workers are gone: any thread still blocked in touch() on an
  // unresolved future would now wait forever — wake it into a throw.
  abort_waiters();
  // Unregister only after the workers are gone: tasks draining during
  // shutdown still rely on the pool's roots.
  if (gc::GcHeap* gc = gc_.load(std::memory_order_acquire))
    gc->remove_root_source(this);
}

void FuturePool::attach_gc(gc::GcHeap* gc) {
  gc_.store(gc, std::memory_order_release);
  if (gc != nullptr) gc->add_root_source(this);
}

void FuturePool::gc_roots(std::vector<Value>& out) {
  std::lock_guard<std::mutex> g(mu_);
  for (const Task& t : queue_) out.push_back(t.root);
  for (Value v : in_flight_) out.push_back(v);
  std::erase_if(states_, [](const std::weak_ptr<FutureState>& w) {
    return w.expired();
  });
  for (const auto& w : states_) {
    if (auto s = w.lock()) {
      std::lock_guard<std::mutex> sg(s->mu);
      out.push_back(s->value);
    }
  }
}

void FuturePool::abort_waiters() {
  aborted_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& w : states_) {
    if (auto s = w.lock()) {
      // Take the state's mutex before notifying: a toucher between its
      // predicate check and its wait must not miss the signal.
      std::lock_guard<std::mutex> sg(s->mu);
      s->cv.notify_all();
    }
  }
}

std::shared_ptr<FutureState> FuturePool::spawn(std::function<Value()> fn,
                                               Value root) {
  FaultInjector::instance().check(FaultInjector::Site::kFutureSpawn);
  auto state = std::make_shared<FutureState>();
  const std::uint64_t id =
      spawned_.fetch_add(1, std::memory_order_relaxed);
  const CancelState* tok = current_cancel();
  const std::int64_t deadline_ns =
      tok != nullptr ? tok->chain_deadline_ns() : 0;
  {
    std::lock_guard<std::mutex> g(mu_);
    queue_.push_back(Task{std::move(fn), state, id, root,
                          obs::current_request(), deadline_ns});
    states_.push_back(state);
    // Lazy compaction keeps the registry proportional to live futures.
    if (states_.size() >= 1024) {
      std::erase_if(states_, [](const std::weak_ptr<FutureState>& w) {
        return w.expired();
      });
    }
  }
  spawned_ctr_.add();
  rec_.tracer.instant(obs::EventKind::kFutureSpawn, id);
  cv_.notify_one();
  return state;
}

void FuturePool::run_task(Task& t) {
  // The whole execution is one unsafe region: the result Value must
  // not be collectible between t.fn() returning and the state store.
  std::optional<gc::MutatorScope> ms;
  if (gc::GcHeap* gc = gc_.load(std::memory_order_acquire))
    ms.emplace(*gc);
  const std::uint64_t t0 = rec_.tracer.now_ns();
  // Attribute the body to the spawning request (helpers in touch()
  // temporarily adopt the task's request, restoring their own after).
  obs::RequestScope req_scope(t.req_ctx);
  // Bound the body by its spawner's deadline. Chained under this
  // thread's own token (a touch helper's), which outlives the body.
  std::optional<CancelState> tok;
  if (t.deadline_ns != 0) {
    tok.emplace();
    tok->set_deadline_ns(t.deadline_ns);
    tok->set_parent(current_cancel());
  }
  CancelScope cancel_scope(tok ? &*tok : nullptr);
  Value v;
  std::exception_ptr err;
  try {
    FaultInjector::instance().check(FaultInjector::Site::kTaskRun);
    v = t.fn();
  } catch (...) {
    err = std::current_exception();
  }
  rec_.tracer.span(obs::EventKind::kFutureRun, t0, t.id);
  {
    std::lock_guard<std::mutex> g(t.state->mu);
    t.state->value = v;
    t.state->error = err;
    t.state->done = true;
  }
  t.state->cv.notify_all();
}

bool FuturePool::run_one_task() {
  // Callers (touch helpers) are already inside an unsafe region; this
  // scope makes the invariant local: a task is popped only by a thread
  // the collector will wait for, so its root hand-off from queue_ to
  // in_flight_ (one mu_ critical section) is never observable halfway.
  std::optional<gc::MutatorScope> ms;
  if (gc::GcHeap* gc = gc_.load(std::memory_order_acquire))
    ms.emplace(*gc);
  Task t;
  std::list<Value>::iterator root_it;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (queue_.empty()) return false;
    t = std::move(queue_.front());
    queue_.pop_front();
    in_flight_.push_front(t.root);
    root_it = in_flight_.begin();
  }
  run_task(t);
  {
    std::lock_guard<std::mutex> g(mu_);
    in_flight_.erase(root_it);
    if (queue_.empty() && in_flight_.empty()) idle_cv_.notify_all();
  }
  return true;
}

void FuturePool::wait_idle() {
  // A waiter may sit here across a collection (another thread's task
  // may be what drains the queue), so release any unsafe region the
  // caller holds — mirror of the scheduler's blocking waits. The
  // wait_for slice is the usual cancellation backstop: a session drain
  // with a fired token must not hang on an orphaned future.
  gc::GcHeap* gc = gc_.load(std::memory_order_acquire);
  const std::size_t depth = gc != nullptr ? gc->blocking_release() : 0;
  try {
    std::unique_lock<std::mutex> g(mu_);
    while (!(queue_.empty() && in_flight_.empty())) {
      poll_cancellation();
      idle_cv_.wait_for(g, std::chrono::milliseconds(50), [this] {
        return queue_.empty() && in_flight_.empty();
      });
    }
  } catch (...) {
    if (gc != nullptr) gc->blocking_reacquire(depth);
    throw;
  }
  if (gc != nullptr) gc->blocking_reacquire(depth);
}

void FuturePool::worker_loop(std::size_t worker_index) {
  rec_.tracer.name_thread("future-worker-" + std::to_string(worker_index));
  for (;;) {
    // Between tasks is a quiescent point for this worker.
    if (gc::GcHeap* gc = gc_.load(std::memory_order_acquire))
      gc->maybe_collect();
    {
      std::unique_lock<std::mutex> g(mu_);
      cv_.wait(g, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with drained queue
    }
    // Re-pop inside an unsafe region (run_one_task) so the task is
    // never held outside both the queue and an unsafe region; a helper
    // may have raced us to it, in which case we just loop.
    run_one_task();
  }
}

Value FuturePool::touch(const std::shared_ptr<FutureState>& f) {
  touches_.add();
  // Help-first waiting: executing queued tasks while the target is
  // unresolved keeps a bounded pool deadlock-free even when futures
  // depend on queued futures.
  bool waited = false;
  std::uint64_t wait_start = 0, helped = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> g(f->mu);
      if (!f->done && !waited) {
        waited = true;
        wait_start = rec_.tracer.now_ns();
        touch_waits_.add();
      }
      if (f->done) {
        if (waited) {
          const std::uint64_t end = rec_.tracer.now_ns();
          wait_ns_.observe(end > wait_start ? end - wait_start : 0);
          helped_.add(helped);
          rec_.tracer.emit(obs::EventKind::kFutureTouchWait, wait_start,
                           end > wait_start ? end - wait_start : 0, 0,
                           helped);
        }
        if (f->error) std::rethrow_exception(f->error);
        return f->value;
      }
    }
    if (run_one_task()) {
      ++helped;
    } else {
      // Nothing left to help with: the target was already dequeued (a
      // task is pushed exactly once, before it can resolve), so some
      // thread is executing it and will notify f->cv on completion —
      // unless that thread died with the pool (abort_waiters) or this
      // thread's run was cancelled. Both exits are checked each slice;
      // the timeout is only their backstop, a completion notify still
      // ends the wait immediately.
      poll_cancellation();
      std::unique_lock<std::mutex> g(f->mu);
      if (aborted_.load(std::memory_order_acquire) && !f->done) {
        throw sexpr::LispError(
            "touch of an unresolved future after its pool shut down");
      }
      f->cv.wait_for(g,
                     current_cancel() != nullptr
                         ? std::chrono::milliseconds(10)
                         : std::chrono::milliseconds(250),
                     [&] {
                       return f->done ||
                              aborted_.load(std::memory_order_acquire);
                     });
    }
  }
}

}  // namespace curare::runtime
