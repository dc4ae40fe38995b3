#include "runtime/server_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "runtime/fault_injector.hpp"
#include "runtime/resource.hpp"

namespace curare::runtime {

namespace {
thread_local CriRun* g_current_run = nullptr;
// This thread's server index within g_current_run.
thread_local std::size_t g_server_index = 0;
// Timestamp (Tracer::now_ns) of the serving thread's most recent
// %cri-enqueue inside the current task body; 0 between tasks. This is
// the head/tail boundary: the paper's head H ends at the last recursive
// call the invocation issues.
thread_local std::uint64_t g_last_enqueue_ns = 0;

// The batch header: {f$tail, arity, count, push time}, then the tails'
// arguments.
constexpr std::size_t kBatchFn = 0, kBatchArity = 1, kBatchCount = 2,
                      kBatchPushed = 3, kBatchHeader = 4;

std::size_t fixnum_at(const TaskArgs& b, std::size_t i) {
  return static_cast<std::size_t>(b[i].as_fixnum());
}

/// Thrown by %cri-tail once the run is stopping (a body error elsewhere,
/// %cri-finish): it ends the head loop, and the server does not record
/// it as the run's error.
struct HeadLoopStopped : sexpr::LispError {
  HeadLoopStopped() : LispError("cri: run stopped") {}
};

struct CurrentRunGuard {
  CurrentRunGuard(CriRun* r, std::size_t index)
      : prev(g_current_run), prev_index(g_server_index) {
    g_current_run = r;
    g_server_index = index;
  }
  ~CurrentRunGuard() {
    g_current_run = prev;
    g_server_index = prev_index;
  }
  CriRun* prev;
  std::size_t prev_index;
};
}  // namespace

CriRun* CriRun::current() { return g_current_run; }

// ---- ServerPool ----------------------------------------------------------

/// One Lease::run: how many leased threads are still working, and the
/// first exception a job let escape.
struct ServerPool::Lease::Batch {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t running = 0;
  std::exception_ptr error;
};

struct ServerPool::Lease::Worker {
  std::condition_variable cv;  ///< waits on the pool mutex
  // The next assignment; guarded by the pool mutex.
  const std::function<void(std::size_t)>* job = nullptr;
  std::size_t index = 0;
  Batch* batch = nullptr;
};

ServerPool& ServerPool::instance() {
  // Never destroyed, and its threads are detached rather than joined at
  // exit: a run may still be in flight during static destruction, and a
  // joined worker would run its thread_local destructors (GC caches,
  // tracer and profiler slots) after the statics they reach are gone.
  // Parked workers simply end with the process.
  static ServerPool* pool = new ServerPool;
  return *pool;
}

std::size_t ServerPool::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return workers_.size();
}

ServerPool::Lease ServerPool::lease(std::size_t n) {
  std::lock_guard<std::mutex> g(mu_);
  while (idle_.size() < n) {
    auto w = std::make_unique<Lease::Worker>();
    Lease::Worker* raw = w.get();
    std::thread([this, raw] { work(raw); }).detach();
    workers_.push_back(std::move(w));
    idle_.push_back(raw);
  }
  const auto first = idle_.end() - static_cast<std::ptrdiff_t>(n);
  std::vector<Lease::Worker*> taken(first, idle_.end());
  idle_.erase(first, idle_.end());
  return Lease(*this, std::move(taken));
}

ServerPool::Lease::~Lease() { give_back(); }

void ServerPool::Lease::give_back() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> g(pool_->mu_);
    pool_->idle_.insert(pool_->idle_.end(), workers_.begin(),
                        workers_.end());
  }
  workers_.clear();
}

void ServerPool::Lease::run(const std::function<void(std::size_t)>& job,
                            std::chrono::milliseconds tick,
                            const std::function<void()>& on_tick) {
  Batch batch;
  batch.running = workers_.size();
  {
    std::lock_guard<std::mutex> g(pool_->mu_);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      workers_[i]->job = &job;
      workers_[i]->index = i;
      workers_[i]->batch = &batch;
      workers_[i]->cv.notify_one();
    }
  }
  std::exception_ptr tick_error;
  {
    std::unique_lock<std::mutex> g(batch.mu);
    const auto done = [&] { return batch.running == 0; };
    if (tick.count() == 0) {
      batch.cv.wait(g, done);
    } else {
      while (!batch.cv.wait_for(g, tick, done)) {
        g.unlock();
        // The servers still hold &batch and &job: a throwing tick must
        // not leave this frame before they return. Keep ticking (a
        // later tick may still fire the run's token) and report the
        // first failure after the join.
        try {
          on_tick();
        } catch (...) {
          if (!tick_error) tick_error = std::current_exception();
        }
        g.lock();
      }
    }
  }
  // Give the threads back before returning, so the caller's next run
  // finds them idle. (A worker that reported done may still be on its
  // way back to its wait; a new job is simply waiting for it there.)
  give_back();
  if (batch.error) std::rethrow_exception(batch.error);
  if (tick_error) std::rethrow_exception(tick_error);
}

void ServerPool::work(Lease::Worker* w) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    w->cv.wait(lk, [w] { return w->job != nullptr; });
    const std::function<void(std::size_t)>* job =
        std::exchange(w->job, nullptr);
    Lease::Batch* batch = w->batch;
    const std::size_t index = w->index;
    lk.unlock();
    std::exception_ptr error;
    try {
      (*job)(index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      // Notify under the batch mutex: the waiter may destroy the batch
      // as soon as it can observe running == 0.
      std::lock_guard<std::mutex> g(batch->mu);
      if (error && !batch->error) batch->error = error;
      if (--batch->running == 0) batch->cv.notify_all();
    }
    lk.lock();
  }
}

// ---- CriRun ----------------------------------------------------------------

CriRun::CriRun(lisp::Interp& interp, sexpr::Value fn,
               std::size_t num_sites, std::size_t servers,
               obs::Recorder& rec, std::string label)
    : interp_(interp),
      gc_(interp.ctx().heap.gc()),
      fn_(fn),
      // Lane i belongs to server i. Raw ctor arguments on purpose:
      // tail_site_ and servers_ are declared after queues_.
      queues_((num_sites == 0 ? 1 : num_sites) + 1,
               servers == 0 ? 1 : servers),
      tail_site_(num_sites == 0 ? 1 : num_sites),
      servers_(servers == 0 ? 1 : servers),
      rec_(rec),
      qdepth_(rec.metrics.histogram(
          "cri.queue_depth", obs::Histogram::default_depth_bounds())),
      label_(std::move(label)) {
  token_.dump_fn = [this] { return dump_state(); };
  slots_ = std::make_unique<ServerSlot[]>(servers_);
  for (std::size_t i = 0; i < servers_; ++i) slots_[i].qdepth.emplace(qdepth_);
  queues_.attach_gc(&gc_);
  gc_.add_root_source(this);
}

CriRun::~CriRun() { gc_.remove_root_source(this); }

void CriRun::gc_roots(std::vector<sexpr::Value>& out) {
  out.push_back(fn_);
  {
    std::lock_guard<std::mutex> g(result_mu_);
    out.push_back(result_);
  }
  queues_.for_each_task([&out](const TaskArgs& args) {
    for (const sexpr::Value& v : args) out.push_back(v);
  });
  for (std::size_t i = 0; i < servers_; ++i) {
    out.insert(out.end(), slots_[i].batch.begin(), slots_[i].batch.end());
    out.insert(out.end(), slots_[i].running.begin(),
               slots_[i].running.end());
  }
}

void CriRun::enqueue(std::size_t site, TaskArgs args) {
  if (site >= tail_site_)
    throw sexpr::LispError("cri: call-site index out of range");
  pending_.fetch_add(1, std::memory_order_acq_rel);
  std::size_t depth = 0;
  try {
    depth = queues_.push(g_server_index, site, std::move(args));
  } catch (...) {
    // A push that throws (bad site, injected fault) enqueued nothing:
    // take the increment back or the run never terminates. The count
    // cannot reach zero here — the calling task still holds its own
    // pending unit until it completes — so no close() is needed.
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    throw;
  }
  g_last_enqueue_ns = rec_.tracer.now_ns();
  ServerSlot& slot = slots_[g_server_index];
  slot.enqueues.fetch_add(1, std::memory_order_relaxed);
  slot.qdepth->observe(depth);
  rec_.tracer.instant(obs::EventKind::kTaskEnqueue, site, depth);
}

void CriRun::tail(std::span<const sexpr::Value> a) {
  ServerSlot& slot = slots_[g_server_index];
  if (!slot.running.empty())
    throw sexpr::LispError("%cri-tail inside a queued tail");
  if (stop_.load(std::memory_order_acquire)) throw HeadLoopStopped();
  poll_cancellation();
  // The successor's head starts now; to the stall check that is
  // progress, as a finished task is on the enqueue path. (Single-writer
  // counters: this server's own slot.)
  for (std::atomic<std::uint64_t>* c :
       {&slot.invocations, &slot.enqueues, &slot.completions})
    c->store(c->load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  if (!slot.work_first) {
    slot.work_first = true;
    queues_.mark_work_first();
  }
  if (a.empty()) {
    // No tail: only the GC safepoint below.
  } else if (servers_ == 1) {
    // Nobody could steal it: run the tail now.
    const std::uint64_t t0 = rec_.tracer.now_ns();
    interp_.apply(a[0], a.subspan(1));
    ++slot.tasks;
    slot.inline_ns += rec_.tracer.now_ns() - t0;
  } else {
    const auto arity = static_cast<std::int64_t>(a.size() - 1);
    if (!slot.batch.empty() && (slot.batch[kBatchFn] != a[0] ||
                                slot.batch[kBatchArity].as_fixnum() != arity))
      flush(slot);
    if (slot.batch.empty()) {
      // Re-read q and t every 8th batch: the sums sit on lines the
      // other servers write.
      if (slot.flushes % 8 == 0) slot.batch_size = batch_size();
      slot.batch.reserve(kBatchHeader + slot.batch_size * a.size());
      slot.batch = {a[0], sexpr::Value::fixnum(arity),
                    sexpr::Value::fixnum(0), sexpr::Value::fixnum(0)};
    }
    slot.batch.insert(slot.batch.end(), a.begin() + 1, a.end());
    const std::size_t count = fixnum_at(slot.batch, kBatchCount) + 1;
    slot.batch[kBatchCount] =
        sexpr::Value::fixnum(static_cast<std::int64_t>(count));
    if (count >= slot.batch_size) flush(slot);
  }
  // GC safepoint: the pending batch is rooted through gc_roots, the
  // caller's arguments by its frame.
  if (gc_.collection_wanted()) {
    const std::size_t depth = gc_.blocking_release();
    gc_.maybe_collect();
    gc_.blocking_reacquire(depth);
  }
}

std::size_t CriRun::batch_size() const {
  std::uint64_t handoffs = 0, handoff_ns = 0, tails = 0, tails_ns = 0;
  for (std::size_t i = 0; i < servers_; ++i) {
    const ServerSlot& s = slots_[i];
    handoffs += s.handoffs.load(std::memory_order_relaxed);
    handoff_ns += s.handoff_ns.load(std::memory_order_relaxed);
    tails += s.tails_run.load(std::memory_order_relaxed);
    tails_ns += s.tails_ns.load(std::memory_order_relaxed);
  }
  if (handoffs == 0 || tails == 0 || tails_ns == 0) return 1;
  // A batch should carry at least a handoff's worth of work: g = ⌈q/t⌉.
  const std::uint64_t q = handoff_ns / handoffs;
  const std::uint64_t t = std::max<std::uint64_t>(1, tails_ns / tails);
  return static_cast<std::size_t>(
      std::clamp<std::uint64_t>((q + t - 1) / t, 1, kMaxBatch));
}

void CriRun::flush(ServerSlot& slot) {
  if (slot.batch.empty()) return;
  ++slot.flushes;
  if (stop_.load(std::memory_order_acquire)) {
    slot.batch.clear();  // the run is stopping: queued tails are dropped
    return;
  }
  if (queues_.ring_full(g_server_index, tail_site_)) {
    // The other servers are behind: run this batch here, which also
    // slows the head loop down to their pace.
    const std::uint64_t t0 = rec_.tracer.now_ns();
    slot.running = std::move(slot.batch);
    slot.batch.clear();
    try {
      slot.tasks += run_tails(slot);
    } catch (...) {
      slot.running.clear();
      throw;
    }
    slot.running.clear();
    slot.inline_ns += rec_.tracer.now_ns() - t0;
    return;
  }
  slot.batch[kBatchPushed] = sexpr::Value::fixnum(
      static_cast<std::int64_t>(rec_.tracer.now_ns()));
  pending_.fetch_add(1, std::memory_order_acq_rel);
  std::size_t depth = 0;
  try {
    depth = queues_.push(g_server_index, tail_site_, std::move(slot.batch));
  } catch (...) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    slot.batch.clear();
    throw;
  }
  slot.batch.clear();
  slot.qdepth->observe(depth);
  rec_.tracer.instant(obs::EventKind::kTaskEnqueue, tail_site_, depth);
}

std::size_t CriRun::run_tails(ServerSlot& slot) {
  FaultInjector::instance().check(FaultInjector::Site::kTaskRun);
  const TaskArgs& b = slot.running;
  const std::size_t arity = fixnum_at(b, kBatchArity);
  const std::size_t count = fixnum_at(b, kBatchCount);
  for (std::size_t i = 0; i < count; ++i)
    interp_.apply(b[kBatchFn],
                  std::span<const sexpr::Value>(
                      b.data() + kBatchHeader + i * arity, arity));
  return count;
}

void CriRun::finish(sexpr::Value result) {
  {
    std::lock_guard<std::mutex> g(result_mu_);
    if (finished_early_) return;  // first result wins
    finished_early_ = true;
    result_ = result;
  }
  // Servers discard (rather than execute) anything still queued, while
  // keeping the pending-task accounting exact.
  stop_.store(true, std::memory_order_release);
  rec_.tracer.instant(obs::EventKind::kEarlyFinish);
  queues_.close();  // kill tokens for every server
}

std::string CriRun::dump_state() const {
  std::ostringstream os;
  os << "cri run '" << (label_.empty() ? "<unlabelled>" : label_)
     << "': " << servers_ << " server(s), " << tail_site_
     << " site(s)\n";
  os << "  pending tasks: " << pending_.load(std::memory_order_relaxed)
     << ", queue depth: " << queues_.depth() << " (max "
     << queues_.max_length() << ")\n";
  os << "  invocations started: " << sum(&ServerSlot::invocations)
     << ", completed: " << sum(&ServerSlot::completions)
     << ", enqueues: " << sum(&ServerSlot::enqueues) << "\n";
  std::string out = os.str();
  if (resil_.extra_dump) {
    try {
      out += resil_.extra_dump();
    } catch (...) {
      out += "(extra diagnostics failed)\n";
    }
  }
  return out;
}

void CriRun::serve(std::size_t server_index) {
  CurrentRunGuard guard(this, server_index);
  ServerSlot& slot = slots_[server_index];
  // Make this run's token the thread's current one: every blocking
  // primitive the body reaches (eval loop, lock waits, touch) now
  // polls it.
  CancelScope cancel_scope(&token_);
  // Work done here belongs to the request that started the run: spans
  // this server emits and lock waits it suffers attribute to it.
  obs::RequestScope req_scope(req_ctx_);
  rec_.tracer.name_thread("cri-server-" + std::to_string(server_index));
  std::uint64_t busy = 0, idle = 0;
  // One timestamp carries across loop iterations: the end of a task is
  // the start of the next wait, so the steady state costs two clock
  // reads per task, not three.
  std::uint64_t t_wait = rec_.tracer.now_ns();
  // Record the first error and switch the run to drain mode.
  const auto fail = [this](std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> g(err_mu_);
      if (!first_error_) first_error_ = e;
    }
    stop_.store(true, std::memory_order_release);
    queues_.close();
  };
  // A failed body left its invocation's locks held by this thread.
  const auto release_locks = [this] {
    if (resil_.release_locks) resil_.release_locks();
  };
  // One unsafe region spans the whole serve loop, so a task costs no
  // write to the heap's shared unsafe-thread count. It covers the pop —
  // popped arguments leave the queue's root set the instant they are
  // dequeued — and the scheduler's sleep path releases it around
  // blocking waits.
  gc_.maybe_collect();
  gc::MutatorScope gc_scope(gc_);
  for (;;) {
    // Quiescent point between tasks: no Lisp values live on this
    // thread's stack here, so when a collection is armed or running the
    // server steps out of its unsafe region to run (or help) it.
    if (gc_.collection_wanted()) {
      const std::size_t depth = gc_.blocking_release();
      gc_.maybe_collect();
      gc_.blocking_reacquire(depth);
    }
    std::optional<TaskArgs> task;
    std::size_t site = 0;
    try {
      task = queues_.pop(server_index, &site);
    } catch (...) {
      // A pop can throw: the queue.steal fault site injects at the top
      // of every steal round. Route it through the body-error path —
      // record, switch to drain mode, keep looping. Nothing was popped,
      // so pending_ is untouched and the termination accounting stays
      // exact; the drain itself retries through further injected
      // throws until the queues empty.
      fail(std::current_exception());
      continue;
    }
    const std::uint64_t t0 = rec_.tracer.now_ns();
    idle += t0 - t_wait;
    rec_.tracer.emit(obs::EventKind::kServerIdle, t_wait, t0 - t_wait,
                     server_index);
    t_wait = t0;
    if (!task) break;  // kill token

    // Deadline/stall abort: record the StallError as the run's first
    // error and switch to drain mode — exactly the body-throw path.
    // Busy servers reach the same state through the eval loop's
    // poll_cancellation().
    if (!stop_.load(std::memory_order_acquire) && token_.should_abort()) {
      try {
        token_.raise();
      } catch (...) {
        fail(std::current_exception());
      }
    }
    // After %cri-finish or a body error, drain without executing — but
    // every popped task still decrements pending_ exactly once, so the
    // count still reaches zero and the run terminates.
    if (!stop_.load(std::memory_order_acquire) && site == tail_site_) {
      // A batch of tails from some server's head loop.
      slot.running = std::move(*task);
      const auto pushed = static_cast<std::uint64_t>(
          slot.running[kBatchPushed].as_fixnum());
      std::size_t ran = 0;
      bool failed = false;
      try {
        ran = run_tails(slot);
      } catch (...) {
        fail(std::current_exception());
        release_locks();
        failed = true;
      }
      slot.running.clear();
      slot.completions.fetch_add(1, std::memory_order_relaxed);
      if (!failed) {
        const std::uint64_t t1 = rec_.tracer.now_ns();
        busy += t1 - t0;
        slot.tasks += ran;
        slot.tail_ns += t1 - t0;
        // Relaxed single-writer updates; head loops read the sums.
        const auto bump = [](std::atomic<std::uint64_t>& c,
                             std::uint64_t d) {
          c.store(c.load(std::memory_order_relaxed) + d,
                  std::memory_order_relaxed);
        };
        bump(slot.handoffs, 1);
        bump(slot.handoff_ns, t0 > pushed ? t0 - pushed : 0);
        bump(slot.tails_run, ran);
        bump(slot.tails_ns, t1 - t0);
        rec_.tracer.emit(obs::EventKind::kTaskRun, t0, t1 - t0,
                         server_index, ran);
        t_wait = t1;
      }
    } else if (!stop_.load(std::memory_order_acquire)) {
      const std::uint64_t inv =
          slot.invocations.fetch_add(1, std::memory_order_relaxed);
      g_last_enqueue_ns = 0;
      slot.inline_ns = 0;
      bool failed = false;
      try {
        FaultInjector::instance().check(FaultInjector::Site::kTaskRun);
        interp_.apply(fn_, *task);
        flush(slot);  // a head loop's last, partial batch
      } catch (const HeadLoopStopped&) {
        failed = true;  // the run's error, if any, is recorded already
      } catch (...) {
        fail(std::current_exception());
        failed = true;
      }
      if (failed) release_locks();
      slot.batch.clear();  // a failed head loop's unpushed tails
      // The stall check's progress signal: bodies that *finish*, pass or
      // fail. (Starts can't be the signal — a wedged body starts and
      // never ends; enqueues can't either — an infinite re-enqueue loop
      // "progresses" forever, and bounding that is the deadline's job.)
      slot.completions.fetch_add(1, std::memory_order_relaxed);
      if (!failed) {
        const std::uint64_t t1 = rec_.tracer.now_ns();
        busy += t1 - t0;
        ++slot.tasks;
        // Head runs until the last enqueue this invocation issued; a
        // base case (no enqueue) is pure head. Tails a head loop ran
        // itself count as tail.
        const std::uint64_t head_end =
            (g_last_enqueue_ns > t0 && g_last_enqueue_ns < t1)
                ? g_last_enqueue_ns
                : t1;
        slot.head_ns += head_end - t0 - slot.inline_ns;
        slot.tail_ns += t1 - head_end + slot.inline_ns;
        rec_.tracer.emit(obs::EventKind::kTaskRun, t0, t1 - t0,
                         server_index, inv);
        t_wait = t1;
      }
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // This invocation finished the recursion: kill the servers.
      queues_.close();
    }
  }
  slot.busy_ns = busy;
  slot.idle_ns = idle;
  // A pooled thread must not carry this run's request quota reservation
  // into a later run for another request.
  detail::g_quota_reservation = detail::QuotaReservation{};
}

CriStats CriRun::run(TaskArgs initial_args) && {
  // Take the server threads first: starting one can throw, and nothing
  // below has happened yet to undo.
  ServerPool::Lease lease = ServerPool::instance().lease(servers_);
  // Carry the caller's request identity into the server threads (nil
  // outside a serving request).
  req_ctx_ = obs::current_request();
  const std::uint64_t t_start = rec_.tracer.now_ns();

  {
    // Keep the initial arguments alive across the hand-off into the
    // queue (they are rooted by the queue only once pushed). The seed
    // goes into lane 0 from this thread: lease.run() below hands the
    // lane to server 0 under the pool mutex, which orders this push
    // before the server's first pop. Lane 0 has not been popped yet,
    // so it counts as a mailbox and any server may take the seed.
    gc::MutatorScope gc_scope(gc_);
    queues_.push(0, 0, std::move(initial_args));
  }

  // The stall check runs on this thread, at the join: the wait wakes
  // every clamp(stall/4, 5 ms, 250 ms), and a completion counter that
  // has not moved for stall_ms fires the run's token. It builds the
  // dump with no shard or pool mutex held, and only while this frame —
  // which keeps the CriRun the dump reads alive — waits for the servers.
  std::chrono::milliseconds tick{0};
  std::function<void()> check_stall;
  if (resil_.stall_ms > 0) {
    using std::chrono::milliseconds;
    const milliseconds stall(resil_.stall_ms);
    tick = std::clamp(stall / 4, milliseconds(5), milliseconds(250));
    check_stall = [this, stall, last = completions(),
                   since = std::chrono::steady_clock::now()]() mutable {
      if (token_.cancelled()) return;
      const std::uint64_t done = completions();
      const auto now = std::chrono::steady_clock::now();
      if (done != last) {
        last = done;
        since = now;
      } else if (now - since >= stall) {
        token_.cancel("watchdog: no task completed in " +
                      std::to_string(stall.count()) + " ms (" +
                      (label_.empty() ? "cri-run" : label_) + ")");
        rec_.metrics.counter("cri.stalls").add();
      }
    };
  }

  // Release this thread's unsafe region across the wait: the caller is
  // typically blocked here inside a stack of Interp::apply/eval frames
  // (the $parallel wrapper), and holding their MutatorScopes for the
  // whole run would keep unsafe_ nonzero — no collection could ever
  // stop the world mid-run, and a server's collect() would deadlock in
  // phase A. Everything those suspended frames hold stays reachable
  // through their EvalFrame shadow-stack roots; this run's own state is
  // rooted by gc_roots() above.
  const std::size_t gc_depth = gc_.blocking_release();
  // Chained under the caller's token (request deadline, CLI batch or
  // REPL-line deadline, daemon drain), so firing that one aborts this
  // run too. Servers read the chain only during the join below, while
  // the caller's frame — and with it the borrowed parent — is alive.
  token_.set_parent(current_cancel());
  try {
    lease.run([this](std::size_t i) { serve(i); }, tick, check_stall);
  } catch (...) {
    // A server let an exception escape serve(), or a stall check
    // threw; every server has returned by now.
    token_.set_parent(nullptr);
    gc_.blocking_reacquire(gc_depth);
    throw;
  }
  // The servers are gone; unchain before the caller's token can die.
  token_.set_parent(nullptr);
  gc_.blocking_reacquire(gc_depth);
  for (std::size_t i = 0; i < servers_; ++i)
    qdepth_.merge(*slots_[i].qdepth);

  if (first_error_) {
    rec_.metrics.counter("cri.aborts").add();
    std::rethrow_exception(first_error_);
  }

  CriStats stats;
  stats.invocations = sum(&ServerSlot::invocations);
  stats.max_queue_length = queues_.max_length();
  stats.servers = servers_;
  stats.queue = queues_.stats();
  {
    std::lock_guard<std::mutex> g(result_mu_);
    stats.result = result_;
    stats.finished_early = finished_early_;
  }
  stats.wall_ns = rec_.tracer.now_ns() - t_start;
  stats.enqueues = sum(&ServerSlot::enqueues);
  for (std::size_t i = 0; i < servers_; ++i) {
    const ServerSlot& slot = slots_[i];
    stats.work_first = stats.work_first || slot.work_first;
    stats.head_ns += slot.head_ns;
    stats.tail_ns += slot.tail_ns;
    stats.busy_ns.push_back(slot.busy_ns);
    stats.idle_ns.push_back(slot.idle_ns);
    stats.tasks_per_server.push_back(slot.tasks);
  }

  obs::Metrics& m = rec_.metrics;
  m.counter("cri.invocations").add(stats.invocations);
  m.counter("cri.enqueues").add(stats.enqueues);
  m.counter("cri.head_ns").add(stats.head_ns);
  m.counter("cri.tail_ns").add(stats.tail_ns);
  m.counter("cri.busy_ns").add(stats.busy_ns_total());
  m.counter("cri.idle_ns").add(stats.idle_ns_total());
  m.counter("cri.queue.notify_sent").add(stats.queue.notify_sent);
  m.counter("cri.queue.notify_suppressed")
      .add(stats.queue.notify_suppressed);
  m.counter("cri.queue.spill_pushes").add(stats.queue.spill_pushes);
  m.counter("cri.queue.sleeps").add(stats.queue.sleeps);
  m.counter("cri.queue.steals").add(stats.queue.steals);

  obs::MeasuredRun mr;
  mr.label = label_;
  mr.servers = stats.servers;
  mr.invocations = stats.invocations;
  mr.wall_ns = stats.wall_ns;
  mr.head_ns = stats.head_ns;
  mr.tail_ns = stats.tail_ns;
  mr.busy_ns = stats.busy_ns_total();
  mr.idle_ns = stats.idle_ns_total();
  mr.work_first = stats.work_first;
  rec_.speedup.add(std::move(mr));
  return stats;
}

}  // namespace curare::runtime
