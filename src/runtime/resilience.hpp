// Deadlines and cancellation.
//
// The paper's §3.2 guarantee — transformed programs cannot deadlock —
// holds only for programs the transformer produced. This runtime also
// executes hand-written %lock/%future code, where one bad program used
// to hang the process: LockManager::lock waited forever, CriRun::run
// joined servers that never finished, FuturePool::touch blocked on a
// cv nobody would signal. The resilience layer makes every one of
// those blocking points interruptible:
//
//   * CancelState is a shared token: an atomic cancelled flag, an
//     atomic monotonic-clock deadline, and (under a mutex) the reason
//     plus a diagnostic dump captured at cancel time.
//   * CancelScope installs a token as the calling thread's *current*
//     token (thread-local); every blocking wait in the runtime — and
//     the interpreter's eval loop — polls it via poll_cancellation().
//   * Cancellation raises StallError, which carries the dump (queue
//     depths, held-lock table, server state) so a hung run dies with
//     an explanation instead of a stack of parked threads.
//
// Deadlines live on the caller's token (a CLI batch or REPL line, a
// served request); a CRI run chains its own token under it, and a
// future's task runs under a copy of its spawner's deadline. Stall
// detection is the run's join: the thread waiting for the servers
// checks their completion counter (CriRun::run).
//
// All waits stay notify-driven; the wait_for slices added around them
// are a cancellation backstop, not a polling protocol — an uncancelled
// run never observes different behavior, just a periodic predicate
// re-check.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "sexpr/value.hpp"

namespace curare::runtime {

/// A cancelled or timed-out blocking operation. The message says what
/// was exceeded; dump() carries the diagnostic state captured when the
/// token fired (queue depths, held locks, per-server progress).
class StallError : public sexpr::LispError {
 public:
  explicit StallError(std::string msg, std::string dump = {})
      : LispError(std::move(msg)), dump_(std::move(dump)) {}
  const std::string& dump() const { return dump_; }

 private:
  std::string dump_;
};

/// Shared cancellation token. One per CriRun (a run is single-shot),
/// or constructed standalone by the CLI to bound a batch evaluation or
/// one REPL line, or minted per request by the serving layer. Tokens can be *chained*:
/// a run's token with a parent observes the parent's cancellation and
/// deadline too, so a per-request token fired by the daemon (client
/// deadline, graceful drain) aborts exactly the CRI run it admitted.
class CancelState {
 public:
  /// Diagnostic snapshot, captured once at cancel time (not at raise
  /// time: the raiser may be the thread whose state is interesting).
  std::function<std::string()> dump_fn;

  /// Arm an absolute deadline `ms` from now (0 disarms).
  void set_deadline_ms(std::int64_t ms) {
    if (ms <= 0) {
      set_deadline_ns(0);
      return;
    }
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    set_deadline_ns(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() +
        ms * 1'000'000);
  }

  /// Arm the deadline at steady_clock nanoseconds-since-epoch `ns`
  /// (0 disarms).
  void set_deadline_ns(std::int64_t ns) {
    deadline_ns_.store(ns, std::memory_order_relaxed);
  }

  /// The earliest deadline on this token's chain, as set_deadline_ns
  /// takes it; 0 when no token on the chain has one. A future copies
  /// its spawner's (FuturePool::spawn) rather than chaining, because
  /// the task may outlive the frame that owns the spawner's token.
  std::int64_t chain_deadline_ns() const {
    std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (const CancelState* p = parent_.load(std::memory_order_acquire)) {
      const std::int64_t pd = p->chain_deadline_ns();
      if (pd != 0 && (d == 0 || pd < d)) d = pd;
    }
    return d;
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  bool deadline_expired() const {
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == 0) return false;
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now)
               .count() >= d;
  }

  /// Chain this token under `parent` (nullptr unchains): should_abort
  /// then also observes the parent's flag and deadline, propagating the
  /// parent's reason into this token. The parent is borrowed, not
  /// owned — the caller must guarantee it outlives every poll of this
  /// token (the serving layer's request frame encloses the whole run).
  void set_parent(CancelState* p) {
    parent_.store(p, std::memory_order_release);
  }

  /// This token's cancel reason (empty until fired).
  std::string reason() const {
    std::lock_guard<std::mutex> g(mu_);
    return reason_;
  }

  /// True when a blocked thread should give up: already cancelled, or
  /// past the deadline (in which case this call performs the cancel so
  /// reason/dump get captured exactly once), or a chained parent token
  /// has fired / passed its own deadline.
  bool should_abort() {
    if (cancelled()) return true;
    if (deadline_expired()) {
      cancel("deadline exceeded");
      return true;
    }
    CancelState* p = parent_.load(std::memory_order_acquire);
    if (p != nullptr && p->should_abort()) {
      const std::string why = p->reason();
      cancel(why.empty() ? "cancelled" : why);
      return true;
    }
    return false;
  }

  /// should_abort() without its side effect: true when this token or a
  /// token on its chain has fired or passed its deadline. Fires
  /// nothing and builds no dump, so it is safe under a lock the dump
  /// would take.
  bool abort_due() const {
    for (const CancelState* t = this; t != nullptr;
         t = t->parent_.load(std::memory_order_acquire)) {
      if (t->cancelled() || t->deadline_expired()) return true;
    }
    return false;
  }

  /// Fire the token: capture reason + dump, then publish the flag.
  /// Idempotent — the first caller wins; later reasons are dropped.
  void cancel(const std::string& why) {
    std::lock_guard<std::mutex> g(mu_);
    if (cancelled_.load(std::memory_order_relaxed)) return;
    reason_ = why;
    if (dump_fn) {
      try {
        dump_ = dump_fn();
      } catch (...) {
        dump_ = "(diagnostic dump failed)";
      }
    }
    // Release-store after the fields are filled: a raise() that sees
    // the flag also sees reason_/dump_ (it re-acquires mu_ anyway, but
    // should_abort()'s lock-free read path relies on the ordering).
    cancelled_.store(true, std::memory_order_release);
  }

  /// Throw the StallError for a fired token. Pre: cancelled().
  [[noreturn]] void raise() {
    std::string why, dump;
    {
      std::lock_guard<std::mutex> g(mu_);
      why = reason_.empty() ? "cancelled" : reason_;
      dump = dump_;
    }
    throw StallError("run aborted: " + why, std::move(dump));
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// steady_clock nanoseconds-since-epoch; 0 = no deadline.
  std::atomic<std::int64_t> deadline_ns_{0};
  /// Chained request-level token (borrowed); see set_parent().
  std::atomic<CancelState*> parent_{nullptr};
  mutable std::mutex mu_;
  std::string reason_;
  std::string dump_;
};

namespace detail {
inline thread_local CancelState* g_current_cancel = nullptr;
}

/// The calling thread's active token, if any. Blocking primitives
/// (LockManager, FuturePool) read this instead of taking a token
/// parameter — the token follows the thread, not the call graph.
inline CancelState* current_cancel() {
  return detail::g_current_cancel;
}

/// RAII installation of a token as the thread's current one. A null
/// token is a no-op scope, so callers can install unconditionally.
class CancelScope {
 public:
  explicit CancelScope(CancelState* tok)
      : prev_(detail::g_current_cancel) {
    if (tok != nullptr) detail::g_current_cancel = tok;
  }
  ~CancelScope() { detail::g_current_cancel = prev_; }
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  CancelState* prev_;
};

/// Throw StallError if the thread's current token has fired (or its
/// deadline has passed). The hot-path cost with no token installed is
/// one thread-local load.
inline void poll_cancellation() {
  CancelState* tok = detail::g_current_cancel;
  if (tok != nullptr && tok->should_abort()) tok->raise();
}

}  // namespace curare::runtime
