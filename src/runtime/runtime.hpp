// Runtime facade: owns the lock manager and future pool, and installs
// the primitive operations that Curare-transformed programs call:
//
//   (%lock cell 'field ['read|'write])     §3.2.1 Lock(M)
//   (%unlock cell 'field ['read|'write])   §3.2.1 Unlock(M)
//   (%lock-var 'v) (%unlock-var 'v)        variable-location locks
//   (%atomic-add cell 'field delta)        §3.2.3 reordered atomic update
//   (%atomic-incf-var 'v delta)            §3.2.3 for variables (CAS)
//   (%cri-enqueue site args…)              §4 recursive call → enqueue
//   (%cri-tail f$tail args…)               work-first: queue one tail
//   (%cri-run fn num-sites servers args…)  §4 start a server pool
//   (%cri-parallel-p fn servers [cap])      §4.1 CRI, or the original?
//   (spawn thunk) / futures via the `future` special form; (touch x)
//   (force-tree x)                          resolve futures inside a tree
//
// Installing the runtime also arms the interpreter's future/touch hooks,
// switching `future` from eager (uniprocessor) to pooled execution.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "gc/gc.hpp"
#include "lisp/interp.hpp"
#include "obs/recorder.hpp"
#include "runtime/future_pool.hpp"
#include "runtime/lock_manager.hpp"
#include "runtime/resilience.hpp"
#include "runtime/server_pool.hpp"

namespace curare::runtime {

class Runtime : public gc::RootSource {
 public:
  /// Binds to an interpreter; `workers` sizes the future pool (0 =
  /// hardware concurrency). Call install() to register primitives.
  /// Construction also wires the heap's collector into the runtime:
  /// the future pool gets safepoint-aware sleeps, and every GC pause
  /// reports into the cri.gc.* metrics and the trace (kGcPause spans).
  explicit Runtime(lisp::Interp& interp, std::size_t workers = 0);
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  void install();

  /// Register the primitives in an *additional* interpreter that shares
  /// this Runtime's lock manager, future pool, and recorder.
  /// This is the serving layer's multi-session shape: one process-wide
  /// Runtime, one Interp per session (isolated globals), all sessions
  /// contending on the same locks and drawing from the same pools.
  /// Interp-dependent primitives (%cri-run, futures, %locked-update-var)
  /// route through the *calling* interpreter, so a session's CRI run
  /// resolves functions in that session's environment.
  void install_into(lisp::Interp& in);

  LockManager& locks() { return locks_; }
  FuturePool& futures() { return futures_; }

  /// No-completion window before a CRI run's joining caller aborts it
  /// (0 = no stall check). The CLI's --stall-ms lands here. Deadlines
  /// are the caller's: install a CancelState with one around the call.
  void set_stall_ms(std::int64_t ms) {
    stall_ms_.store(ms, std::memory_order_relaxed);
  }
  std::int64_t stall_ms() const {
    return stall_ms_.load(std::memory_order_relaxed);
  }

  /// Human-readable resilience state: configured limits, stall/abort
  /// counters, fault-injector report, currently held locks. Backs the
  /// REPL's :resilience command. (Non-const: reading a counter through
  /// the registry may create it.)
  std::string resilience_report();

  /// The observability bundle every component reports into: tracer
  /// (off by default — obs().tracer.set_enabled(true) to record),
  /// metrics registry, and the measured-vs-predicted speedup report.
  obs::Recorder& obs() { return recorder_; }
  const obs::Recorder& obs() const { return recorder_; }

  /// Run a transformed server-body function under a CRI pool. `label`
  /// names the run in the speedup report (§4.1 T(S) comparison).
  /// If the calling thread has a CancelState installed (a CLI batch or
  /// REPL-line token, a serving-layer request token), the run's own
  /// token is chained under it, so cancelling the request aborts the
  /// run.
  CriStats run_cri(sexpr::Value fn, std::size_t num_sites,
                   std::size_t servers, TaskArgs initial_args,
                   std::string label = {});

  /// Same, but executing in an explicit interpreter — the per-session
  /// entry point used by install_into()'s %cri-run.
  CriStats run_cri_in(lisp::Interp& in, sexpr::Value fn,
                      std::size_t num_sites, std::size_t servers,
                      TaskArgs initial_args, std::string label = {});

  /// The last CRI run's stats, or, when the f$parallel entry last ran
  /// the original defun, a record of that call (CriStats::sequential).
  const CriStats& last_cri_stats() const { return last_stats_; }

  /// What a server function's last CRI run measured (§4.1): recursion
  /// depth d, and the mean head and tail time of one invocation.
  struct CriShape {
    double depth = 0;
    double head_ns = 0;
    double tail_ns = 0;
  };

  /// A function whose calls fall back still runs CRI on every
  /// kReprobeEvery-th call, so the decision follows its inputs.
  static constexpr std::uint32_t kReprobeEvery = 32;

  /// The last CRI run of the server function named `server` (every
  /// run_cri_in records one), or nothing before its first.
  std::optional<CriShape> cri_shape(const std::string& server) const;

  /// The f$parallel entry's choice, made before any server is leased:
  /// true runs CRI on the servers the caller asked for, false runs the
  /// original defun. It is false when `fn` has a measured shape and
  /// choose_servers(d, h, t, cap, min(requested, cores)) is 1, except
  /// on every kReprobeEvery-th call in a row, which runs CRI again.
  /// A call that falls back sets last_cri_stats() to a sequential
  /// record, counts into cri.sequential_fallback, sets the gauge
  /// cri.sequential_fallback.c_f_milli to its c_f · 1000, and adds a
  /// sequential row to the speedup report.
  bool run_in_parallel(sexpr::Value fn, std::size_t requested,
                       std::optional<int> cap);

  /// Walk a cons tree, forcing every future found (destructively
  /// replacing it with its value). Returns the (possibly replaced) root.
  sexpr::Value force_tree(sexpr::Value v);

  /// Collector callback (world stopped): the last CRI run's result
  /// Value is retrievable via last_cri_stats(), so it stays live.
  void gc_roots(std::vector<sexpr::Value>& out) override;

 private:
  lisp::Interp& interp_;
  obs::Recorder recorder_;  ///< before locks_/futures_: they report into it
  LockManager locks_;
  FuturePool futures_;
  std::atomic<std::int64_t> stall_ms_{0};
  /// Guards last_stats_.result against the collector's gc_roots
  /// (run_cri stores it outside any unsafe region).
  std::mutex stats_mu_;
  CriStats last_stats_;
  /// Per server function: its last CRI run's shape, and the calls that
  /// have fallen back since.
  struct CriHistory {
    CriShape shape;
    std::uint32_t fallbacks = 0;
  };
  mutable std::mutex history_mu_;
  std::unordered_map<std::string, CriHistory> history_;
};

}  // namespace curare::runtime
