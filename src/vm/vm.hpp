// Stack VM: executes CodeObjects over an explicit frame stack.
//
// One Vm instance wraps one Interp and shares everything with it — the
// heap, the global environment, builtins, the spawn/touch hooks — so
// the two engines are interchangeable on the same program state. The
// VM owns only the execution strategy:
//
//  * Closures compile lazily on first call; the code object caches on
//    the Closure itself (lisp/function.hpp) so every Interp/Vm pair
//    sees one compilation per function. A refusal also caches, and
//    those closures run on the tree-walker forever (via
//    Interp::apply), which is the fallback contract: coverage is an
//    optimization, never a semantic fork.
//
//  * The dispatch loop advances the shared eval tick once per
//    instruction (runtime/eval_tick.hpp): the same 1-in-64
//    cancellation poll and the same profiler period as the
//    tree-walker, so deadlines and profiles are engine-independent.
//
//  * Frames live in a std::vector, traced by a gc::StackRoots frame
//    (ExecRoots) for the whole execution, so a collection triggered
//    while this thread blocks deeper in the call (a future touch, the
//    gc-roots test's forced collect) sees every live slot and operand.
//
//  * install_apply_hook routes Interp::apply's closure branch through
//    try_apply, which accelerates every runtime path that applies
//    closures (CRI server bodies, futures, run_parallel) without those
//    modules knowing the VM exists.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "gc/gc.hpp"
#include "lisp/interp.hpp"
#include "obs/metrics.hpp"
#include "vm/bytecode.hpp"

namespace curare::vm {

/// Per-execution VM state (operand stack + frame stack); lives on the
/// C++ stack of execute() so re-entrant executions nest naturally.
struct ExecState;

class Vm {
 public:
  explicit Vm(lisp::Interp& interp);
  ~Vm();
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  lisp::Interp& interp() { return interp_; }

  /// Evaluate one form in `env`. Compiles the expression; falls back
  /// to the tree-walker when the compiler refuses (defun, defstruct,
  /// lambda-valued forms, …). The caller must keep `form` rooted, as
  /// with Interp::eval.
  Value eval(Value form, const lisp::EnvPtr& env);
  Value eval_top(Value form) { return eval(form, interp_.global_env()); }

  /// Read and evaluate every form in `src`; returns the last value.
  /// Mirrors Interp::eval_program (same rooting, same quiescent
  /// collection points between top-level forms).
  Value eval_program(std::string_view src);

  /// Apply `fn` on the VM if it is a closure the compiler covers.
  /// Returns false (and leaves *out alone) for everything else; the
  /// caller then uses the tree path. This is the Interp apply hook.
  bool try_apply(Value fn, std::span<const Value> args, Value* out);

  /// Route Interp::apply's closure branch through try_apply (and back).
  void install_apply_hook();
  void uninstall_apply_hook();

  /// Compile-or-fetch the cached code for a closure; nullptr when the
  /// compiler refused (cached too).
  const CodeObject* ensure_compiled(const lisp::Closure* c);

  /// Engine-entry counters: executions started on bytecode vs. handed
  /// to the tree-walker (compile refusals). Sharded per thread; exact
  /// at quiescence.
  std::uint64_t compiled_entries() const { return compiled_entries_.get(); }
  std::uint64_t fallback_entries() const { return fallback_entries_.get(); }

  /// The two entry counters as a `:stats` section: a hot closure the
  /// compiler refused shows as a growing vm.fallback_entries.
  std::string stats_report() const;

 private:
  Value execute(const CodeObject* entry, Value entry_closure,
                const lisp::EnvPtr& env, std::span<const Value> args);
  void enter_frame(ExecState& st, const CodeObject* code, Value fn,
                   std::size_t arg0, std::size_t nargs, bool tail);

  lisp::Interp& interp_;
  sexpr::Ctx& ctx_;
  gc::GcHeap& gc_;
  const Value t_;  ///< Value::object(ctx.s_t), for predicate results
  obs::ShardedCounter compiled_entries_;
  obs::ShardedCounter fallback_entries_;
};

}  // namespace curare::vm
