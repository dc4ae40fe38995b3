// Function objects: user closures and native builtins.
//
// Both are heap objects (sexpr::Obj) so a Value can hold them; `defun`
// binds the function object to its name in the global environment (this
// Lisp is a Lisp-1: one namespace for functions and variables, which is
// all the paper's examples need).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "lisp/env.hpp"
#include "sexpr/value.hpp"

namespace curare::lisp {

class Interp;

/// Opaque compiled-code attachment for a Closure. The bytecode VM
/// (src/vm/) derives its CodeObject from this so a Closure can cache
/// its compiled body without the lisp module depending on the VM. The
/// collector calls gc_trace (world stopped) so the code's constant
/// pool stays live exactly as long as the function does.
struct CodeBlob {
  virtual ~CodeBlob() = default;
  virtual void gc_trace(sexpr::GcVisitor& g) const = 0;
};

/// User-defined function. `params` are the positional parameters: the
/// first `nrequired` are required, the rest follow &optional and bind
/// to nil when their argument is missing. `rest` (may be null) collects
/// extras as a list, per &rest.
struct Closure final : sexpr::Obj {
  /// Lazy-compile states for `code_state`.
  static constexpr int kCodeUnknown = 0;   ///< not yet attempted
  static constexpr int kCodeReady = 1;     ///< `code` valid, immutable
  static constexpr int kCodeRefused = 2;   ///< compiler refused; tree-walk

  Closure(std::string name_, std::vector<Symbol*> params_,
          std::size_t nrequired_, Symbol* rest_, Value body_, EnvPtr env_)
      : Obj(sexpr::Kind::Closure),
        name(std::move(name_)),
        params(std::move(params_)),
        nrequired(nrequired_),
        rest(rest_),
        body(body_),
        env(std::move(env_)) {}

  void gc_trace(sexpr::GcVisitor& g) const override {
    g.visit(body);
    // Compiled constants can reference structure not reachable from the
    // body form (none today — the compiler only aliases body subtrees —
    // but the invariant belongs here, not in the compiler).
    if (code_state.load(std::memory_order_acquire) == kCodeReady)
      code->gc_trace(g);
    // Captured frames are shared by every closure made under them;
    // enter_region dedups the walk within one collection. Parameter
    // symbols are pinned by the SymbolTable and need no visit.
    for (const Env* e = env.get(); e != nullptr; e = e->parent().get()) {
      if (!g.enter_region(e)) break;
      e->for_each_binding([&](Value v) { g.visit(v); });
    }
  }

  const std::string name;  ///< "" for anonymous lambdas
  const std::vector<Symbol*> params;
  const std::size_t nrequired;
  Symbol* const rest;
  const Value body;  ///< list of body forms
  const EnvPtr env;  ///< captured lexical environment

  /// One-shot compiled-code cache, filled by the VM on first call.
  /// Readers load code_state acquire and touch `code` only on
  /// kCodeReady; writers publish under code_mu with a release store of
  /// the state, so concurrent first calls race benignly.
  mutable std::atomic<int> code_state{kCodeUnknown};
  mutable std::shared_ptr<const CodeBlob> code;
  mutable std::mutex code_mu;
};

/// The error both engines raise when `c` is called with `got`
/// arguments it cannot bind; `want` reads "N", "N-M" with optionals,
/// and gains a "+" with &rest.
sexpr::LispError arity_error(const Closure& c, std::size_t got);

using BuiltinFn = std::function<Value(Interp&, std::span<const Value>)>;

struct Builtin final : sexpr::Obj {
  Builtin(std::string name_, int min_args_, int max_args_, BuiltinFn fn_)
      : Obj(sexpr::Kind::Builtin),
        name(std::move(name_)),
        min_args(min_args_),
        max_args(max_args_),
        fn(std::move(fn_)) {}

  const std::string name;
  const int min_args;
  const int max_args;  ///< -1 for variadic
  const BuiltinFn fn;
};

}  // namespace curare::lisp
