// Tree-walking evaluator for the Lisp subset Curare analyzes and runs.
//
// Design points that matter to the rest of the system:
//
//  * Tail calls are eliminated (the eval loop rebinds and continues
//    instead of recursing) for if/cond/when/unless/progn/let bodies and
//    closure calls in tail position. The recursion→iteration and DPS
//    transformations (paper §5) produce tail-recursive code, and the
//    interpreter makes that pay off with O(1) stack.
//
//  * The interpreter object is shared by every server thread of the CRI
//    runtime. All interpreter state that can be written during execution
//    (global env, output buffer, RNG) is internally synchronized; eval
//    itself is reentrant.
//
//  * `future` is a special form whose behaviour is pluggable: without a
//    spawn hook it evaluates eagerly (sequential semantics), with the
//    runtime's hook installed it creates a real asynchronous task
//    (Multilisp-style, paper §3.1). `touch` forces a future and is the
//    identity on non-futures.
//
//  * Output from print/princ goes to an internal buffer (optionally
//    echoed) so tests can assert final-state sequentializability: the
//    concurrent run of a transformed program must print what the
//    sequential run prints.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "lisp/env.hpp"
#include "lisp/function.hpp"
#include "lisp/structs.hpp"
#include "obs/metrics.hpp"
#include "sexpr/ctx.hpp"
#include "sexpr/value.hpp"

namespace curare::lisp {

using sexpr::Value;

class Interp : public gc::RootSource {
 public:
  explicit Interp(sexpr::Ctx& ctx);
  ~Interp() override;
  Interp(const Interp&) = delete;
  Interp& operator=(const Interp&) = delete;

  /// GC root source: the global environment. Closures reach their
  /// captured lexical frames from here; see DESIGN.md §9.
  void gc_roots(std::vector<Value>& out) override;

  sexpr::Ctx& ctx() { return ctx_; }
  const EnvPtr& global_env() const { return global_; }

  /// Evaluate one form in the given environment.
  Value eval(Value form, EnvPtr env);

  /// Evaluate one form in the global environment.
  Value eval_top(Value form) { return eval(form, global_); }

  /// Read and evaluate every form in `src`; returns the value of the
  /// last form (nil for empty source).
  Value eval_program(std::string_view src);

  /// Call a function value (closure or builtin) with arguments.
  Value apply(Value fn, std::span<const Value> args);

  /// Register a native function in the global environment.
  void define_builtin(std::string_view name, int min_args, int max_args,
                      BuiltinFn fn);

  /// Look up a global binding by name; nil if unbound.
  Value global(std::string_view name);

  // ---- output capture -------------------------------------------------
  void write_output(std::string_view s);
  std::string take_output();
  void set_echo(bool on) { echo_ = on; }

  // ---- deterministic RNG ----------------------------------------------
  void seed_rng(std::uint64_t seed);
  std::int64_t random_below(std::int64_t n);

  // ---- future/spawn hook (installed by the runtime module) ------------
  /// Receives the closure-of-no-arguments to run; returns the future
  /// Value the program sees.
  using SpawnHook = std::function<Value(Interp&, Value thunk)>;
  void set_spawn_hook(SpawnHook hook) { spawn_hook_ = std::move(hook); }
  /// Force hook: given a possible future object, return its value.
  using TouchHook = std::function<Value(Interp&, Value maybe_future)>;
  void set_touch_hook(TouchHook hook) { touch_hook_ = std::move(hook); }

  /// Force a future value via the installed touch hook; identity on
  /// ordinary values or when no hook is installed (sequential mode).
  Value force_future(Value v) {
    return touch_hook_ ? touch_hook_(*this, v) : v;
  }

  /// Maximum non-tail eval nesting before a LispError (guards the C++
  /// stack against runaway recursion in user programs).
  void set_max_depth(std::size_t d) { max_depth_ = d; }
  std::size_t max_depth() const { return max_depth_; }

  // ---- compiled-apply hook (installed by the VM engine) ---------------
  /// Tried first for every closure application routed through apply():
  /// return true with *out filled to take the call (compiled
  /// execution), false to fall through to the tree-walking path
  /// (uncompilable closure). Install before any concurrent evaluation
  /// starts — the hook itself is not synchronized.
  using CompiledApplyHook =
      std::function<bool(Interp&, Value fn, std::span<const Value> args,
                         Value* out)>;
  void set_compiled_apply_hook(CompiledApplyHook hook) {
    compiled_apply_ = std::move(hook);
  }

  /// Count one application performed outside apply() (the VM's call
  /// opcodes), keeping apply_count a comparable work measure across
  /// engines.
  void count_apply() { apply_count_.add(); }

  /// Number of closure applications performed (rough work measure used
  /// by tests and benches). Sharded per thread, so CRI servers applying
  /// concurrently never write a shared line; exact at quiescence.
  std::uint64_t apply_count() const { return apply_count_.get(); }

  // ---- defstruct types -------------------------------------------------
  /// The registered struct type named `name`, or nullptr.
  std::shared_ptr<const StructType> struct_type(sexpr::Symbol* name) const;
  /// The struct type that has a field (= accessor) named `field`, or
  /// nullptr (the paper's unique-accessor-name model: a field name
  /// belongs to at most one structure).
  std::shared_ptr<const StructType> struct_type_of_field(
      sexpr::Symbol* field) const;
  /// All registered struct types, for the driver's declaration scan.
  std::vector<std::shared_ptr<const StructType>> struct_types() const;

 private:
  friend struct BuiltinRegistrar;

  Value eval_body_tail(Value body, EnvPtr& env, Value& form_out,
                       bool& continue_loop);
  EnvPtr bind_params(const Closure* c, std::span<const Value> args);
  Value eval_setf(Value form, const EnvPtr& env);
  Value setf_place(Value place, Value newval, const EnvPtr& env);
  Value make_closure(Value lambda_form, const EnvPtr& env,
                     std::string name);
  Value eval_defstruct(Value form);

  sexpr::Ctx& ctx_;
  gc::GcHeap& gc_;
  EnvPtr global_;

  // Cached special-form symbols not already in Ctx.
  sexpr::Symbol* const s_future_;
  sexpr::Symbol* const s_defmacro_unsupported_;
  sexpr::Symbol* const s_defstruct_;
  sexpr::Symbol* const s_incf_;
  sexpr::Symbol* const s_decf_;
  sexpr::Symbol* const s_push_;
  sexpr::Symbol* const s_pop_;

  mutable std::shared_mutex structs_mu_;
  std::unordered_map<sexpr::Symbol*, std::shared_ptr<const StructType>>
      struct_types_;
  std::unordered_map<sexpr::Symbol*, std::shared_ptr<const StructType>>
      field_index_;

  SpawnHook spawn_hook_;
  TouchHook touch_hook_;
  CompiledApplyHook compiled_apply_;

  std::mutex out_mu_;
  std::string out_;
  bool echo_ = false;

  std::mutex rng_mu_;
  std::mt19937_64 rng_{0xC0FFEE};

  std::size_t max_depth_ = 20000;
  static thread_local std::size_t depth_;
  obs::ShardedCounter apply_count_;
};

/// Registers the standard builtin library (car/cdr/cons, arithmetic,
/// predicates, list utilities, hashtables, printing). Called by the
/// Interp constructor; split out so the list lives in builtins.cpp.
void install_builtins(Interp& interp);

// Numeric helpers shared by builtins and the runtime.
std::int64_t as_int(Value v);
double as_number(Value v);
bool is_number(Value v);

// The store step of each setf place, shared by Interp::setf_place and
// the VM's store opcodes so both engines check and fail alike. Each
// runs after the place's subforms are evaluated and stores `v`.
void store_nth(std::int64_t n, Value list, Value v);
void store_gethash(Value key, Value tbl, Value v);
/// Converts `index` before checking `vec`, as setf_place always has.
void store_aref(Value vec, Value index, Value v);
/// Exact type comparison: `obj` must be an instance of `type` itself.
/// `acc` names the accessor in the error text.
void store_field(const StructType& type, int slot, const sexpr::Symbol& acc,
                 Value obj, Value v);

}  // namespace curare::lisp
