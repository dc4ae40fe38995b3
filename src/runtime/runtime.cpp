#include "runtime/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lisp/function.hpp"
#include "runtime/eval_tick.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/scheduler.hpp"
#include "sexpr/printer.hpp"

namespace curare::runtime {

using lisp::Interp;
using sexpr::as_cons;
using sexpr::as_symbol;
using sexpr::Cons;
using sexpr::Kind;
using sexpr::LispError;
using sexpr::Symbol;
using sexpr::Value;

namespace {

FutureObj* as_future(Value v) {
  if (!v.is(Kind::Native)) return nullptr;
  return dynamic_cast<FutureObj*>(v.obj());
}

bool parse_mode_exclusive(std::span<const Value> args, std::size_t idx) {
  if (args.size() <= idx) return true;  // default: exclusive
  Symbol* m = as_symbol(args[idx]);
  if (m->name == "read") return false;
  if (m->name == "write") return true;
  throw LispError("%lock: mode must be 'read or 'write, got " + m->name);
}

LocKey cell_key(Value cell, Value field) {
  // Locking "off the end" of a structure (the location expression
  // evaluated to nil) protects nothing and touches nothing: a no-op key
  // is represented by a null object and filtered by the caller.
  if (cell.is_nil()) return LocKey{};
  if (cell.is(Kind::Cons) || cell.is(Kind::Struct))
    return LocKey{cell.obj(), as_symbol(field)};
  throw LispError("%lock: location container must be a cons or struct");
}

/// The word behind a structure location: a cons's car or cdr, or a
/// struct's named slot. `who` names the builtin in error messages.
std::atomic<std::uint64_t>* field_slot(Value cell, Value field,
                                       const char* who) {
  Symbol* f = as_symbol(field);
  if (cell.is(Kind::Cons)) {
    Cons* c = static_cast<Cons*>(cell.obj());
    if (f->name == "car") return &c->car_bits;
    if (f->name == "cdr") return &c->cdr_bits;
    throw LispError(std::string(who) + ": cons field must be car or cdr");
  }
  if (cell.is(Kind::Struct)) {
    auto* inst = static_cast<lisp::Instance*>(cell.obj());
    const int idx = inst->type->slot_index(f);
    if (idx < 0)
      throw LispError(std::string(who) + ": no field " + f->name + " in " +
                      inst->type->name->name);
    return &inst->slots[static_cast<std::size_t>(idx)];
  }
  throw LispError(std::string(who) + ": container must be a cons or struct");
}

/// update() under the exclusive lock on `key`, released on every exit.
template <typename Fn>
Value locked(LockManager& locks, const LocKey& key, Fn&& update) {
  locks.lock(key, true);
  Value nv;
  try {
    nv = update();
  } catch (...) {
    locks.unlock(key, true);
    throw;
  }
  locks.unlock(key, true);
  return nv;
}

/// Replace global `var` with update(its value, if bound) under the
/// variable's lock.
template <typename Fn>
Value update_global(LockManager& locks, Interp& i, Symbol* var,
                    Fn&& update) {
  return locked(locks, LocKey{var, nullptr}, [&] {
    const Value nv = update(i.global_env()->lookup(var));
    i.global_env()->set(var, nv);
    return nv;
  });
}

/// The name a server function's runs are recorded under: a closure's
/// name, or empty.
std::string server_name(Value fn) {
  return fn.is(Kind::Closure) ? static_cast<lisp::Closure*>(fn.obj())->name
                              : std::string();
}

}  // namespace

Runtime::Runtime(Interp& interp, std::size_t workers)
    : interp_(interp), locks_(recorder_), futures_(recorder_, workers) {
  // Pre-register the resilience counters so clean runs report them as
  // explicit zeros in --stats (a BENCH run asserting "no stalls" needs
  // the row to exist).
  recorder_.metrics.counter("cri.stalls");
  recorder_.metrics.counter("cri.aborts");
  recorder_.metrics.counter("cri.sequential_fallback");
  recorder_.metrics.gauge("cri.sequential_fallback.c_f_milli");
  // Ring wrap-around drops trace events silently; count them into the
  // registry so a truncated Chrome trace is diagnosable from --stats.
  recorder_.tracer.set_drop_counter(
      &recorder_.metrics.counter("obs.trace.dropped"));
  gc::GcHeap& gc = interp_.ctx().heap.gc();
  futures_.attach_gc(&gc);
  gc.add_root_source(this);
  // Report every collection into the observability bundle. The callback
  // runs on the collecting thread right after the world restarts.
  gc.set_pause_callback([this](const gc::GcPause& p) {
    obs::Metrics& m = recorder_.metrics;
    m.counter("cri.gc.collections").add(1);
    m.histogram("cri.gc.pause_ns").observe(p.pause_ns);
    m.counter("cri.gc.reclaimed_objects").add(p.reclaimed_objects);
    m.counter("cri.gc.reclaimed_bytes").add(p.reclaimed_bytes);
    m.gauge("cri.gc.live_objects")
        .set(static_cast<std::int64_t>(p.live_objects));
    m.gauge("cri.gc.heap_bytes")
        .set(static_cast<std::int64_t>(p.heap_bytes));
    if (recorder_.tracer.enabled()) {
      const std::uint64_t end = recorder_.tracer.now_ns();
      const std::uint64_t start =
          end > p.pause_ns ? end - p.pause_ns : 0;
      recorder_.tracer.emit(obs::EventKind::kGcPause, start, p.pause_ns,
                            p.reclaimed_objects, p.reclaimed_bytes);
    }
  });
}

Runtime::~Runtime() {
  gc::GcHeap& gc = interp_.ctx().heap.gc();
  gc.set_pause_callback(nullptr);
  gc.remove_root_source(this);
}

void Runtime::gc_roots(std::vector<sexpr::Value>& out) {
  std::lock_guard<std::mutex> g(stats_mu_);
  out.push_back(last_stats_.result);
}

CriStats Runtime::run_cri(Value fn, std::size_t num_sites,
                          std::size_t servers, TaskArgs initial_args,
                          std::string label) {
  return run_cri_in(interp_, fn, num_sites, servers,
                    std::move(initial_args), std::move(label));
}

CriStats Runtime::run_cri_in(Interp& in, Value fn, std::size_t num_sites,
                             std::size_t servers, TaskArgs initial_args,
                             std::string label) {
  // Name the speedup-report row after the server function.
  const std::string name = server_name(fn);
  if (label.empty()) label = name;
  CriRun run(in, fn, num_sites, servers, recorder_, std::move(label));
  ResilienceConfig rc;
  rc.stall_ms = stall_ms_.load(std::memory_order_relaxed);
  // The run can describe its own queues; the state only the Runtime
  // sees — held locks, future-pool backlog — rides in via extra_dump.
  rc.extra_dump = [this] {
    std::string s = locks_.dump_held();
    s += "future pool: " + std::to_string(futures_.pending_tasks()) +
         " task(s) queued\n";
    return s;
  };
  rc.release_locks = [this] { locks_.release_thread_holds(); };
  run.set_resilience(std::move(rc));
  CriStats stats = std::move(run).run(std::move(initial_args));
  if (!name.empty() && stats.invocations > 0) {
    const double d = static_cast<double>(stats.invocations);
    std::lock_guard<std::mutex> g(history_mu_);
    history_[name] = CriHistory{
        CriShape{d, static_cast<double>(stats.head_ns) / d,
                 static_cast<double>(stats.tail_ns) / d},
        0};
  }
  std::lock_guard<std::mutex> g(stats_mu_);
  last_stats_ = stats;
  return last_stats_;
}

std::optional<Runtime::CriShape> Runtime::cri_shape(
    const std::string& server) const {
  std::lock_guard<std::mutex> g(history_mu_);
  const auto it = history_.find(server);
  if (it == history_.end()) return std::nullopt;
  return it->second.shape;
}

bool Runtime::run_in_parallel(Value fn, std::size_t requested,
                              std::optional<int> cap) {
  const std::string name = server_name(fn);
  CriShape shape;
  {
    std::lock_guard<std::mutex> g(history_mu_);
    const auto it = history_.find(name);
    if (it == history_.end()) return true;  // nothing measured yet
    shape = it->second.shape;
    const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
    if (choose_servers(shape.depth, shape.head_ns, shape.tail_ns, cap,
                       std::min(requested, cores)) > 1)
      return true;
    if (++it->second.fallbacks == kReprobeEvery) {
      it->second.fallbacks = 0;  // the re-probe's run records afresh
      return true;
    }
  }
  const double c_f = max_concurrency(shape.head_ns, shape.tail_ns, cap);
  obs::Metrics& m = recorder_.metrics;
  m.counter("cri.sequential_fallback").add();
  m.gauge("cri.sequential_fallback.c_f_milli")
      .set(static_cast<std::int64_t>(c_f * 1000.0 + 0.5));
  obs::MeasuredRun row;
  row.label = name;
  row.servers = 0;
  row.invocations = static_cast<std::uint64_t>(shape.depth);
  row.head_ns = static_cast<std::uint64_t>(shape.head_ns * shape.depth);
  row.tail_ns = static_cast<std::uint64_t>(shape.tail_ns * shape.depth);
  row.sequential = true;
  row.c_f = c_f;
  recorder_.speedup.add(std::move(row));
  CriStats none;
  none.sequential = true;
  std::lock_guard<std::mutex> g(stats_mu_);
  last_stats_ = std::move(none);
  return false;
}

std::string Runtime::resilience_report() {
  std::ostringstream os;
  const std::int64_t st = stall_ms_.load(std::memory_order_relaxed);
  os << "resilience:\n";
  os << "  stall window: "
     << (st > 0 ? std::to_string(st) + " ms" : std::string("off"))
     << "\n";
  os << "  stalls detected: "
     << recorder_.metrics.counter("cri.stalls").get()
     << ", runs aborted: "
     << recorder_.metrics.counter("cri.aborts").get() << "\n";
  os << "  eval cancel polls: " << eval_poll_count()
     << " (shared tick, tree + vm engines)\n";
  os << FaultInjector::instance().report();
  os << locks_.dump_held();
  return os.str();
}

Value Runtime::force_tree(Value v) {
  gc::MutatorScope gc_scope(interp_.ctx().heap.gc());
  if (FutureObj* f = as_future(v)) v = futures_.touch(f->state);
  if (!v.is(Kind::Cons)) return v;
  // Iterative spine walk with recursion on cars keeps stack use bounded
  // by tree depth, not list length.
  Value cell = v;
  while (cell.is(Kind::Cons)) {
    Cons* c = static_cast<Cons*>(cell.obj());
    Value a = c->car();
    Value forced_a = force_tree(a);
    if (forced_a != a) c->set_car(forced_a);
    Value d = c->cdr();
    if (FutureObj* f = as_future(d)) {
      d = futures_.touch(f->state);
      c->set_cdr(d);
    }
    if (!d.is(Kind::Cons)) break;  // nil or atom tail: spine done
    cell = d;
  }
  return v;
}

void Runtime::install() { install_into(interp_); }

void Runtime::install_into(Interp& in) {
  // ---- location locks (§3.2.1) ---------------------------------------
  in.define_builtin("%lock", 2, 3, [this](Interp&,
                                          std::span<const Value> a) {
    LocKey key = cell_key(a[0], a[1]);
    if (key.object != nullptr) locks_.lock(key, parse_mode_exclusive(a, 2));
    return Value::nil();
  });
  in.define_builtin("%unlock", 2, 3, [this](Interp&,
                                            std::span<const Value> a) {
    LocKey key = cell_key(a[0], a[1]);
    if (key.object != nullptr)
      locks_.unlock(key, parse_mode_exclusive(a, 2));
    return Value::nil();
  });
  in.define_builtin("%lock-var", 1, 1, [this](Interp&,
                                              std::span<const Value> a) {
    locks_.lock(LocKey{as_symbol(a[0]), nullptr}, true);
    return Value::nil();
  });
  in.define_builtin("%unlock-var", 1, 1, [this](Interp&,
                                                std::span<const Value> a) {
    locks_.unlock(LocKey{as_symbol(a[0]), nullptr}, true);
    return Value::nil();
  });

  // ---- atomic reordered updates (§3.2.3) --------------------------------
  in.define_builtin("%atomic-add", 3, 3, [](Interp&,
                                            std::span<const Value> a) {
    std::atomic<std::uint64_t>* slot = field_slot(a[0], a[1], "%atomic-add");
    const std::int64_t delta = lisp::as_int(a[2]);
    // CAS loop over the tagged fixnum representation.
    std::uint64_t old_bits = slot->load(std::memory_order_relaxed);
    for (;;) {
      Value old_val = Value::from_bits(old_bits);
      if (!old_val.is_fixnum())
        throw LispError("%atomic-add: location does not hold a fixnum");
      Value new_val = Value::fixnum(old_val.as_fixnum() + delta);
      if (slot->compare_exchange_weak(old_bits, new_val.bits(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        return new_val;
      }
    }
  });
  // A CAS loop on the variable's global cell; an unbound variable is
  // an error, as it is for the (setq v (+ v d)) it replaces. Where a
  // plan's forms also lock the variable, the transform emits a
  // %locked-update-var instead, which a held lock excludes
  // (transform::lock_shared_increments).
  in.define_builtin("%atomic-incf-var", 2, 2,
                    [](Interp& i, std::span<const Value> a) {
                      const std::int64_t delta = lisp::as_int(a[1]);
                      Symbol* var = as_symbol(a[0]);
                      std::atomic<Value>* cell =
                          i.global_env()->global_cell(var);
                      if (cell == nullptr)
                        throw LispError("unbound variable: " + var->name);
                      Value old = cell->load(std::memory_order_acquire);
                      for (;;) {
                        const Value nv =
                            Value::fixnum(lisp::as_int(old) + delta);
                        if (cell->compare_exchange_weak(
                                old, nv, std::memory_order_acq_rel,
                                std::memory_order_acquire))
                          return nv;
                      }
                    });

  // ---- generic atomic/locked update for any operator -----------------
  // (%locked-update-var 'v fn) applies fn to the current value under the
  // variable's lock — atomizing a declared commutative+associative op
  // that is not natively atomic ("non-atomic commutative and associative
  // operations can be made atomic with the aid of locks", §3.2.3).
  in.define_builtin("%locked-update-var", 2, 2,
                    [this](Interp& i, std::span<const Value> a) {
                      return update_global(
                          locks_, i, as_symbol(a[0]),
                          [&](std::optional<Value> old) {
                            const Value args[] = {old ? *old : Value::nil()};
                            return i.apply(a[1], args);
                          });
                    });

  // (%locked-update cell 'field fn): apply fn to the field's value under
  // the location's lock — atomizes a declared comm+assoc operator on a
  // structure location.
  in.define_builtin(
      "%locked-update", 3, 3, [this](Interp& i, std::span<const Value> a) {
        std::atomic<std::uint64_t>* slot =
            field_slot(a[0], a[1], "%locked-update");
        return locked(locks_, LocKey{a[0].obj(), as_symbol(a[1])}, [&] {
          const Value args[] = {
              Value::from_bits(slot->load(std::memory_order_relaxed))};
          const Value nv = i.apply(a[2], args);
          slot->store(nv.bits(), std::memory_order_relaxed);
          return nv;
        });
      });

  // ---- CRI server pool (§4) --------------------------------------------
  in.define_builtin("%cri-enqueue", 1, -1,
                    [](Interp&, std::span<const Value> a) {
                      CriRun* run = CriRun::current();
                      if (run == nullptr) {
                        throw LispError(
                            "%cri-enqueue outside of a CRI server pool");
                      }
                      const std::int64_t site = lisp::as_int(a[0]);
                      run->enqueue(static_cast<std::size_t>(site),
                                   TaskArgs(a.begin() + 1, a.end()));
                      return Value::nil();
                    });
  // (%cri-tail f$tail args…) from a work-first head loop: queue one
  // tail. A bare (%cri-tail) marks an invocation with nothing to queue.
  in.define_builtin("%cri-tail", 0, -1,
                    [](Interp&, std::span<const Value> a) {
                      CriRun* run = CriRun::current();
                      if (run == nullptr) {
                        throw LispError(
                            "%cri-tail outside of a CRI server pool");
                      }
                      run->tail(a);
                      return Value::nil();
                    });
  in.define_builtin("%cri-finish", 0, 1,
                    [](Interp&, std::span<const Value> a) {
                      CriRun* run = CriRun::current();
                      if (run == nullptr) {
                        throw LispError(
                            "%cri-finish outside of a CRI server pool");
                      }
                      run->finish(a.empty() ? Value::nil() : a[0]);
                      return Value::nil();
                    });
  in.define_builtin(
      "%cri-run", 3, -1, [this](Interp& i, std::span<const Value> a) {
        Value fn = a[0];
        const auto num_sites =
            static_cast<std::size_t>(lisp::as_int(a[1]));
        const auto servers = static_cast<std::size_t>(lisp::as_int(a[2]));
        // The *calling* interpreter hosts the run, so a session's CRI
        // servers resolve globals in that session's environment.
        CriStats stats = run_cri_in(i, fn, num_sites, servers,
                                    TaskArgs(a.begin() + 3, a.end()));
        // Any-result searches deliver their value through finish; plain
        // recursions yield nil here (their values come through the
        // destination cell the f$parallel wrapper passes).
        return stats.result;
      });

  // (%cri-parallel-p f$cri servers [cap]): the f$parallel entry's
  // choice between a CRI run and the original defun (run_in_parallel).
  // cap is the plan's conflict distance, when it bounds S.
  in.define_builtin(
      "%cri-parallel-p", 2, 3, [this](Interp& i, std::span<const Value> a) {
        const std::int64_t servers = lisp::as_int(a[1]);
        std::optional<int> cap;
        if (a.size() > 2) cap = static_cast<int>(lisp::as_int(a[2]));
        return run_in_parallel(a[0],
                               static_cast<std::size_t>(
                                   std::max<std::int64_t>(servers, 1)),
                               cap)
                   ? Value::object(i.ctx().s_t)
                   : Value::nil();
      });

  // ---- futures (§3.1) -----------------------------------------------------
  // The `spawn` builtin and the `future` form's hook. The thunk rides
  // along as the task's root: a queued future's closure (and everything
  // it captures) must survive collections that happen before a worker
  // picks it up.
  auto spawn = [this](Interp& i, Value thunk) {
    auto state =
        futures_.spawn([&i, thunk] { return i.apply(thunk, {}); }, thunk);
    return Value::object(i.ctx().heap.alloc<FutureObj>(std::move(state)));
  };
  in.define_builtin("spawn", 1, 1,
                    [spawn](Interp& i, std::span<const Value> a) {
                      return spawn(i, a[0]);
                    });
  in.define_builtin("future-p", 1, 1, [](Interp& i,
                                         std::span<const Value> a) {
    return as_future(a[0]) != nullptr ? Value::object(i.ctx().s_t)
                                      : Value::nil();
  });
  in.define_builtin("force-tree", 1, 1, [this](Interp&,
                                               std::span<const Value> a) {
    return force_tree(a[0]);
  });

  in.set_spawn_hook(spawn);
  in.set_touch_hook([this](Interp&, Value v) {
    if (FutureObj* f = as_future(v)) return futures_.touch(f->state);
    return v;
  });
}

}  // namespace curare::runtime
