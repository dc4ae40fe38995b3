#include "vm/vm.hpp"

#include <mutex>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "runtime/eval_tick.hpp"
#include "sexpr/reader.hpp"
#include "vm/compiler.hpp"

namespace curare::vm {

using lisp::Closure;
using lisp::Env;
using lisp::EnvPtr;
using sexpr::Kind;
using sexpr::LispError;
using sexpr::Symbol;

/// One activation: which code runs, whose frame it is, where its slots
/// begin on the operand stack. `env` points at storage that outlives
/// the frame — the closure's captured-env member (the closure Value is
/// traced, keeping it alive) or the caller's environment reference for
/// the entry expression.
struct Frame {
  const CodeObject* code;
  Value closure;  ///< nil for the entry-expression frame
  const EnvPtr* env;
  std::size_t base;
  std::size_t ip;
  bool pushed_profile;
};

struct ExecState {
  std::vector<Value> stack;
  std::vector<Frame> frames;
};

namespace {

/// Precise roots for one VM execution: every operand-stack value,
/// every frame's closure and environment chain, and the entry code's
/// constant pool (closure-owned code is traced through the Closure;
/// the entry expression's code belongs to nobody else). Registered for
/// the whole execution so a blocking release deeper in the call (a
/// future touch, an explicit collect in a test builtin) can run a full
/// collection without sweeping live slots.
class ExecRoots final : public gc::StackRoots {
 public:
  ExecRoots(gc::GcHeap& h, const ExecState& st, const CodeObject* entry)
      : gc::StackRoots(h), st_(st), entry_(entry) {}

  void trace(sexpr::GcVisitor& g) const override {
    for (Value v : st_.stack) g.visit(v);
    for (const Frame& f : st_.frames) {
      g.visit(f.closure);
      for (const Env* e = f.env->get(); e != nullptr;
           e = e->parent().get()) {
        if (!g.enter_region(e)) break;
        e->for_each_binding([&](Value v) { g.visit(v); });
      }
    }
    if (entry_ != nullptr) entry_->gc_trace(g);
  }

 private:
  const ExecState& st_;
  const CodeObject* entry_;
};

}  // namespace

Vm::Vm(lisp::Interp& interp)
    : interp_(interp),
      ctx_(interp.ctx()),
      gc_(interp.ctx().heap.gc()),
      t_(Value::object(interp.ctx().s_t)) {}

Vm::~Vm() { uninstall_apply_hook(); }

void Vm::install_apply_hook() {
  interp_.set_compiled_apply_hook(
      [this](lisp::Interp&, Value fn, std::span<const Value> args,
             Value* out) { return try_apply(fn, args, out); });
}

void Vm::uninstall_apply_hook() {
  interp_.set_compiled_apply_hook(nullptr);
}

const CodeObject* Vm::ensure_compiled(const Closure* c) {
  int state = c->code_state.load(std::memory_order_acquire);
  if (state == Closure::kCodeReady)
    return static_cast<const CodeObject*>(c->code.get());
  if (state == Closure::kCodeRefused) return nullptr;
  std::lock_guard<std::mutex> lock(c->code_mu);
  state = c->code_state.load(std::memory_order_relaxed);
  if (state == Closure::kCodeReady)
    return static_cast<const CodeObject*>(c->code.get());
  if (state == Closure::kCodeRefused) return nullptr;
  CompileResult r = compile_closure(interp_, c);
  if (r.code == nullptr) {
    c->code_state.store(Closure::kCodeRefused, std::memory_order_release);
    return nullptr;
  }
  c->code = r.code;
  c->code_state.store(Closure::kCodeReady, std::memory_order_release);
  return static_cast<const CodeObject*>(c->code.get());
}

std::string Vm::stats_report() const {
  return "\n== vm ==\nvm.compiled_entries = " +
         std::to_string(compiled_entries()) +
         "\nvm.fallback_entries = " + std::to_string(fallback_entries()) +
         "\n";
}

bool Vm::try_apply(Value fn, std::span<const Value> args, Value* out) {
  if (!fn.is(Kind::Closure)) return false;
  auto* c = static_cast<Closure*>(fn.obj());
  const CodeObject* code = ensure_compiled(c);
  if (code == nullptr) {
    fallback_entries_.add();
    return false;
  }
  compiled_entries_.add();
  *out = execute(code, fn, c->env, args);
  return true;
}

Value Vm::eval(Value form, const EnvPtr& env) {
  // One unsafe region across compile + execute: the compiler's
  // constant pool aliases subtrees of `form`, which the caller roots
  // (same contract as Interp::eval), and nothing may collect between
  // interning those aliases and ExecRoots taking over.
  gc::MutatorScope ms(gc_);
  CompileResult r = compile_expr(interp_, form, env);
  if (r.code == nullptr) {
    fallback_entries_.add();
    return interp_.eval(form, env);
  }
  compiled_entries_.add();
  return execute(r.code.get(), Value::nil(), env, {});
}

Value Vm::eval_program(std::string_view src) {
  // Mirrors Interp::eval_program: root the freshly read forms, then
  // evaluate with a quiescent collection point between top-level forms.
  gc::RootScope roots(gc_);
  std::vector<Value> forms;
  {
    gc::MutatorScope ms(gc_);
    forms = sexpr::read_all(ctx_, src);
    for (Value f : forms) roots.add(f);
  }
  Value result = Value::nil();
  for (Value form : forms) {
    gc_.maybe_collect();
    result = eval_top(form);
  }
  return result;
}

void Vm::enter_frame(ExecState& st, const CodeObject* code, Value fn,
                     std::size_t arg0, std::size_t nargs, bool tail) {
  auto* c = static_cast<Closure*>(fn.obj());
  const std::size_t want = code->nparams;
  if (nargs < code->nrequired || (!code->has_rest && nargs > want))
    throw lisp::arity_error(*c, nargs);
  auto& S = st.stack;
  if (code->has_rest) {
    Value rest = Value::nil();
    if (nargs > want) {
      std::vector<Value> extra(
          S.begin() + static_cast<std::ptrdiff_t>(arg0 + want),
          S.begin() + static_cast<std::ptrdiff_t>(arg0 + nargs));
      rest = ctx_.heap.list(extra);
    }
    S.resize(arg0 + want);  // missing optionals read nil
    S.push_back(rest);
  }
  S.resize(arg0 + code->nslots);  // remaining slots start out nil
  if (tail) {
    // Reuse the current activation: O(1) stack for tail recursion.
    // pushed_profile is untouched — the caller renamed the profile
    // frame via note_tail_call.
    Frame& f = st.frames.back();
    f.code = code;
    f.closure = fn;
    f.env = &c->env;
    f.base = arg0;
    f.ip = 0;
    return;
  }
  if (st.frames.size() >= interp_.max_depth()) {
    throw LispError("evaluation too deep (recursion limit " +
                    std::to_string(interp_.max_depth()) + " exceeded)");
  }
  bool pushed = false;
  if (obs::Profiler::armed()) {
    obs::Profiler::instance().push_frame(obs::Profiler::FrameKind::kFn,
                                         &c->name);
    pushed = true;
  }
  st.frames.push_back(Frame{code, fn, &c->env, arg0, 0, pushed});
}

Value Vm::execute(const CodeObject* entry, Value entry_closure,
                  const EnvPtr& env, std::span<const Value> args) {
  gc::MutatorScope ms(gc_);
  ExecState st;
  auto& S = st.stack;
  S.reserve(entry->nslots + 32);
  for (Value a : args) S.push_back(a);
  ExecRoots roots(gc_, st, entry);
  if (entry_closure.is(Kind::Closure)) {
    enter_frame(st, entry, entry_closure, 0, args.size(), /*tail=*/false);
  } else {
    S.resize(entry->nslots);
    st.frames.push_back(
        Frame{entry, Value::nil(), &env, 0, 0, /*pushed_profile=*/false});
  }

  // Pop this activation; true when the whole execution is done.
  auto frame_return = [&](Value result) -> bool {
    Frame& f = st.frames.back();
    if (f.pushed_profile) obs::Profiler::instance().pop_frame();
    S.resize(f.base);
    st.frames.pop_back();
    if (st.frames.empty()) return true;
    S.push_back(result);
    return false;
  };

  // Non-fixnum operands of a burned-in 2-arg op: defer to the builtin
  // itself (via apply, which also owns arity errors and profiling for
  // kCallBuiltin), so the fast paths can never fork semantics.
  auto call_builtin = [&](std::int32_t cidx, std::size_t n) {
    Value b = st.frames.back().code->consts[static_cast<std::size_t>(cidx)];
    const std::span<const Value> as(S.data() + (S.size() - n), n);
    Value r = interp_.apply(b, as);
    S.resize(S.size() - n);
    S.push_back(r);
  };

  try {
    for (;;) {
      Frame& f = st.frames.back();
      const Insn in = f.code->code[f.ip++];
      // Shared preemption tick: one step per instruction, same 1-in-64
      // cancellation poll and profiler period as the tree-walker.
      {
        const unsigned tick = runtime::eval_tick_step();
        if (runtime::eval_tick_profile_due(tick))
          obs::Profiler::instance().sample(&f.code->name);
      }
      switch (in.op) {
        case Op::kConst:
          S.push_back(f.code->consts[static_cast<std::size_t>(in.a)]);
          break;
        case Op::kNil:
          S.push_back(Value::nil());
          break;
        case Op::kInt:
          S.push_back(Value::fixnum(in.a));
          break;
        case Op::kLoadSlot:
          S.push_back(S[f.base + static_cast<std::size_t>(in.a)]);
          break;
        case Op::kStoreSlot:
          S[f.base + static_cast<std::size_t>(in.a)] = S.back();
          break;
        case Op::kLoadEnv: {
          auto* s = static_cast<Symbol*>(
              f.code->consts[static_cast<std::size_t>(in.a)].obj());
          if (auto v = (*f.env)->lookup(s)) {
            S.push_back(*v);
          } else {
            throw LispError("unbound variable: " + s->name);
          }
          break;
        }
        case Op::kStoreEnv: {
          auto* s = static_cast<Symbol*>(
              f.code->consts[static_cast<std::size_t>(in.a)].obj());
          (*f.env)->set(s, S.back());
          break;
        }
        case Op::kPop:
          S.pop_back();
          break;
        case Op::kDup:
          S.push_back(S.back());
          break;

        case Op::kJump:
          f.ip = static_cast<std::size_t>(in.a);
          break;
        case Op::kJumpIfNil: {
          const Value v = S.back();
          S.pop_back();
          if (v.is_nil()) f.ip = static_cast<std::size_t>(in.a);
          break;
        }
        case Op::kJumpIfTruthy: {
          const Value v = S.back();
          S.pop_back();
          if (v.truthy()) f.ip = static_cast<std::size_t>(in.a);
          break;
        }
        case Op::kJumpIfNilElsePop:
          if (S.back().is_nil())
            f.ip = static_cast<std::size_t>(in.a);
          else
            S.pop_back();
          break;
        case Op::kJumpIfTruthyElsePop:
          if (S.back().truthy())
            f.ip = static_cast<std::size_t>(in.a);
          else
            S.pop_back();
          break;

        case Op::kCall:
        case Op::kTailCall: {
          const auto n = static_cast<std::size_t>(in.a);
          const std::size_t fnpos = S.size() - n - 1;
          const Value fn = S[fnpos];
          const CodeObject* callee =
              fn.is(Kind::Closure)
                  ? ensure_compiled(static_cast<Closure*>(fn.obj()))
                  : nullptr;
          if (callee == nullptr) {
            // Builtins, refused closures, non-functions: the tree
            // engine owns these (apply declines the hook for refused
            // closures, so there is no re-entry loop).
            const std::span<const Value> as(S.data() + fnpos + 1, n);
            const Value r = interp_.apply(fn, as);
            if (in.op == Op::kCall) {
              S.resize(fnpos);
              S.push_back(r);
              break;
            }
            if (frame_return(r)) return r;
            break;
          }
          interp_.count_apply();  // same work measure as the tree engine
          if (in.op == Op::kCall) {
            for (std::size_t i = 0; i < n; ++i) S[fnpos + i] = S[fnpos + i + 1];
            S.pop_back();
            enter_frame(st, callee, fn, fnpos, n, /*tail=*/false);
            break;
          }
          // Tail call: rename the profile frame (the interpreter's
          // note_tail_call path), slide the args down to the current
          // frame's base, and reuse the activation.
          Frame& cur = st.frames.back();
          if (obs::Profiler::armed()) {
            auto* c = static_cast<Closure*>(fn.obj());
            if (cur.pushed_profile) {
              obs::Profiler::instance().note_tail_call(&c->name);
            } else {
              obs::Profiler::instance().push_frame(
                  obs::Profiler::FrameKind::kFn, &c->name);
              cur.pushed_profile = true;
            }
          }
          for (std::size_t i = 0; i < n; ++i)
            S[cur.base + i] = S[fnpos + 1 + i];
          S.resize(cur.base + n);
          enter_frame(st, callee, fn, cur.base, n, /*tail=*/true);
          break;
        }

        case Op::kCallBuiltin:
          call_builtin(in.a, static_cast<std::size_t>(in.b));
          break;

        case Op::kReturn: {
          const Value r = S.back();
          if (frame_return(r)) return r;
          break;
        }

        // ---- burned-in builtins (fixnum fast paths; everything else
        //      defers to the builtin itself) ---------------------------
        case Op::kAdd: {
          const Value b = S[S.size() - 1], a = S[S.size() - 2];
          if (a.is_fixnum() && b.is_fixnum()) {
            S.pop_back();
            S.back() = Value::fixnum(a.as_fixnum() + b.as_fixnum());
          } else {
            call_builtin(in.a, 2);
          }
          break;
        }
        case Op::kSub: {
          const Value b = S[S.size() - 1], a = S[S.size() - 2];
          if (a.is_fixnum() && b.is_fixnum()) {
            S.pop_back();
            S.back() = Value::fixnum(a.as_fixnum() - b.as_fixnum());
          } else {
            call_builtin(in.a, 2);
          }
          break;
        }
        case Op::kMul: {
          const Value b = S[S.size() - 1], a = S[S.size() - 2];
          if (a.is_fixnum() && b.is_fixnum()) {
            S.pop_back();
            S.back() = Value::fixnum(a.as_fixnum() * b.as_fixnum());
          } else {
            call_builtin(in.a, 2);
          }
          break;
        }
        case Op::kLess: {
          const Value b = S[S.size() - 1], a = S[S.size() - 2];
          if (a.is_fixnum() && b.is_fixnum()) {
            S.pop_back();
            S.back() = a.as_fixnum() < b.as_fixnum() ? t_ : Value::nil();
          } else {
            call_builtin(in.a, 2);
          }
          break;
        }
        case Op::kLessEq: {
          const Value b = S[S.size() - 1], a = S[S.size() - 2];
          if (a.is_fixnum() && b.is_fixnum()) {
            S.pop_back();
            S.back() = a.as_fixnum() <= b.as_fixnum() ? t_ : Value::nil();
          } else {
            call_builtin(in.a, 2);
          }
          break;
        }
        case Op::kGreater: {
          const Value b = S[S.size() - 1], a = S[S.size() - 2];
          if (a.is_fixnum() && b.is_fixnum()) {
            S.pop_back();
            S.back() = a.as_fixnum() > b.as_fixnum() ? t_ : Value::nil();
          } else {
            call_builtin(in.a, 2);
          }
          break;
        }
        case Op::kGreaterEq: {
          const Value b = S[S.size() - 1], a = S[S.size() - 2];
          if (a.is_fixnum() && b.is_fixnum()) {
            S.pop_back();
            S.back() = a.as_fixnum() >= b.as_fixnum() ? t_ : Value::nil();
          } else {
            call_builtin(in.a, 2);
          }
          break;
        }
        case Op::kNumEq: {
          const Value b = S[S.size() - 1], a = S[S.size() - 2];
          if (a.is_fixnum() && b.is_fixnum()) {
            S.pop_back();
            S.back() = a.as_fixnum() == b.as_fixnum() ? t_ : Value::nil();
          } else {
            call_builtin(in.a, 2);
          }
          break;
        }

        case Op::kAdd1:
          S.back() = Value::fixnum(lisp::as_int(S.back()) + 1);
          break;
        case Op::kSub1:
          S.back() = Value::fixnum(lisp::as_int(S.back()) - 1);
          break;
        case Op::kCar:
          S.back() = sexpr::car(S.back());
          break;
        case Op::kCdr:
          S.back() = sexpr::cdr(S.back());
          break;
        case Op::kCons: {
          const Value d = S.back();
          S.pop_back();
          S.back() = ctx_.heap.cons(S.back(), d);
          break;
        }
        case Op::kEq: {
          const Value b = S.back();
          S.pop_back();
          S.back() = S.back() == b ? t_ : Value::nil();
          break;
        }
        case Op::kNull:
        case Op::kNot:
          S.back() = S.back().is_nil() ? t_ : Value::nil();
          break;
        case Op::kConsp:
          S.back() = S.back().is(Kind::Cons) ? t_ : Value::nil();
          break;
        case Op::kAtom:
          S.back() = S.back().is(Kind::Cons) ? Value::nil() : t_;
          break;

        case Op::kSetCar: {
          const Value obj = S.back();
          S.pop_back();
          sexpr::as_cons(obj)->set_car(S.back());
          break;
        }
        case Op::kSetCdr: {
          const Value obj = S.back();
          S.pop_back();
          sexpr::as_cons(obj)->set_cdr(S.back());
          break;
        }
        case Op::kSetNth: {
          const Value list = S.back();
          const std::int64_t n = S[S.size() - 2].as_fixnum();
          S.resize(S.size() - 2);
          lisp::store_nth(n, list, S.back());
          break;
        }
        case Op::kSetGethash: {
          const Value tbl = S.back(), key = S[S.size() - 2];
          S.resize(S.size() - 2);
          lisp::store_gethash(key, tbl, S.back());
          break;
        }
        case Op::kSetAref: {
          const Value index = S.back(), vec = S[S.size() - 2];
          S.resize(S.size() - 2);
          lisp::store_aref(vec, index, S.back());
          break;
        }
        case Op::kSetField: {
          const FieldRef& fr = f.code->fields[static_cast<std::size_t>(in.a)];
          const Value obj = S.back();
          S.pop_back();
          lisp::store_field(*fr.type, fr.slot, *fr.field, obj, S.back());
          break;
        }

        case Op::kAsInt:
          S.back() = Value::fixnum(lisp::as_int(S.back()));
          break;
        case Op::kIntLess: {
          const Value b = S.back();
          S.pop_back();
          S.back() =
              S.back().as_fixnum() < b.as_fixnum() ? t_ : Value::nil();
          break;
        }
        case Op::kIncSlot: {
          Value& slot = S[f.base + static_cast<std::size_t>(in.a)];
          slot = Value::fixnum(slot.as_fixnum() + 1);
          break;
        }
      }
    }
  } catch (...) {
    // Keep the profiler's shadow stack balanced across Lisp errors and
    // cancellation: pop every frame this execution pushed.
    for (auto it = st.frames.rbegin(); it != st.frames.rend(); ++it)
      if (it->pushed_profile) obs::Profiler::instance().pop_frame();
    throw;
  }
}

}  // namespace curare::vm
