#include "lisp/interp.hpp"

#include <cassert>
#include <iostream>
#include <optional>

#include "obs/profiler.hpp"
#include "runtime/eval_tick.hpp"
#include "sexpr/list_ops.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"
#include "sexpr/table.hpp"

namespace curare::lisp {

using sexpr::as_cons;
using sexpr::as_symbol;
using sexpr::cadr;
using sexpr::caddr;
using sexpr::cadddr;
using sexpr::car;
using sexpr::cddr;
using sexpr::cdr;
using sexpr::Cons;
using sexpr::Kind;
using sexpr::LispError;
using sexpr::Symbol;

thread_local std::size_t Interp::depth_ = 0;

namespace {

/// RAII depth guard for non-tail recursion into eval.
struct DepthGuard {
  std::size_t& d;
  explicit DepthGuard(std::size_t& depth, std::size_t max) : d(depth) {
    if (++d > max) {
      --d;
      throw LispError("evaluation too deep (recursion limit " +
                      std::to_string(max) + " exceeded)");
    }
  }
  ~DepthGuard() { --d; }
};

/// True when `name` spells a car/cdr composition accessor: c[ad]+r.
bool is_cxr_name(const std::string& name) {
  if (name.size() < 3 || name.front() != 'c' || name.back() != 'r')
    return false;
  for (std::size_t i = 1; i + 1 < name.size(); ++i)
    if (name[i] != 'a' && name[i] != 'd') return false;
  return true;
}

}  // namespace

Interp::Interp(sexpr::Ctx& ctx)
    : ctx_(ctx),
      gc_(ctx.heap.gc()),
      global_(Env::make_global()),
      s_future_(ctx.symbols.intern("future")),
      s_defmacro_unsupported_(ctx.symbols.intern("defmacro")),
      s_defstruct_(ctx.symbols.intern("defstruct")),
      s_incf_(ctx.symbols.intern("incf")),
      s_decf_(ctx.symbols.intern("decf")),
      s_push_(ctx.symbols.intern("push")),
      s_pop_(ctx.symbols.intern("pop")) {
  install_builtins(*this);
  gc_.add_root_source(this);
}

Interp::~Interp() { gc_.remove_root_source(this); }

void Interp::gc_roots(std::vector<Value>& out) {
  // Every reachable Lisp value hangs off a global binding: closures
  // carry their captured frames, conses their elements. Local frames of
  // suspended computations never survive a quiescent point unrooted.
  global_->for_each_binding([&](Value v) { out.push_back(v); });
}

std::shared_ptr<const StructType> Interp::struct_type(Symbol* name) const {
  std::shared_lock lock(structs_mu_);
  auto it = struct_types_.find(name);
  return it == struct_types_.end() ? nullptr : it->second;
}

std::shared_ptr<const StructType> Interp::struct_type_of_field(
    Symbol* field) const {
  std::shared_lock lock(structs_mu_);
  auto it = field_index_.find(field);
  return it == field_index_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<const StructType>> Interp::struct_types()
    const {
  std::shared_lock lock(structs_mu_);
  std::vector<std::shared_ptr<const StructType>> out;
  out.reserve(struct_types_.size());
  for (const auto& [name, t] : struct_types_) out.push_back(t);
  return out;
}

Value Interp::eval_defstruct(Value form) {
  // (defstruct name (pointers f…) (data f…))  — bare field symbols are
  // data fields.
  auto type = std::make_shared<StructType>();
  type->name = as_symbol(cadr(form));
  for (Value part = cddr(form); !part.is_nil(); part = cdr(part)) {
    Value spec = car(part);
    if (spec.is(Kind::Symbol)) {
      type->data_fields.push_back(static_cast<Symbol*>(spec.obj()));
      continue;
    }
    const std::string& which = as_symbol(car(spec))->name;
    std::vector<Symbol*>* dst = nullptr;
    if (which == "pointers") {
      dst = &type->pointer_fields;
    } else if (which == "data") {
      dst = &type->data_fields;
    } else {
      throw LispError("defstruct: field group must be (pointers …) or "
                      "(data …), got " +
                      which);
    }
    for (Value f = cdr(spec); !f.is_nil(); f = cdr(f))
      dst->push_back(as_symbol(car(f)));
  }

  // Sending the same definition again (a client that resends its whole
  // program) changes nothing.
  if (auto old = struct_type(type->name);
      old != nullptr && old->pointer_fields == type->pointer_fields &&
      old->data_fields == type->data_fields) {
    return Value::object(type->name);
  }

  // Field (= accessor) names must be globally unique — the paper's §2.1
  // requirement that "structure accessors have unique names".
  for (Symbol* f : type->all_fields()) {
    if (struct_type_of_field(f) != nullptr) {
      throw LispError("defstruct: field " + f->name +
                      " already belongs to another structure");
    }
    if (global_->lookup(f).has_value()) {
      throw LispError("defstruct: accessor name " + f->name +
                      " collides with an existing binding");
    }
  }

  {
    std::unique_lock lock(structs_mu_);
    struct_types_[type->name] = type;
    for (Symbol* f : type->all_fields()) field_index_[f] = type;
  }

  // (make-NAME 'field v …)
  std::shared_ptr<const StructType> t = type;
  define_builtin(
      "make-" + type->name->name, 0, -1,
      [t](Interp& i, std::span<const Value> a) {
        if (a.size() % 2 != 0)
          throw LispError("make-" + t->name->name +
                          ": field/value arguments must come in pairs");
        auto* inst = i.ctx().heap.alloc<Instance>(t);
        for (std::size_t k = 0; k < a.size(); k += 2) {
          const int slot = t->slot_index(as_symbol(a[k]));
          if (slot < 0)
            throw LispError("make-" + t->name->name + ": unknown field " +
                            as_symbol(a[k])->name);
          inst->set(slot, a[k + 1]);
        }
        return Value::object(inst);
      });

  // (NAME-p x)
  define_builtin(type->name->name + "-p", 1, 1,
                 [t](Interp& i, std::span<const Value> a) {
                   const bool yes =
                       a[0].is(Kind::Struct) &&
                       static_cast<Instance*>(a[0].obj())->type == t;
                   return yes ? Value::object(i.ctx().s_t) : Value::nil();
                 });

  // One accessor per field, named exactly like the field.
  for (Symbol* f : type->all_fields()) {
    const int slot = type->slot_index(f);
    define_builtin(f->name, 1, 1,
                   [t, slot, f](Interp&, std::span<const Value> a) {
                     if (a[0].is_nil()) return Value::nil();
                     if (!a[0].is(Kind::Struct) ||
                         static_cast<Instance*>(a[0].obj())->type != t) {
                       throw LispError(f->name + ": argument is not a " +
                                       t->name->name);
                     }
                     return static_cast<Instance*>(a[0].obj())->get(slot);
                   });
  }
  return Value::object(type->name);
}

void Interp::define_builtin(std::string_view name, int min_args,
                            int max_args, BuiltinFn fn) {
  Symbol* s = ctx_.symbols.intern(name);
  auto* b = ctx_.heap.alloc<Builtin>(std::string(name), min_args, max_args,
                                     std::move(fn));
  global_->define(s, Value::object(b));
}

Value Interp::global(std::string_view name) {
  auto v = global_->lookup(ctx_.symbols.intern(name));
  return v ? *v : Value::nil();
}

Value Interp::eval_program(std::string_view src) {
  // Root the freshly read forms before evaluating: collections may run
  // between top-level forms (that is a quiescent point), and a form not
  // yet evaluated is reachable from nowhere else.
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

void Interp::write_output(std::string_view s) {
  std::lock_guard<std::mutex> g(out_mu_);
  out_.append(s);
  if (echo_) std::cout << s << std::flush;
}

std::string Interp::take_output() {
  std::lock_guard<std::mutex> g(out_mu_);
  return std::exchange(out_, std::string());
}

void Interp::seed_rng(std::uint64_t seed) {
  std::lock_guard<std::mutex> g(rng_mu_);
  rng_.seed(seed);
}

std::int64_t Interp::random_below(std::int64_t n) {
  if (n <= 0) throw LispError("random: bound must be positive");
  std::lock_guard<std::mutex> g(rng_mu_);
  return static_cast<std::int64_t>(rng_() % static_cast<std::uint64_t>(n));
}

LispError arity_error(const Closure& c, std::size_t got) {
  std::string want = std::to_string(c.nrequired);
  if (c.params.size() > c.nrequired)
    want += "-" + std::to_string(c.params.size());
  return LispError("wrong number of arguments to " +
                   (c.name.empty() ? std::string("#<lambda>") : c.name) +
                   ": got " + std::to_string(got) + ", want " + want +
                   (c.rest ? "+" : ""));
}

EnvPtr Interp::bind_params(const Closure* c, std::span<const Value> args) {
  if (args.size() < c->nrequired ||
      (c->rest == nullptr && args.size() > c->params.size()))
    throw arity_error(*c, args.size());
  EnvPtr env = Env::make_local(c->env);
  for (std::size_t i = 0; i < c->params.size(); ++i)
    env->define(c->params[i], i < args.size() ? args[i] : Value::nil());
  if (c->rest != nullptr) {
    std::vector<Value> extra;
    if (args.size() > c->params.size())
      extra.assign(args.begin() +
                       static_cast<std::ptrdiff_t>(c->params.size()),
                   args.end());
    env->define(c->rest, ctx_.heap.list(extra));
  }
  return env;
}

Value Interp::make_closure(Value lambda_form, const EnvPtr& env,
                           std::string name) {
  // lambda_form = (lambda (params...) body...) or (name (params...) body...)
  Value param_list = cadr(lambda_form);
  std::vector<Symbol*> params;
  std::optional<std::size_t> nrequired;
  Symbol* rest = nullptr;
  for (Value p = param_list; !p.is_nil(); p = cdr(p)) {
    Symbol* s = as_symbol(car(p));
    if (s == ctx_.s_rest) {
      rest = as_symbol(cadr(p));
      break;
    }
    if (s == ctx_.s_optional && !nrequired) {
      nrequired = params.size();
      continue;
    }
    params.push_back(s);
  }
  const std::size_t required = nrequired.value_or(params.size());
  auto* c = ctx_.heap.alloc<Closure>(std::move(name), std::move(params),
                                     required, rest, cddr(lambda_form),
                                     env);
  return Value::object(c);
}

namespace {
/// Shadow-stack frame for one eval/apply activation: roots the form
/// under evaluation, the frame's environment chain, and the in-flight
/// callee + argument vector of an ordinary application. Registered
/// with the collector so a thread may release its unsafe region across
/// a long block deeper in the call (CriRun::run joining its servers)
/// without the values its suspended frames hold becoming collectible.
class EvalFrame final : public gc::StackRoots {
 public:
  EvalFrame(gc::GcHeap& h, const Value* form, const EnvPtr* env)
      : gc::StackRoots(h), form_(form), env_(env) {}

  /// The ordinary-application path parks its callee and argument
  /// vector here while the arguments are evaluated and applied; the
  /// tail-call path clears them before their storage dies.
  void set_call(const Value* fn, const std::vector<Value>* args) {
    fn_ = fn;
    args_ = args;
  }
  /// One extra local that must survive body evaluation (dolist's list
  /// tail).
  void set_extra(const Value* v) { extra_ = v; }

  void trace(sexpr::GcVisitor& g) const override {
    if (form_ != nullptr) g.visit(*form_);
    if (fn_ != nullptr) g.visit(*fn_);
    if (extra_ != nullptr) g.visit(*extra_);
    if (args_ != nullptr)
      for (Value v : *args_) g.visit(v);
    if (span_ != nullptr)
      for (Value v : *span_) g.visit(v);
    if (env_ != nullptr) {
      for (const Env* e = env_->get(); e != nullptr;
           e = e->parent().get()) {
        if (!g.enter_region(e)) break;
        e->for_each_binding([&](Value v) { g.visit(v); });
      }
    }
  }

  void set_span(const std::span<const Value>* sp) { span_ = sp; }

 private:
  const Value* form_;
  const EnvPtr* env_;
  const Value* fn_ = nullptr;
  const Value* extra_ = nullptr;
  const std::vector<Value>* args_ = nullptr;
  const std::span<const Value>* span_ = nullptr;
};
}  // namespace

Value Interp::apply(Value fn, std::span<const Value> args) {
  gc::MutatorScope gc_scope(gc_);
  EvalFrame gc_frame(gc_, nullptr, nullptr);
  gc_frame.set_call(&fn, nullptr);
  gc_frame.set_span(&args);
  apply_count_.add();
  if (fn.is(Kind::Builtin)) {
    auto* b = static_cast<Builtin*>(fn.obj());
    if (static_cast<int>(args.size()) < b->min_args ||
        (b->max_args >= 0 && static_cast<int>(args.size()) > b->max_args)) {
      throw LispError("wrong number of arguments to builtin " + b->name);
    }
    obs::ProfileFrameScope pf(obs::Profiler::FrameKind::kBuiltin,
                              &b->name);
    return b->fn(*this, args);
  }
  if (fn.is(Kind::Closure)) {
    // VM engine first: compiled closures run on the bytecode stack
    // (which pushes its own profile frames); the hook declines for
    // closures the compiler refused, and the tree path below remains
    // the single fallback.
    if (compiled_apply_) {
      Value out;
      if (compiled_apply_(*this, fn, args, &out)) return out;
    }
    auto* c = static_cast<Closure*>(fn.obj());
    obs::ProfileFrameScope pf(obs::Profiler::FrameKind::kFn, &c->name);
    EnvPtr env = bind_params(c, args);
    Value result = Value::nil();
    for (Value body = c->body; !body.is_nil(); body = cdr(body))
      result = eval(car(body), env);
    return result;
  }
  throw LispError("not a function: " + sexpr::write_str(fn));
}

Value Interp::eval(Value form, EnvPtr env) {
  gc::MutatorScope gc_scope(gc_);
  EvalFrame gc_frame(gc_, &form, &env);
  DepthGuard guard(depth_, max_depth_);
  // This eval activation's profile frame: the inline application path
  // below reuses the loop instead of recursing, so the activation —
  // not apply() — is the call frame the profiler should see. Pushed
  // lazily on the first inlined closure call, renamed by later ones
  // (true tail calls), popped when the activation returns.
  struct TailProfileFrame {
    bool pushed = false;
    ~TailProfileFrame() {
      if (pushed) obs::Profiler::instance().pop_frame();
    }
  } tail_pf;
  for (;;) {
    // Cancellation check (DESIGN.md §10): tail-call elimination funnels
    // every loop a program can write through this point, so polling
    // here bounds how long a busy (not blocked) server can outlive its
    // run's deadline. The tick/poll machinery is shared with the
    // bytecode VM (runtime/eval_tick.hpp): one step per eval step here,
    // one per instruction there, same 1-in-64 poll and poll counter.
    {
      const unsigned tick = runtime::eval_tick_step();
      if (runtime::eval_tick_profile_due(tick)) {
        const std::string* leaf = nullptr;
        if (form.is(Kind::Cons)) {
          Value head = static_cast<Cons*>(form.obj())->car();
          if (head.is(Kind::Symbol)) {
            leaf = &static_cast<Symbol*>(head.obj())->name;
          }
        }
        obs::Profiler::instance().sample(leaf);
      }
    }
    // Self-evaluating atoms.
    if (!form.is_object()) return form;  // nil, fixnum
    switch (form.obj()->kind) {
      case Kind::Symbol: {
        Symbol* s = static_cast<Symbol*>(form.obj());
        if (s == ctx_.s_t) return form;
        if (auto v = env->lookup(s)) return *v;
        throw LispError("unbound variable: " + s->name);
      }
      case Kind::Cons: break;  // handled below
      default: return form;    // strings, floats, vectors, objects
    }

    Cons* cell = static_cast<Cons*>(form.obj());
    Value head = cell->car();

    if (head.is(Kind::Symbol)) {
      Symbol* op = static_cast<Symbol*>(head.obj());

      // ---- special forms, tail-call-aware ----------------------------
      if (op == ctx_.s_quote) return cadr(form);

      if (op == ctx_.s_if) {
        Value test = eval(cadr(form), env);
        form = test.truthy() ? caddr(form) : cadddr(form);
        continue;
      }

      if (op == ctx_.s_progn) {
        Value body = cdr(form);
        if (body.is_nil()) return Value::nil();
        while (!cdr(body).is_nil()) {
          eval(car(body), env);
          body = cdr(body);
        }
        form = car(body);
        continue;
      }

      if (op == ctx_.s_when || op == ctx_.s_unless) {
        Value test = eval(cadr(form), env);
        const bool run = (op == ctx_.s_when) == test.truthy();
        if (!run) return Value::nil();
        Value body = cddr(form);
        if (body.is_nil()) return Value::nil();
        while (!cdr(body).is_nil()) {
          eval(car(body), env);
          body = cdr(body);
        }
        form = car(body);
        continue;
      }

      if (op == ctx_.s_cond) {
        Value clauses = cdr(form);
        bool matched = false;
        for (; !clauses.is_nil(); clauses = cdr(clauses)) {
          Value clause = car(clauses);
          Value test = car(clause);
          // (t ...) clause or evaluated test.
          Value tv = eval(test, env);
          if (tv.truthy()) {
            Value body = cdr(clause);
            if (body.is_nil()) return tv;  // (cond (expr)) returns expr
            while (!cdr(body).is_nil()) {
              eval(car(body), env);
              body = cdr(body);
            }
            form = car(body);
            matched = true;
            break;
          }
        }
        if (matched) continue;
        return Value::nil();
      }

      if (op == ctx_.s_and) {
        Value rest = cdr(form);
        if (rest.is_nil()) return Value::object(ctx_.s_t);
        Value v = Value::object(ctx_.s_t);
        while (!cdr(rest).is_nil()) {
          v = eval(car(rest), env);
          if (!v.truthy()) return Value::nil();
          rest = cdr(rest);
        }
        form = car(rest);
        continue;
      }

      if (op == ctx_.s_or) {
        Value rest = cdr(form);
        while (!rest.is_nil() && !cdr(rest).is_nil()) {
          Value v = eval(car(rest), env);
          if (v.truthy()) return v;
          rest = cdr(rest);
        }
        if (rest.is_nil()) return Value::nil();
        form = car(rest);
        continue;
      }

      if (op == ctx_.s_let || op == ctx_.s_let_star) {
        const bool sequential = (op == ctx_.s_let_star);
        EnvPtr inner = Env::make_local(env);
        for (Value b = cadr(form); !b.is_nil(); b = cdr(b)) {
          Value binding = car(b);
          if (binding.is(Kind::Symbol)) {
            inner->define(static_cast<Symbol*>(binding.obj()), Value::nil());
          } else {
            Symbol* name = as_symbol(car(binding));
            Value init =
                eval(cadr(binding), sequential ? inner : env);
            inner->define(name, init);
          }
        }
        Value body = cddr(form);
        if (body.is_nil()) return Value::nil();
        env = inner;
        while (!cdr(body).is_nil()) {
          eval(car(body), env);
          body = cdr(body);
        }
        form = car(body);
        continue;
      }

      if (op == ctx_.s_lambda) return make_closure(form, env, "");

      if (op == ctx_.s_defun) {
        Symbol* name = as_symbol(cadr(form));
        // (defun name (params) body...) has the same shape as a lambda
        // if we drop the leading defun symbol.
        Value as_lambda = cdr(form);
        Value fn = make_closure(as_lambda, global_, name->name);
        global_->define(name, fn);
        return Value::object(name);
      }

      if (op == s_defstruct_) return eval_defstruct(form);

      // setf-macro family: rewrite to the equivalent setf and evaluate.
      // The place expression is evaluated twice, the classic caveat.
      if (op == s_incf_ || op == s_decf_) {
        Value place = cadr(form);
        Value delta = cddr(form).is_nil() ? Value::fixnum(1) : caddr(form);
        const char* arith = (op == s_incf_) ? "+" : "-";
        Value val = ctx_.make_list(ctx_.sym(arith), place, delta);
        return setf_place(place, eval(val, env), env);
      }
      if (op == s_push_) {
        Value item = eval(cadr(form), env);
        Value place = caddr(form);
        Value old = eval(place, env);
        return setf_place(place, ctx_.cons(item, old), env);
      }
      if (op == s_pop_) {
        Value place = cadr(form);
        Value old = eval(place, env);
        setf_place(place, cdr(old), env);
        return car(old);
      }

      if (op == s_defmacro_unsupported_) {
        throw LispError(
            "defmacro is not supported by this Lisp subset (Curare "
            "analyzes plain functions)");
      }

      if (op == ctx_.s_setq) {
        Value rest = cdr(form);
        Value v = Value::nil();
        while (!rest.is_nil()) {
          Symbol* name = as_symbol(car(rest));
          v = eval(cadr(rest), env);
          env->set(name, v);
          rest = cddr(rest);
        }
        return v;
      }

      if (op == ctx_.s_setf) return eval_setf(form, env);

      if (op == ctx_.s_while) {
        Value test = cadr(form);
        Value body = cddr(form);
        while (eval(test, env).truthy()) {
          for (Value b = body; !b.is_nil(); b = cdr(b)) eval(car(b), env);
        }
        return Value::nil();
      }

      if (op == ctx_.s_dotimes) {
        // (dotimes (i n [result]) body...)
        Value spec = cadr(form);
        Symbol* var = as_symbol(car(spec));
        const std::int64_t n = as_int(eval(cadr(spec), env));
        EnvPtr inner = Env::make_local(env);
        inner->define(var, Value::fixnum(0));
        for (std::int64_t i = 0; i < n; ++i) {
          inner->set(var, Value::fixnum(i));
          for (Value b = cddr(form); !b.is_nil(); b = cdr(b))
            eval(car(b), inner);
        }
        inner->set(var, Value::fixnum(n));
        Value result_form = caddr(spec);
        return result_form.is_nil() ? Value::nil()
                                    : eval(result_form, inner);
      }

      if (op == ctx_.s_dolist) {
        // (dolist (x list [result]) body...)
        Value spec = cadr(form);
        Symbol* var = as_symbol(car(spec));
        Value list = eval(cadr(spec), env);
        gc_frame.set_extra(&list);
        EnvPtr inner = Env::make_local(env);
        inner->define(var, Value::nil());
        for (; !list.is_nil(); list = cdr(list)) {
          inner->set(var, car(list));
          for (Value b = cddr(form); !b.is_nil(); b = cdr(b))
            eval(car(b), inner);
        }
        inner->set(var, Value::nil());
        Value result_form = caddr(spec);
        return result_form.is_nil() ? Value::nil()
                                    : eval(result_form, inner);
      }

      if (op == ctx_.s_declare) return Value::nil();  // advice, not code

      if (op == s_future_) {
        // (future expr): wrap expr in a thunk; the runtime hook decides
        // whether it runs asynchronously.
        Value thunk = make_closure(
            ctx_.make_list(Value::object(ctx_.s_lambda), Value::nil(),
                           cadr(form)),
            env, "future-thunk");
        if (spawn_hook_) return spawn_hook_(*this, thunk);
        return apply(thunk, {});
      }
    }

    // ---- ordinary application -----------------------------------------
    Value fn = eval(head, env);
    std::vector<Value> args;
    gc_frame.set_call(&fn, &args);
    for (Value a = cdr(form); !a.is_nil(); a = cdr(a))
      args.push_back(eval(car(a), env));

    if (fn.is(Kind::Closure)) {
      // Tail call: rebind and continue the loop instead of recursing.
      apply_count_.add();
      auto* c = static_cast<Closure*>(fn.obj());
      if (obs::Profiler::armed()) {
        auto& prof = obs::Profiler::instance();
        if (tail_pf.pushed) {
          prof.note_tail_call(&c->name);
        } else {
          prof.push_frame(obs::Profiler::FrameKind::kFn, &c->name);
          tail_pf.pushed = true;
        }
      }
      env = bind_params(c, args);
      Value body = c->body;
      gc_frame.set_call(nullptr, nullptr);  // storage dies at `continue`
      if (body.is_nil()) return Value::nil();
      while (!cdr(body).is_nil()) {
        eval(car(body), env);
        body = cdr(body);
      }
      form = car(body);
      continue;
    }
    return apply(fn, args);
  }
}

Value Interp::eval_setf(Value form, const EnvPtr& env) {
  Value rest = cdr(form);
  Value v = Value::nil();
  while (!rest.is_nil()) {
    Value place = car(rest);
    v = eval(cadr(rest), env);
    setf_place(place, v, env);
    rest = cddr(rest);
  }
  return v;
}

Value Interp::setf_place(Value place, Value newval, const EnvPtr& env) {
  if (place.is(Kind::Symbol)) {
    env->set(static_cast<Symbol*>(place.obj()), newval);
    return newval;
  }
  if (!place.is(Kind::Cons))
    throw LispError("setf: invalid place " + sexpr::write_str(place));

  Symbol* acc = as_symbol(car(place));
  const std::string& name = acc->name;

  if (is_cxr_name(name)) {
    // (setf (cXYZr e) v): navigate the inner letters right-to-left,
    // then store through the first letter.
    Value obj = eval(cadr(place), env);
    for (std::size_t i = name.size() - 2; i >= 2; --i) {
      obj = (name[i] == 'a') ? car(obj) : cdr(obj);
    }
    Cons* cell = as_cons(obj);
    if (name[1] == 'a') {
      cell->set_car(newval);
    } else {
      cell->set_cdr(newval);
    }
    return newval;
  }

  if (name == "nth") {
    const std::int64_t n = as_int(eval(cadr(place), env));
    store_nth(n, eval(caddr(place), env), newval);
    return newval;
  }

  if (name == "gethash") {
    Value key = eval(cadr(place), env);
    store_gethash(key, eval(caddr(place), env), newval);
    return newval;
  }

  if (name == "aref") {
    Value vec = eval(cadr(place), env);
    store_aref(vec, eval(caddr(place), env), newval);
    return newval;
  }

  // defstruct slot place: (setf (field inst) v).
  if (auto type = struct_type_of_field(acc)) {
    store_field(*type, type->slot_index(acc), *acc, eval(cadr(place), env),
                newval);
    return newval;
  }

  throw LispError("setf: unsupported place (" + name + " ...)");
}

void store_nth(std::int64_t n, Value list, Value v) {
  for (std::int64_t i = 0; i < n; ++i) list = cdr(list);
  as_cons(list)->set_car(v);
}

void store_gethash(Value key, Value tbl, Value v) {
  if (!tbl.is(Kind::Table)) throw LispError("setf gethash: not a table");
  static_cast<sexpr::Table*>(tbl.obj())->put(key, v);
}

void store_aref(Value vec, Value index, Value v) {
  const std::int64_t i = as_int(index);
  auto* vector = sexpr::as_vector(vec);
  if (i < 0 || static_cast<std::size_t>(i) >= vector->items.size())
    throw LispError("setf aref: index out of range");
  vector->items[static_cast<std::size_t>(i)] = v;
}

void store_field(const StructType& type, int slot, const Symbol& acc,
                 Value obj, Value v) {
  if (!obj.is(Kind::Struct) ||
      static_cast<Instance*>(obj.obj())->type.get() != &type) {
    throw LispError("setf " + acc.name + ": argument is not a " +
                    type.name->name);
  }
  static_cast<Instance*>(obj.obj())->set(slot, v);
}

// ---- numeric helpers ------------------------------------------------

std::int64_t as_int(Value v) {
  if (v.is_fixnum()) return v.as_fixnum();
  if (v.is(Kind::Float))
    return static_cast<std::int64_t>(
        static_cast<sexpr::Float*>(v.obj())->value);
  throw LispError("expected integer, got " + sexpr::write_str(v));
}

double as_number(Value v) {
  if (v.is_fixnum()) return static_cast<double>(v.as_fixnum());
  if (v.is(Kind::Float)) return static_cast<sexpr::Float*>(v.obj())->value;
  throw LispError("expected number, got " + sexpr::write_str(v));
}

bool is_number(Value v) { return v.is_fixnum() || v.is(Kind::Float); }

}  // namespace curare::lisp
