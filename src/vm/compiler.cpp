#include "vm/compiler.hpp"

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "sexpr/ctx.hpp"

namespace curare::vm {

using lisp::Closure;
using lisp::Env;
using lisp::EnvPtr;
using sexpr::as_symbol;
using sexpr::cadr;
using sexpr::caddr;
using sexpr::cadddr;
using sexpr::car;
using sexpr::cddr;
using sexpr::cdr;
using sexpr::Kind;
using sexpr::LispError;
using sexpr::Symbol;

namespace {

/// Raised (internally) on the first form the compiler does not cover;
/// converted to a refusal, never surfaced to Lisp code. Malformed
/// forms also refuse rather than erroring at compile time: the
/// tree-walker must stay the one that reports (or never reaches) them.
struct Unsupported {
  std::string why;
};

/// True when `name` spells a car/cdr composition accessor: c[ad]+r.
/// (Mirrors the interpreter's setf-place recognizer.)
bool is_cxr_name(const std::string& name) {
  if (name.size() < 3 || name.front() != 'c' || name.back() != 'r')
    return false;
  for (std::size_t i = 1; i + 1 < name.size(); ++i)
    if (name[i] != 'a' && name[i] != 'd') return false;
  return true;
}

/// Fast opcode for a burned-in builtin call of this exact arity; the
/// fast paths must mirror the builtin bodies bit-for-bit (fixnum
/// arithmetic, t/nil results), and every non-fixnum case defers to the
/// builtin itself, so coverage here is pure speed, never semantics.
std::optional<Op> fast_op(const std::string& name, std::size_t nargs) {
  if (nargs == 2) {
    if (name == "+") return Op::kAdd;
    if (name == "-") return Op::kSub;
    if (name == "*") return Op::kMul;
    if (name == "<") return Op::kLess;
    if (name == "<=") return Op::kLessEq;
    if (name == ">") return Op::kGreater;
    if (name == ">=") return Op::kGreaterEq;
    if (name == "=") return Op::kNumEq;
    if (name == "cons") return Op::kCons;
    if (name == "eq") return Op::kEq;
  } else if (nargs == 1) {
    if (name == "1+") return Op::kAdd1;
    if (name == "1-") return Op::kSub1;
    if (name == "car") return Op::kCar;
    if (name == "cdr") return Op::kCdr;
    if (name == "null") return Op::kNull;
    if (name == "not") return Op::kNot;
    if (name == "consp") return Op::kConsp;
    if (name == "atom") return Op::kAtom;
  }
  return std::nullopt;
}

class Compiler {
 public:
  explicit Compiler(lisp::Interp& interp)
      : interp_(interp),
        ctx_(interp.ctx()),
        s_future_(ctx_.symbols.intern("future")),
        s_defmacro_(ctx_.symbols.intern("defmacro")),
        s_defstruct_(ctx_.symbols.intern("defstruct")),
        s_incf_(ctx_.symbols.intern("incf")),
        s_decf_(ctx_.symbols.intern("decf")),
        s_push_(ctx_.symbols.intern("push")),
        s_pop_(ctx_.symbols.intern("pop")) {}

  CompileResult run_closure(const Closure* c) {
    auto code = std::make_shared<CodeObject>();
    code_ = code.get();
    code_->name = c->name.empty() ? "<lambda>" : c->name;
    code_->nrequired = static_cast<std::uint32_t>(c->nrequired);
    code_->nparams = static_cast<std::uint32_t>(c->params.size());
    code_->has_rest = c->rest != nullptr;
    for (Symbol* p : c->params) bind_slot(p);
    if (c->rest != nullptr) bind_slot(c->rest);
    env_ = c->env.get();
    return finish(code, [&] { compile_body(c->body, /*tail=*/true); });
  }

  CompileResult run_expr(Value form, const EnvPtr& env) {
    auto code = std::make_shared<CodeObject>();
    code_ = code.get();
    code_->name = "<toplevel>";
    env_ = env.get();
    return finish(code, [&] { compile(form, /*tail=*/true); });
  }

 private:
  template <typename Fn>
  CompileResult finish(std::shared_ptr<CodeObject> code, Fn&& emit_body) {
    try {
      emit_body();
    } catch (const Unsupported& u) {
      return {nullptr, u.why};
    } catch (const LispError& e) {
      // Structural surprises (dotted arg lists, non-symbol binders) are
      // the tree-walker's to report, and only if it ever reaches them.
      return {nullptr, std::string("malformed form: ") + e.what()};
    }
    emit(Op::kReturn);
    code->nslots = static_cast<std::uint32_t>(max_slots_);
    return {std::move(code), {}};
  }

  // ---- emission helpers ----------------------------------------------

  std::int32_t emit(Op op, std::int32_t a = 0, std::int32_t b = 0) {
    code_->code.push_back(Insn{op, a, b});
    return static_cast<std::int32_t>(code_->code.size() - 1);
  }
  std::int32_t here() const {
    return static_cast<std::int32_t>(code_->code.size());
  }
  void patch(std::int32_t at) { code_->code[at].a = here(); }
  std::int32_t konst(Value v) { return code_->add_const(v); }

  // ---- lexical scope --------------------------------------------------

  /// Bind a frame slot; `name == nullptr` allocates a hidden slot
  /// (loop counters, limits) no Lisp variable can shadow or read.
  int bind_slot(Symbol* name) {
    const int slot = next_slot_++;
    if (next_slot_ > max_slots_) max_slots_ = next_slot_;
    scope_.push_back({name, slot});
    return slot;
  }
  void pop_scope(std::size_t mark) {
    while (scope_.size() > mark) {
      scope_.pop_back();
      --next_slot_;
    }
  }
  int find_slot(Symbol* s) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
      if (it->first == s) return it->second;
    return -1;
  }

  [[noreturn]] void refuse(std::string why) {
    throw Unsupported{std::move(why)};
  }
  Symbol* sym_or_refuse(Value v, const char* what) {
    if (!v.is(Kind::Symbol)) refuse(std::string("non-symbol ") + what);
    return static_cast<Symbol*>(v.obj());
  }

  // ---- expression compilation -----------------------------------------

  /// Push the value of variable `s`, mirroring symbol evaluation: `t`
  /// is self-quoting, lexical slots resolve at compile time, and
  /// everything else is a late-bound environment lookup.
  void compile_var(Symbol* s) {
    if (s == ctx_.s_t) {
      emit(Op::kConst, konst(Value::object(s)));
      return;
    }
    const int slot = find_slot(s);
    if (slot >= 0) {
      emit(Op::kLoadSlot, slot);
      return;
    }
    emit(Op::kLoadEnv, konst(Value::object(s)));
  }

  /// Store the top of stack into variable `s` (value stays on the
  /// stack — setq/setf return the assigned value).
  void emit_store_var(Symbol* s) {
    const int slot = find_slot(s);
    if (slot >= 0)
      emit(Op::kStoreSlot, slot);
    else
      emit(Op::kStoreEnv, konst(Value::object(s)));
  }

  /// Compile a body (list of forms): all but the last for effect, the
  /// last in `tail` position; an empty body evaluates to nil.
  void compile_body(Value body, bool tail) {
    if (body.is_nil()) {
      emit(Op::kNil);
      return;
    }
    while (!cdr(body).is_nil()) {
      compile(car(body), /*tail=*/false);
      emit(Op::kPop);
      body = cdr(body);
    }
    compile(car(body), tail);
  }

  void compile(Value form, bool tail) {
    if (!form.is_object()) {
      if (form.is_nil()) {
        emit(Op::kNil);
      } else {
        const std::int64_t n = form.as_fixnum();
        if (n >= std::numeric_limits<std::int32_t>::min() &&
            n <= std::numeric_limits<std::int32_t>::max())
          emit(Op::kInt, static_cast<std::int32_t>(n));
        else
          emit(Op::kConst, konst(form));
      }
      return;
    }
    switch (form.obj()->kind) {
      case Kind::Symbol:
        compile_var(static_cast<Symbol*>(form.obj()));
        return;
      case Kind::Cons:
        break;
      default:
        // Strings, floats, vectors, opaque objects self-evaluate (to
        // the identical object, as in the tree-walker).
        emit(Op::kConst, konst(form));
        return;
    }
    compile_cons(form, tail);
  }

  void compile_cons(Value form, bool tail) {
    Value head = car(form);
    if (head.is(Kind::Symbol)) {
      Symbol* op = static_cast<Symbol*>(head.obj());
      if (compile_special(op, form, tail)) return;
      std::vector<Value> argforms;
      for (Value a = cdr(form); !a.is_nil(); a = cdr(a))
        argforms.push_back(car(a));
      compile_call_sym(op, argforms, tail);
      return;
    }
    // Non-symbol head: ((lambda …) …) refuses inside compile(head);
    // other heads produce the tree-walker's "not a function" at call.
    compile(head, /*tail=*/false);
    std::int32_t n = 0;
    for (Value a = cdr(form); !a.is_nil(); a = cdr(a), ++n)
      compile(car(a), /*tail=*/false);
    emit(tail ? Op::kTailCall : Op::kCall, n);
  }

  /// Special forms, dispatched by symbol identity (before any scope or
  /// environment lookup, exactly as the interpreter does). Returns
  /// false for ordinary applications.
  bool compile_special(Symbol* op, Value form, bool tail) {
    if (op == ctx_.s_quote) {
      emit(Op::kConst, konst(cadr(form)));
      return true;
    }

    if (op == ctx_.s_if) {
      compile(cadr(form), false);
      const std::int32_t j_else = emit(Op::kJumpIfNil);
      compile(caddr(form), tail);
      const std::int32_t j_end = emit(Op::kJump);
      patch(j_else);
      compile(cadddr(form), tail);  // a missing else-branch reads as nil
      patch(j_end);
      return true;
    }

    if (op == ctx_.s_progn) {
      compile_body(cdr(form), tail);
      return true;
    }

    if (op == ctx_.s_when || op == ctx_.s_unless) {
      compile(cadr(form), false);
      const std::int32_t j_skip =
          emit(op == ctx_.s_when ? Op::kJumpIfNil : Op::kJumpIfTruthy);
      compile_body(cddr(form), tail);
      const std::int32_t j_end = emit(Op::kJump);
      patch(j_skip);
      emit(Op::kNil);
      patch(j_end);
      return true;
    }

    if (op == ctx_.s_cond) {
      std::vector<std::int32_t> ends;
      for (Value clauses = cdr(form); !clauses.is_nil();
           clauses = cdr(clauses)) {
        Value clause = car(clauses);
        Value body = cdr(clause);
        compile(car(clause), false);
        if (body.is_nil()) {
          // (cond (expr)) returns the test value itself when truthy.
          ends.push_back(emit(Op::kJumpIfTruthyElsePop));
        } else {
          const std::int32_t j_next = emit(Op::kJumpIfNil);
          compile_body(body, tail);
          ends.push_back(emit(Op::kJump));
          patch(j_next);
        }
      }
      emit(Op::kNil);  // no clause matched
      for (std::int32_t e : ends) patch(e);
      return true;
    }

    if (op == ctx_.s_and) {
      Value rest = cdr(form);
      if (rest.is_nil()) {
        emit(Op::kConst, konst(Value::object(ctx_.s_t)));
        return true;
      }
      std::vector<std::int32_t> ends;
      while (!cdr(rest).is_nil()) {
        compile(car(rest), false);
        ends.push_back(emit(Op::kJumpIfNilElsePop));
        rest = cdr(rest);
      }
      compile(car(rest), tail);
      for (std::int32_t e : ends) patch(e);
      return true;
    }

    if (op == ctx_.s_or) {
      Value rest = cdr(form);
      if (rest.is_nil()) {
        emit(Op::kNil);
        return true;
      }
      std::vector<std::int32_t> ends;
      while (!cdr(rest).is_nil()) {
        compile(car(rest), false);
        ends.push_back(emit(Op::kJumpIfTruthyElsePop));
        rest = cdr(rest);
      }
      compile(car(rest), tail);
      for (std::int32_t e : ends) patch(e);
      return true;
    }

    if (op == ctx_.s_let || op == ctx_.s_let_star) {
      compile_let(form, op == ctx_.s_let_star, tail);
      return true;
    }

    if (op == ctx_.s_setq) {
      compile_setq(form);
      return true;
    }

    if (op == ctx_.s_setf) {
      compile_setf(form);
      return true;
    }

    if (op == ctx_.s_while) {
      const std::int32_t loop = here();
      compile(cadr(form), false);
      const std::int32_t j_end = emit(Op::kJumpIfNil);
      for (Value b = cddr(form); !b.is_nil(); b = cdr(b)) {
        compile(car(b), false);
        emit(Op::kPop);
      }
      emit(Op::kJump, loop);
      patch(j_end);
      emit(Op::kNil);
      return true;
    }

    if (op == ctx_.s_dotimes) {
      compile_dotimes(form, tail);
      return true;
    }

    if (op == ctx_.s_dolist) {
      compile_dolist(form, tail);
      return true;
    }

    if (op == ctx_.s_declare) {
      emit(Op::kNil);  // advice, not code
      return true;
    }

    // incf/decf/push/pop read the place as an expression, then store
    // through it, so its subforms evaluate twice (the interpreter's
    // rewrite to setf does the same).
    if (op == s_incf_ || op == s_decf_) {
      Value place = cadr(form);
      Value delta =
          cddr(form).is_nil() ? Value::fixnum(1) : caddr(form);
      // The interpreter rewrites to (+ place delta) and evaluates, so
      // the arithmetic head resolves by the ordinary call rule.
      compile_call_sym(ctx_.symbols.intern(op == s_incf_ ? "+" : "-"),
                       {place, delta}, /*tail=*/false);
      emit_store_place(place);
      return true;
    }

    if (op == s_push_) {
      // (push item place): item evaluates before the place is read.
      Value place = caddr(form);
      compile(cadr(form), false);
      compile(place, false);
      emit(Op::kCons);
      emit_store_place(place);
      return true;
    }

    if (op == s_pop_) {
      Value place = cadr(form);
      compile(place, false);
      emit(Op::kDup);
      emit(Op::kCdr);
      emit_store_place(place);
      emit(Op::kPop);
      emit(Op::kCar);
      return true;
    }

    // Forms the bytecode engine does not cover: the whole body falls
    // back to the tree-walker (which also owns their error reporting).
    if (op == ctx_.s_lambda) refuse("lambda");
    if (op == ctx_.s_defun) refuse("defun");
    if (op == s_defstruct_) refuse("defstruct");
    if (op == s_defmacro_) refuse("defmacro");
    if (op == s_future_) refuse("future");

    return false;
  }

  void compile_let(Value form, bool sequential, bool tail) {
    const std::size_t mark = scope_.size();
    Value bindings = cadr(form);
    if (!sequential) {
      // Plain let: all inits evaluate in the outer scope, then bind.
      // Values sit on the stack in binding order; stores run in
      // reverse so the top of stack matches the last binding (with
      // duplicate names, backwards slot lookup makes reads see the
      // later binding, matching the interpreter's same-frame
      // overwrite).
      std::vector<Symbol*> names;
      for (Value b = bindings; !b.is_nil(); b = cdr(b)) {
        Value binding = car(b);
        if (binding.is(Kind::Symbol)) {
          names.push_back(static_cast<Symbol*>(binding.obj()));
          emit(Op::kNil);
        } else {
          names.push_back(sym_or_refuse(car(binding), "let binder"));
          compile(cadr(binding), false);
        }
      }
      std::vector<int> slots;
      slots.reserve(names.size());
      for (Symbol* n : names) slots.push_back(bind_slot(n));
      for (std::size_t i = names.size(); i-- > 0;) {
        emit(Op::kStoreSlot, slots[i]);
        emit(Op::kPop);
      }
    } else {
      for (Value b = bindings; !b.is_nil(); b = cdr(b)) {
        Value binding = car(b);
        Symbol* name;
        if (binding.is(Kind::Symbol)) {
          name = static_cast<Symbol*>(binding.obj());
          emit(Op::kNil);
        } else {
          name = sym_or_refuse(car(binding), "let* binder");
          compile(cadr(binding), false);
        }
        emit(Op::kStoreSlot, bind_slot(name));
        emit(Op::kPop);
      }
    }
    compile_body(cddr(form), tail);
    pop_scope(mark);
  }

  void compile_setq(Value form) {
    Value rest = cdr(form);
    if (rest.is_nil()) {
      emit(Op::kNil);
      return;
    }
    for (;;) {
      Symbol* name = sym_or_refuse(car(rest), "setq target");
      compile(cadr(rest), false);
      emit_store_var(name);
      rest = cddr(rest);
      if (rest.is_nil()) break;
      emit(Op::kPop);
    }
  }

  void compile_setf(Value form) {
    Value rest = cdr(form);
    if (rest.is_nil()) {
      emit(Op::kNil);
      return;
    }
    for (;;) {
      // The new value evaluates BEFORE the place's subforms, mirroring
      // eval_setf.
      compile(cadr(rest), false);
      emit_store_place(car(rest));
      rest = cddr(rest);
      if (rest.is_nil()) break;
      emit(Op::kPop);
    }
  }

  /// Store the top of stack through `place`, evaluating the place's
  /// subforms now, in Interp::setf_place's order and with its checks;
  /// the value stays on the stack. Covers every place setf_place
  /// accepts — symbols, c[ad]+r, nth, gethash, aref, struct fields —
  /// dispatched in its order; anything else refuses.
  void emit_store_place(Value place) {
    if (place.is(Kind::Symbol)) {
      emit_store_var(static_cast<Symbol*>(place.obj()));
      return;
    }
    if (!place.is(Kind::Cons)) refuse("setf place");
    Value acc_form = car(place);
    if (!acc_form.is(Kind::Symbol)) refuse("setf place");
    auto* acc = static_cast<Symbol*>(acc_form.obj());
    const std::string& name = acc->name;
    if (is_cxr_name(name)) {
      compile(cadr(place), false);
      // Navigate the inner letters right-to-left, then store through
      // the first letter (same traversal as Interp::setf_place).
      for (std::size_t i = name.size() - 2; i >= 2; --i)
        emit(name[i] == 'a' ? Op::kCar : Op::kCdr);
      emit(name[1] == 'a' ? Op::kSetCar : Op::kSetCdr);
      return;
    }
    if (name == "nth") {
      // The index converts to an integer before the list evaluates.
      compile(cadr(place), false);
      emit(Op::kAsInt);
      compile(caddr(place), false);
      emit(Op::kSetNth);
      return;
    }
    if (name == "gethash" || name == "aref") {
      compile(cadr(place), false);
      compile(caddr(place), false);
      emit(name == "gethash" ? Op::kSetGethash : Op::kSetAref);
      return;
    }
    if (auto type = interp_.struct_type_of_field(acc)) {
      compile(cadr(place), false);
      code_->fields.push_back(FieldRef{type, acc, type->slot_index(acc)});
      emit(Op::kSetField,
           static_cast<std::int32_t>(code_->fields.size() - 1));
      return;
    }
    refuse("setf place (" + name + " …)");
  }

  void compile_dotimes(Value form, bool tail) {
    // (dotimes (var n [result]) body…)
    Value spec = cadr(form);
    Symbol* var = sym_or_refuse(car(spec), "dotimes variable");
    const std::size_t mark = scope_.size();
    compile(cadr(spec), false);
    emit(Op::kAsInt);
    const int lim = bind_slot(nullptr);
    emit(Op::kStoreSlot, lim);
    emit(Op::kPop);
    const int var_slot = bind_slot(var);
    const int ctr = bind_slot(nullptr);
    emit(Op::kInt, 0);
    emit(Op::kStoreSlot, ctr);
    emit(Op::kPop);
    const std::int32_t loop = here();
    emit(Op::kLoadSlot, ctr);
    emit(Op::kLoadSlot, lim);
    emit(Op::kIntLess);
    const std::int32_t j_end = emit(Op::kJumpIfNil);
    // The variable resets from the hidden counter every iteration, so
    // body-side setq of it cannot derail the loop (tree semantics).
    emit(Op::kLoadSlot, ctr);
    emit(Op::kStoreSlot, var_slot);
    emit(Op::kPop);
    for (Value b = cddr(form); !b.is_nil(); b = cdr(b)) {
      compile(car(b), false);
      emit(Op::kPop);
    }
    emit(Op::kIncSlot, ctr);
    emit(Op::kJump, loop);
    patch(j_end);
    emit(Op::kLoadSlot, lim);  // var = n after the loop
    emit(Op::kStoreSlot, var_slot);
    emit(Op::kPop);
    Value result_form = caddr(spec);
    if (result_form.is_nil())
      emit(Op::kNil);
    else
      compile(result_form, tail);
    pop_scope(mark);
  }

  void compile_dolist(Value form, bool tail) {
    // (dolist (var list [result]) body…)
    Value spec = cadr(form);
    Symbol* var = sym_or_refuse(car(spec), "dolist variable");
    const std::size_t mark = scope_.size();
    compile(cadr(spec), false);
    const int tail_slot = bind_slot(nullptr);
    emit(Op::kStoreSlot, tail_slot);
    emit(Op::kPop);
    const int var_slot = bind_slot(var);
    emit(Op::kNil);  // var = nil before (and after) the loop
    emit(Op::kStoreSlot, var_slot);
    emit(Op::kPop);
    const std::int32_t loop = here();
    emit(Op::kLoadSlot, tail_slot);
    const std::int32_t j_end = emit(Op::kJumpIfNil);
    emit(Op::kLoadSlot, tail_slot);
    emit(Op::kCar);
    emit(Op::kStoreSlot, var_slot);
    emit(Op::kPop);
    for (Value b = cddr(form); !b.is_nil(); b = cdr(b)) {
      compile(car(b), false);
      emit(Op::kPop);
    }
    emit(Op::kLoadSlot, tail_slot);
    emit(Op::kCdr);
    emit(Op::kStoreSlot, tail_slot);
    emit(Op::kPop);
    emit(Op::kJump, loop);
    patch(j_end);
    emit(Op::kNil);
    emit(Op::kStoreSlot, var_slot);
    emit(Op::kPop);
    Value result_form = caddr(spec);
    if (result_form.is_nil())
      emit(Op::kNil);
    else
      compile(result_form, tail);
    pop_scope(mark);
  }

  /// Ordinary application with a symbol head. Lexical slots win;
  /// otherwise a head that resolves (now, in the captured environment)
  /// to a Builtin of the same name is burned in — fast opcode when the
  /// arity matches one, kCallBuiltin otherwise. Everything else stays
  /// a late-bound lookup so defun redefinition and mutual recursion
  /// keep tree-walker semantics.
  void compile_call_sym(Symbol* s, const std::vector<Value>& argforms,
                        bool tail) {
    const auto n = static_cast<std::int32_t>(argforms.size());
    if (s != ctx_.s_t && find_slot(s) < 0 && env_ != nullptr) {
      if (auto v = env_->lookup(s); v && v->is(Kind::Builtin)) {
        const auto* b = static_cast<const lisp::Builtin*>(v->obj());
        if (b->name == s->name) {
          for (Value a : argforms) compile(a, false);
          if (auto fast = fast_op(b->name, argforms.size()))
            emit(*fast, konst(*v));
          else
            emit(Op::kCallBuiltin, konst(*v), n);
          return;
        }
      }
    }
    compile_var(s);
    for (Value a : argforms) compile(a, false);
    emit(tail ? Op::kTailCall : Op::kCall, n);
  }

  lisp::Interp& interp_;
  sexpr::Ctx& ctx_;
  Symbol* const s_future_;
  Symbol* const s_defmacro_;
  Symbol* const s_defstruct_;
  Symbol* const s_incf_;
  Symbol* const s_decf_;
  Symbol* const s_push_;
  Symbol* const s_pop_;

  CodeObject* code_ = nullptr;
  const Env* env_ = nullptr;  ///< compile-time resolution environment
  std::vector<std::pair<Symbol*, int>> scope_;
  int next_slot_ = 0;
  int max_slots_ = 0;
};

}  // namespace

CompileResult compile_closure(lisp::Interp& interp,
                              const Closure* closure) {
  return Compiler(interp).run_closure(closure);
}

CompileResult compile_expr(lisp::Interp& interp, Value form,
                           const EnvPtr& env) {
  return Compiler(interp).run_expr(form, env);
}

}  // namespace curare::vm
