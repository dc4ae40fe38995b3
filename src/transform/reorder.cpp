#include "transform/reorder.hpp"

#include <algorithm>

#include "sexpr/equal.hpp"
#include "sexpr/list_ops.hpp"
#include "sexpr/printer.hpp"
#include "transform/build.hpp"

namespace curare::transform {

using sexpr::as_symbol;
using sexpr::cadr;
using sexpr::caddr;
using sexpr::cddr;
using sexpr::cdr;
using sexpr::Kind;
using sexpr::Symbol;

namespace {

class Reorderer {
 public:
  Reorderer(sexpr::Ctx& ctx, const decl::Declarations& decls,
            const analysis::FunctionInfo& info)
      : ctx_(ctx), decls_(decls), info_(info) {}

  Value rewrite(Value f) {
    if (!f.is(Kind::Cons) || !sexpr::car(f).is(Kind::Symbol)) return f;
    const std::string& op = as_symbol(sexpr::car(f))->name;

    if (op == "quote" || op == "declare") return f;

    if (op == "setq" && sexpr::list_length(f) == 3) {
      if (Value r = try_rewrite_setq(f); !r.is_nil()) return r;
      return rebuild(f);
    }
    if (op == "setf" && sexpr::list_length(f) == 3) {
      if (Value r = try_rewrite_setf(f); !r.is_nil()) return r;
      return rebuild(f);
    }
    if (op == "incf" || op == "decf") {
      if (Value r = try_rewrite_incf(f, op == "decf"); !r.is_nil())
        return r;
      return rebuild(f);
    }
    if (op == "push") {
      if (Value r = try_rewrite_push(f); !r.is_nil()) return r;
      return rebuild(f);
    }
    return rebuild(f);
  }

  int rewritten() const { return rewritten_; }
  std::vector<std::string> take_notes() { return std::move(notes_); }

 private:
  Value rebuild(Value f) {
    std::vector<Value> out;
    for (Value rest = f; !rest.is_nil(); rest = cdr(rest))
      out.push_back(rewrite(sexpr::car(rest)));
    return form(ctx_, out);
  }

  /// (setq v (op ... v ...)) with v free and op reorderable.
  Value try_rewrite_setq(Value f) {
    if (!cadr(f).is(Kind::Symbol)) return Value::nil();
    Symbol* var = static_cast<Symbol*>(cadr(f).obj());
    if (info_.param_index(var) >= 0) return Value::nil();
    Value val = caddr(f);
    Symbol* op = update_op_of(val, Value::object(var));
    if (op == nullptr || !decls_.is_reorderable_op(op))
      return Value::nil();

    std::vector<Value> others = args_without(val, Value::object(var));
    ++rewritten_;
    notes_.push_back("reordered " + sexpr::write_str(f) +
                     " into an atomic update (§3.2.3)");
    if (op->name == "+") {
      // (%atomic-incf-var 'v (+ others…))
      Value delta = others.size() == 1
                        ? others[0]
                        : form_plus(others);
      return form(ctx_, {sym(ctx_, "%atomic-incf-var"),
                         quoted(ctx_, Value::object(var)), delta});
    }
    // (%locked-update-var 'v (lambda (%old) (op %old others…)))
    return form(ctx_, {sym(ctx_, "%locked-update-var"),
                       quoted(ctx_, Value::object(var)),
                       update_lambda(op, others)});
  }

  /// (setf PLACE (op ... PLACE ...)) with a resolvable place.
  Value try_rewrite_setf(Value f) {
    Value place = cadr(f);
    auto rp = analysis::resolve_accessor(ctx_, place);
    if (!rp || rp->path.is_empty()) return Value::nil();
    Value val = caddr(f);
    Symbol* op = update_op_of(val, place);
    if (op == nullptr || !decls_.is_reorderable_op(op))
      return Value::nil();

    LocationExpr loc = location_expr(ctx_, rp->root, rp->path);
    std::vector<Value> others = args_without(val, place);
    ++rewritten_;
    notes_.push_back("reordered " + sexpr::write_str(f) +
                     " into an atomic location update (§3.2.3)");
    if (op->name == "+") {
      Value delta = others.size() == 1 ? others[0] : form_plus(others);
      return form(ctx_, {sym(ctx_, "%atomic-add"), loc.cell,
                         quoted(ctx_, Value::object(loc.field)), delta});
    }
    return form(ctx_, {sym(ctx_, "%locked-update"), loc.cell,
                       quoted(ctx_, Value::object(loc.field)),
                       update_lambda(op, others)});
  }

  /// (incf PLACE [k]) / (decf PLACE [k]): additive updates are always
  /// reorderable (+ is declared by default), so rewrite to the atomic
  /// primitives. decf negates its delta.
  Value try_rewrite_incf(Value f, bool negate) {
    if (!decls_.is_reorderable_op(ctx_.symbols.intern("+")))
      return Value::nil();
    Value place = cadr(f);
    Value delta = cddr(f).is_nil() ? Value::fixnum(1) : caddr(f);
    if (negate) {
      if (delta.is_fixnum()) {
        delta = Value::fixnum(-delta.as_fixnum());
      } else {
        delta = form(ctx_, {sym(ctx_, "-"), delta});
      }
    }
    if (place.is(Kind::Symbol)) {
      Symbol* var = static_cast<Symbol*>(place.obj());
      if (info_.param_index(var) >= 0) return Value::nil();
      ++rewritten_;
      notes_.push_back("reordered " + sexpr::write_str(f) +
                       " into an atomic update (§3.2.3)");
      return form(ctx_, {sym(ctx_, "%atomic-incf-var"),
                         quoted(ctx_, Value::object(var)), delta});
    }
    auto rp = analysis::resolve_accessor(ctx_, place);
    if (!rp || rp->path.is_empty()) return Value::nil();
    LocationExpr loc = location_expr(ctx_, rp->root, rp->path);
    ++rewritten_;
    notes_.push_back("reordered " + sexpr::write_str(f) +
                     " into an atomic location update (§3.2.3)");
    return form(ctx_, {sym(ctx_, "%atomic-add"), loc.cell,
                       quoted(ctx_, Value::object(loc.field)), delta});
  }

  /// (push ITEM VAR) with VAR declared unordered: the insert's order
  /// doesn't matter (§3.2.3's second class), so a locked prepend is
  /// enough.
  Value try_rewrite_push(Value f) {
    Value place = caddr(f);
    if (!place.is(Kind::Symbol)) return Value::nil();
    Symbol* var = static_cast<Symbol*>(place.obj());
    if (info_.param_index(var) >= 0) return Value::nil();
    if (!decls_.is_unordered_insert(var)) return Value::nil();
    ++rewritten_;
    notes_.push_back("reordered " + sexpr::write_str(f) +
                     ": push onto declared-unordered " + var->name +
                     " (§3.2.3)");
    Value old_var = sym(ctx_, "%old");
    return form(ctx_,
                {sym(ctx_, "%locked-update-var"),
                 quoted(ctx_, Value::object(var)),
                 form(ctx_, {Value::object(ctx_.s_lambda),
                             ctx_.make_list(old_var),
                             form(ctx_, {sym(ctx_, "cons"), cadr(f),
                                         old_var})})});
  }

  /// If `val` is (op args…) with exactly one arg structurally equal to
  /// `self`, return op.
  Symbol* update_op_of(Value val, Value self) {
    if (!val.is(Kind::Cons) || !sexpr::car(val).is(Kind::Symbol))
      return nullptr;
    int hits = 0;
    for (Value a = cdr(val); !a.is_nil(); a = cdr(a))
      if (sexpr::equal_values(sexpr::car(a), self)) ++hits;
    return hits == 1 ? as_symbol(sexpr::car(val)) : nullptr;
  }

  std::vector<Value> args_without(Value val, Value self) {
    std::vector<Value> out;
    bool skipped = false;
    for (Value a = cdr(val); !a.is_nil(); a = cdr(a)) {
      if (!skipped && sexpr::equal_values(sexpr::car(a), self)) {
        skipped = true;
        continue;
      }
      out.push_back(sexpr::car(a));
    }
    return out;
  }

  Value form_plus(const std::vector<Value>& others) {
    std::vector<Value> plus{sym(ctx_, "+")};
    plus.insert(plus.end(), others.begin(), others.end());
    return form(ctx_, plus);
  }

  /// (lambda (%old) (op %old others…))
  Value update_lambda(Symbol* op, const std::vector<Value>& others) {
    Value old_var = sym(ctx_, "%old");
    std::vector<Value> call{Value::object(op), old_var};
    call.insert(call.end(), others.begin(), others.end());
    return form(ctx_, {Value::object(ctx_.s_lambda),
                       ctx_.make_list(old_var), form(ctx_, call)});
  }

  sexpr::Ctx& ctx_;
  const decl::Declarations& decls_;
  const analysis::FunctionInfo& info_;
  int rewritten_ = 0;
  std::vector<std::string> notes_;
};

}  // namespace

ReorderResult apply_reorder(sexpr::Ctx& ctx,
                            const decl::Declarations& decls,
                            const analysis::FunctionInfo& info) {
  Reorderer r(ctx, decls, info);
  ReorderResult result;
  result.defun = r.rewrite(info.defun_form);
  result.rewritten = r.rewritten();
  result.notes = r.take_notes();
  return result;
}

std::string mixed_update_conflict(const decl::Declarations& decls,
                                  const analysis::ConflictReport& report) {
  for (const analysis::Conflict& c : report.conflicts) {
    if (c.is_array_conflict()) continue;
    const bool var = c.is_variable_conflict();
    const bool writes = var ? c.var_earlier.is_write && c.var_later.is_write
                            : c.earlier.is_write && c.later.is_write;
    Symbol* a = var ? c.var_earlier.update_op : c.earlier.update_op;
    Symbol* b = var ? c.var_later.update_op : c.later.update_op;
    if (!writes || a == nullptr || b == nullptr || a == b ||
        !(decls.is_reorderable_op(a) || decls.is_reorderable_op(b)))
      continue;
    const std::string where =
        var ? c.var->name
            : c.earlier.root->name + "." + c.earlier.path.to_string();
    return where + " is updated by both " +
           sexpr::write_str(var ? c.var_earlier.form : c.earlier.form) +
           " and " +
           sexpr::write_str(var ? c.var_later.form : c.later.form) + "; " +
           a->name + " and " + b->name +
           " do not commute with each other, so neither update may be "
           "reordered (§3.2.3)";
  }
  return {};
}

namespace {

/// v when `f` is (OP (quote v) …) for one of `ops`.
Symbol* quoted_var_of(Value f, std::initializer_list<std::string_view> ops) {
  if (!f.is(Kind::Cons) || !sexpr::car(f).is(Kind::Symbol)) return nullptr;
  const std::string& op = as_symbol(sexpr::car(f))->name;
  if (std::find(ops.begin(), ops.end(), op) == ops.end()) return nullptr;
  if (!cdr(f).is(Kind::Cons)) return nullptr;
  Value q = cadr(f);
  if (!q.is(Kind::Cons) || !sexpr::car(q).is(Kind::Symbol) ||
      as_symbol(sexpr::car(q))->name != "quote" || !cdr(q).is(Kind::Cons) ||
      !cadr(q).is(Kind::Symbol))
    return nullptr;
  return as_symbol(cadr(q));
}

void collect_locked_vars(Value f, std::vector<Symbol*>& out) {
  if (!f.is(Kind::Cons)) return;
  if (Symbol* v = quoted_var_of(f, {"%lock-var", "%locked-update-var"})) {
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  if (sexpr::car(f).is(Kind::Symbol) &&
      as_symbol(sexpr::car(f))->name == "quote")
    return;
  for (Value a = f; a.is(Kind::Cons); a = cdr(a))
    collect_locked_vars(sexpr::car(a), out);
}

Value relock(sexpr::Ctx& ctx, Value f, const std::vector<Symbol*>& locked) {
  if (!f.is(Kind::Cons)) return f;
  if (sexpr::car(f).is(Kind::Symbol) &&
      as_symbol(sexpr::car(f))->name == "quote")
    return f;
  std::vector<Value> out;
  for (Value a = f; a.is(Kind::Cons); a = cdr(a))
    out.push_back(relock(ctx, sexpr::car(a), locked));
  Symbol* v = quoted_var_of(f, {"%atomic-incf-var"});
  if (v != nullptr && out.size() == 3 &&
      std::find(locked.begin(), locked.end(), v) != locked.end()) {
    // (%locked-update-var 'v (lambda (%old) (+ %old delta)))
    Value old_var = sym(ctx, "%old");
    return form(ctx, {sym(ctx, "%locked-update-var"), out[1],
                      form(ctx, {Value::object(ctx.s_lambda),
                                 ctx.make_list(old_var),
                                 form(ctx, {sym(ctx, "+"), old_var,
                                            out[2]})})});
  }
  return form(ctx, out);
}

}  // namespace

std::vector<Value> lock_shared_increments(sexpr::Ctx& ctx,
                                          std::vector<Value> forms) {
  std::vector<Symbol*> locked;
  for (Value f : forms) collect_locked_vars(f, locked);
  if (locked.empty()) return forms;
  for (Value& f : forms) f = relock(ctx, f, locked);
  return forms;
}

}  // namespace curare::transform
