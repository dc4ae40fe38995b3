#include "transform/lock_insert.hpp"

#include <algorithm>

#include "sexpr/list_ops.hpp"
#include "transform/build.hpp"

namespace curare::transform {

using sexpr::cadr;
using sexpr::caddr;
using sexpr::cddr;
using sexpr::cdr;
using sexpr::Kind;

namespace {
bool mentions_symbol(Value f, Symbol* s) {
  if (f.is(Kind::Symbol)) return f.obj() == s;
  while (f.is(Kind::Cons)) {
    if (mentions_symbol(sexpr::car(f), s)) return true;
    f = cdr(f);
  }
  return false;
}
}  // namespace

LockPlan plan_locks(sexpr::Ctx& ctx, const FunctionInfo& info,
                    const ConflictReport& report) {
  (void)ctx;
  (void)info;
  LockPlan plan;

  // Collect candidate locations: both endpoints of every structure
  // conflict, and each conflicting variable.
  std::vector<LockSpec> candidates;
  auto add_struct = [&](const analysis::StructRef& r) {
    if (r.path.is_empty()) return;  // whole-parameter: no location
    for (const LockSpec& s : candidates)
      if (!s.variable && s.root == r.root && s.path == r.path) return;
    candidates.push_back(LockSpec{r.root, r.path, false});
  };
  for (const Conflict& c : report.conflicts) {
    if (c.is_variable_conflict()) {
      bool dup = false;
      for (const LockSpec& s : candidates)
        dup |= s.variable && s.root == c.var;
      if (!dup) candidates.push_back(LockSpec{c.var, {}, true});
    } else if (c.is_array_conflict()) {
      // Coarse whole-array lock through the variable holding the
      // vector; per-element lock granularity is future work, noted so
      // the programmer understands the concurrency cost.
      bool dup = false;
      for (const LockSpec& s : candidates)
        dup |= s.variable && s.root == c.array;
      if (!dup) {
        candidates.push_back(LockSpec{c.array, {}, true});
        plan.notes.push_back("array conflict on " + c.array->name +
                             " protected by a whole-array lock");
      }
    } else {
      add_struct(c.earlier);
      add_struct(c.later);
    }
  }

  // Coalesce: shortest-prefix paths subsume their extensions.
  std::sort(candidates.begin(), candidates.end(),
            [](const LockSpec& a, const LockSpec& b) {
              if (a.variable != b.variable) return b.variable;
              if (a.path.size() != b.path.size())
                return a.path.size() < b.path.size();
              return a.to_string() < b.to_string();
            });
  for (const LockSpec& c : candidates) {
    bool subsumed = false;
    for (const LockSpec& kept : plan.locks) {
      if (!kept.variable && !c.variable && kept.root == c.root &&
          kept.path.prefix_of(c.path)) {
        subsumed = true;
        plan.notes.push_back("coalesced lock on " + c.to_string() +
                             " into " + kept.to_string());
        break;
      }
    }
    if (!subsumed) plan.locks.push_back(c);
  }

  // Mode selection (§3.2.1's read-write refinement): a lock covering a
  // location the body writes (at or below its path, since coalescing may
  // have widened it) must be exclusive; covers of read-only endpoints
  // take shared locks.
  // Collect every write reference visible to the planner: the
  // function's own refs plus the conflict endpoints (the latter matter
  // when a caller synthesizes a report directly).
  std::vector<const analysis::StructRef*> writes;
  for (const analysis::StructRef& r : info.refs)
    if (r.is_write) writes.push_back(&r);
  for (const Conflict& c : report.conflicts) {
    if (c.is_variable_conflict()) continue;
    if (c.earlier.is_write) writes.push_back(&c.earlier);
    if (c.later.is_write) writes.push_back(&c.later);
  }

  for (LockSpec& s : plan.locks) {
    if (s.variable) {
      s.exclusive = false;
      for (const analysis::VarRef& v : info.var_refs)
        if (v.var == s.root && v.is_write) s.exclusive = true;
      for (const Conflict& c : report.conflicts) {
        if (c.is_variable_conflict() && c.var == s.root &&
            (c.var_earlier.is_write || c.var_later.is_write)) {
          s.exclusive = true;
        }
        if (c.is_array_conflict() && c.array == s.root)
          s.exclusive = true;
      }
    } else {
      s.exclusive = false;
      for (const analysis::StructRef* r : writes) {
        if (r->root == s.root &&
            (s.path.prefix_of(r->path) ||
             (r->deep && r->path.prefix_of(s.path)))) {
          s.exclusive = true;
          break;
        }
      }
    }
    if (!s.exclusive)
      plan.notes.push_back("read lock suffices for " + s.to_string());
  }
  return plan;
}

std::pair<Value, Value> lock_statements(sexpr::Ctx& ctx, const LockSpec& s,
                                        Value temp) {
  if (s.variable) {
    // Variable locks are always exclusive at the runtime level; a
    // read-only variable never plans a lock (no conflict without a
    // write), so the mode refinement is moot here.
    Value var = quoted(ctx, Value::object(s.root));
    return {form(ctx, {sym(ctx, "%lock-var"), var}),
            form(ctx, {sym(ctx, "%unlock-var"), var})};
  }
  Value mode =
      quoted(ctx, ctx.symbols.intern_value(s.exclusive ? "write" : "read"));
  LocationExpr loc = location_expr(ctx, s.root, s.path);
  Value fieldq = quoted(ctx, Value::object(loc.field));
  Value taken = loc.cell;
  Value released = loc.cell;
  if (!temp.is_nil()) {
    taken = form(ctx, {sym(ctx, "setq"), temp, loc.cell});
    released = temp;
  }
  return {form(ctx, {sym(ctx, "%lock"), taken, fieldq, mode}),
          form(ctx, {sym(ctx, "%unlock"), released, fieldq, mode})};
}

bool locks_only_in_head(const FunctionInfo& info,
                        const ConflictReport& report, const LockPlan& plan) {
  // A tail reference that takes part in a conflict races with some
  // other invocation's access — locked, since every conflict left is.
  for (const Conflict& c : report.conflicts) {
    const bool tail_end =
        c.is_variable_conflict()
            ? c.var_earlier.after_call || c.var_later.after_call
        : c.is_array_conflict()
            ? c.arr_earlier.after_call || c.arr_later.after_call
            : c.earlier.after_call || c.later.after_call;
    if (tail_end) return false;
  }
  // And none touches a locked location of its own invocation. Under
  // worst-case parameter aliasing any structure reference might.
  for (const LockSpec& s : plan.locks) {
    if (s.variable) {
      for (const analysis::VarRef& v : info.var_refs)
        if (v.after_call && v.var == s.root) return false;
      for (const analysis::ArrayRef& a : info.array_refs)
        if (a.after_call && a.array == s.root) return false;
      continue;
    }
    for (const analysis::StructRef& r : info.refs) {
      if (!r.after_call) continue;
      if (report.cross_param_aliasing) return false;
      if (r.root == s.root &&
          (s.path.prefix_of(r.path) || (r.deep && r.path.prefix_of(s.path))))
        return false;
    }
  }
  return true;
}

Value apply_lock_plan(sexpr::Ctx& ctx, Value defun_form,
                      const LockPlan& plan) {
  if (plan.empty()) return defun_form;

  // (defun name (params) body...) → same with body wrapped in locks.
  Value name = cadr(defun_form);
  Value params = caddr(defun_form);
  Value body = cdr(cddr(defun_form));

  std::vector<Value> locks;
  std::vector<Value> unlocks;
  for (const LockSpec& s : plan.locks) {
    auto [lock, unlock] = lock_statements(ctx, s);
    locks.push_back(lock);
    unlocks.push_back(unlock);
  }
  std::vector<Value> new_body = locks;
  const std::size_t locks_end = new_body.size();
  for (Value f : sexpr::list_to_vector(body)) new_body.push_back(f);

  // §3.2.1's placement refinement: "move unlock statements so that they
  // execute as soon after their lock statements as possible — after all
  // uses of M and after all lock statements". Each unlock goes directly
  // after the last statement that mentions its root variable (a sound
  // over-approximation of "uses of M"), never before the lock section.
  // Inserting in reverse acquisition order keeps ties released in
  // reverse order.
  for (std::size_t k = plan.locks.size(); k-- > 0;) {
    Symbol* root = plan.locks[k].root;
    std::size_t insert_after = locks_end;  // just past the locks
    for (std::size_t i = locks_end; i < new_body.size(); ++i) {
      if (mentions_symbol(new_body[i], root)) insert_after = i + 1;
    }
    new_body.insert(new_body.begin() +
                        static_cast<std::ptrdiff_t>(insert_after),
                    unlocks[k]);
  }

  std::vector<Value> defun{Value::object(ctx.s_defun), name, params};
  defun.insert(defun.end(), new_body.begin(), new_body.end());
  return form(ctx, defun);
}

}  // namespace curare::transform
