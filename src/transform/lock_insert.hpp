// Lock insertion (paper §3.2.1).
//
// "To ensure that I_i has exclusive use of M before I_j, Curare inserts a
// lock statement Lock(M) in the head of f and an unlock statement
// Unlock(M) in the body of f."
//
// Planning applies the paper's coalescing improvement: "if invocations
// conflict over a set of locations M1, M2, … Mm and all such sets are
// disjoint, then replace the m locks by a single lock" — realized here
// as: among the conflicting location paths of one root, a path that is a
// prefix of another subsumes it (the paper's l.car / l.car.cdr /
// l.car.cdr.car → lock l.car example).
//
// Code generation prepends the (%lock …) statements — in a fixed sorted
// order, giving two-phase acquisition — and places each (%unlock …)
// after the last statement that mentions the lock's root (§3.2.1's
// "as soon after … all uses of M"). A plan whose locked accesses all
// lie in the head can instead ride a work-first head loop, which places
// its locks itself (locks_only_in_head, transform/cri.hpp).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/conflict.hpp"
#include "analysis/function_info.hpp"
#include "sexpr/ctx.hpp"

namespace curare::transform {

using analysis::Conflict;
using analysis::ConflictReport;
using analysis::FieldPath;
using analysis::FunctionInfo;
using sexpr::Symbol;
using sexpr::Value;

struct LockSpec {
  Symbol* root = nullptr;  ///< parameter (structure lock) or variable
  FieldPath path;          ///< empty for variable locks
  bool variable = false;
  /// §3.2.1: "replace exclusive locks by read-write locks in cases in
  /// which more than one invocation reads M". A lock is exclusive only
  /// when the body writes at (or below) the location; read-only
  /// endpoints take shared locks.
  bool exclusive = true;

  std::string to_string() const {
    std::string s = variable ? "var " + root->name
                             : root->name + "." + path.to_string();
    return s + (exclusive ? " [write]" : " [read]");
  }
};

struct LockPlan {
  std::vector<LockSpec> locks;
  std::vector<std::string> notes;

  bool empty() const { return locks.empty(); }
};

/// Derive the lock set from a conflict report (conflicts the caller
/// still wants protected — reordered/delayed ones should be gone).
LockPlan plan_locks(sexpr::Ctx& ctx, const FunctionInfo& info,
                    const ConflictReport& report);

/// Rewrite the defun to acquire every planned lock at the top of its
/// body and release each after the last statement that mentions its
/// root. Returns the new defun form.
Value apply_lock_plan(sexpr::Ctx& ctx, Value defun_form,
                      const LockPlan& plan);

/// The (%lock …) and (%unlock …) statements of one planned lock. With a
/// `temp` variable, a structure lock's cell expression is evaluated
/// once, when the lock is taken — (%lock (setq temp CELL) …) — and the
/// unlock names temp, so it releases the cell that was locked even
/// after the variables CELL reads have moved on.
std::pair<Value, Value> lock_statements(sexpr::Ctx& ctx, const LockSpec& s,
                                        Value temp = Value::nil());

/// Whether a work-first head loop may carry the plan (transform/cri.hpp):
/// no reference that may run after the recursive call (the tail) takes
/// part in a conflict or touches a planned lock's location. Then every
/// locked access lies in the head, the loop orders those by running the
/// heads in invocation order on one server, and the tails conflict with
/// nothing. Decided from `info`'s references, callee summaries included.
bool locks_only_in_head(const FunctionInfo& info,
                        const ConflictReport& report, const LockPlan& plan);

}  // namespace curare::transform
