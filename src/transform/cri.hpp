// CRI code generation (paper §3.1 / §4).
//
// Turns a (possibly lock-inserted / delayed / reordered) recursive
// function into the server-body form the runtime's pool executes:
// every self-recursive call (f ARGS…) becomes (%cri-enqueue SITE ARGS…) —
// "a recursive call is the creation of a new process to execute the
// subsequent invocation asynchronously" — and a wrapper starts the pool:
//
//   (defun f$cri (%dest params…) BODY-with-enqueues)
//   (defun f$parallel (%servers params…)
//     (if (%cri-parallel-p f$cri %servers [CAP])
//         (let ((%d (cons nil nil)))
//           (%cri-run f$cri NSITES %servers %d params…)
//           (cdr %d))
//         (f params…)))
//
// %cri-parallel-p is the §4.1 choice (runtime.hpp run_in_parallel):
// once f$cri has run, a call whose measured h and t give one server
// runs the original defun f instead. CAP, the enqueue form's minimum
// conflict distance, bounds S there; a head loop has none.
//
// The function's value travels in one channel, the destination cell
// (§5's destination-passing style made the general case). A tail-position
// recursive call passes the caller's %dest; a statement-position call
// passes nil. A value-producing tail expression is stored into
// (cdr %dest) when %dest is non-nil — the paper's "changing the single
// return that produces a value into an assignment". Only I_0's tail-call
// chain holds the cell, so exactly one invocation writes it: the one
// whose value the sequential program returns.
//
// An input whose first parameter is already %dest (the DPS output) is in
// destination form: its calls and stores are kept as they are, and its
// wrapper is named after the function DPS rewrote (f$dps → f$parallel).
//
// Work-first form. A plan with exactly one recursive call site, and
// either no lock or only locks whose accesses all lie in the head, runs
// its heads as a loop on one server instead (Cilk's work-first
// principle; lazy task creation in Mul-T): the chain of heads never
// crosses a thread, and only tails — which nothing waits on — become
// tasks. f$cri then loops:
//
//   (defun f$cri (%dest params…)
//     (%lock-var 'v) …          ; variable locks: once, around the loop
//     (let ((%next t) (%a0 nil) … (%m0 nil) …)
//       (while %next
//         (setq %next nil)
//         (%lock (setq %m0 CELL) 'field 'mode) …  ; structure locks
//         HEAD…                 ; at the call site:
//           (%unlock %m0 'field 'mode) …
//           (%cri-tail f$tail %dest params… let-vars…)
//           (setq %a0 ARG0) … (setq %dest nil) (setq %next t)
//         (unless %next (%unlock %m0 'field 'mode) …)
//         (when %next (setq param0 %a0) …)))
//     (%unlock-var 'v) …)
//
// (An argument that passes its parameter unchanged is not assigned; a
// single changed one is assigned at the call site, without a temporary.)
//   (defun f$tail (%dest params… %b0 …)
//     (let ((let-var0 %b0) …) POST-CALL-STATEMENTS…) OUTER-REST…)
//
// The post-call statements (the tail) move into f$tail, which gets the
// parameters, the let bindings in scope and the destination. Statements
// that follow the call's enclosing form in an outer sequence run in the
// head only when the call was not reached — (unless %next …) — and in
// the tail otherwise. A tail-position call has no tail: its site is a
// bare (%cri-tail), which keeps %dest for the successor. Shapes the loop
// cannot express keep the enqueue form: a let that shadows a parameter
// or another binding on the call's path, a lambda list with
// &rest/&optional, a call whose argument count differs from the
// parameter count, and a head that makes a closure (a lambda or future
// outside the tail would share the loop's one frame).
//
// The loop runs the heads in invocation order on one thread, so it
// orders their locked accesses by itself; the locks stay for other
// threads. A structure lock's location is evaluated once, when taken:
// the head may change what its expression reads, and the argument shift
// does.
//
// Functions that use a recursive call's result in an embedded position
// are rejected here (the §5 enabling transformations — rec2iter, DPS —
// must run first).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/extract.hpp"
#include "sexpr/ctx.hpp"
#include "transform/lock_insert.hpp"

namespace curare::transform {

struct CriResult {
  bool ok = false;
  std::string failure;  ///< §6 feedback when not transformable
  sexpr::Value server_defun;
  sexpr::Value wrapper_defun;
  sexpr::Symbol* server_name = nullptr;
  sexpr::Symbol* wrapper_name = nullptr;
  std::size_t num_sites = 0;
  /// The server is a head loop (work-first form).
  bool work_first = false;
  /// f$tail, when the work-first server queues tails (nil/null when the
  /// head loop has no post-call statements, or on the enqueue path).
  sexpr::Value tail_defun;
  sexpr::Symbol* tail_name = nullptr;
  std::vector<std::string> notes;
};

/// `locks`: the plan's §3.2.1 locks. The enqueue form takes them at the
/// top of the body (apply_lock_plan). A lock plan gets the work-first
/// form only when `locks_in_head` (locks_only_in_head, lock_insert.hpp):
/// a lock is owned by a thread, so a lock the tail needs could not be
/// released by a tail running on another server. `concurrency_cap`,
/// the plan's minimum conflict distance, goes into the wrapper's choice
/// of S for the enqueue form.
CriResult make_cri(sexpr::Ctx& ctx, const analysis::FunctionInfo& info,
                   const LockPlan& locks = {}, bool locks_in_head = false,
                   std::optional<int> concurrency_cap = std::nullopt);

}  // namespace curare::transform
