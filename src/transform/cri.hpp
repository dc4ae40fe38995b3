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
//     (let ((%d (cons nil nil)))
//       (%cri-run f$cri NSITES %servers %d params…)
//       (cdr %d)))
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
// Functions that use a recursive call's result in an embedded position
// are rejected here (the §5 enabling transformations — rec2iter, DPS —
// must run first).
#pragma once

#include <string>
#include <vector>

#include "analysis/extract.hpp"
#include "sexpr/ctx.hpp"

namespace curare::transform {

struct CriResult {
  bool ok = false;
  std::string failure;  ///< §6 feedback when not transformable
  sexpr::Value server_defun;
  sexpr::Value wrapper_defun;
  sexpr::Symbol* server_name = nullptr;
  sexpr::Symbol* wrapper_name = nullptr;
  std::size_t num_sites = 0;
  std::vector<std::string> notes;
};

CriResult make_cri(sexpr::Ctx& ctx, const analysis::FunctionInfo& info);

}  // namespace curare::transform
