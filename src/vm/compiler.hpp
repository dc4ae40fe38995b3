// One-pass compiler from s-expression bodies to flat bytecode.
//
// Coverage is deliberately partial: the compiler handles the
// expression subset that transformed-program bodies run (calls,
// arithmetic, let/let*, setq, if/cond/and/or/when/unless,
// while/dotimes/dolist, quote, and setf/incf/decf/push/pop on every
// place Interp::setf_place accepts — symbols, c[ad]+r, nth, gethash,
// aref and struct fields) and *refuses* everything else — lambda,
// defun, defstruct, defmacro, future, places setf_place would reject.
// A refusal is not an error: the caller caches the verdict on the
// Closure and the tree-walking interpreter remains the single source
// of truth for those forms. The differential corpus test holds the
// two engines to identical results, output, and error messages.
//
// A struct-field place resolves to its type and slot at compile time
// (a field name belongs to one struct type for the life of an
// Interp); a name that is not a field yet refuses, so a defstruct that
// comes later is seen by the tree-walker.
//
// Resolution happens once, at first call. Lexical variables become
// frame slots. A head symbol that resolves to a Builtin of the same
// name is burned in (fast opcode or kCallBuiltin) — redefining a core
// builtin after a body has been compiled does not retro-patch that
// body (documented in DESIGN.md §13); every other head compiles to a
// late-bound environment lookup, so defun redefinition and mutual
// recursion behave exactly as in the tree-walker.
#pragma once

#include <memory>
#include <string>

#include "lisp/env.hpp"
#include "lisp/interp.hpp"
#include "vm/bytecode.hpp"

namespace curare::vm {

/// Outcome of a compilation attempt: `code` set on success, otherwise
/// `why` names the first unsupported form (for diagnostics/tests).
struct CompileResult {
  std::shared_ptr<const CodeObject> code;
  std::string why;
};

/// Compile a closure's body. Parameters map to slots 0..n-1 (the &rest
/// parameter, when present, to the next slot). Free variables resolve
/// against the closure's captured environment.
CompileResult compile_closure(lisp::Interp& interp,
                              const lisp::Closure* closure);

/// Compile one top-level expression evaluated in `env`.
CompileResult compile_expr(lisp::Interp& interp, Value form,
                           const lisp::EnvPtr& env);

}  // namespace curare::vm
