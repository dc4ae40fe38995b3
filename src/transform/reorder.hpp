// The reordering transformation (paper §3.2.3).
//
// "Some conflicts between statements impose constraints that are
// stronger than necessary for correct execution. … The first type is
// atomic, commutative, and associative operations, such as addition."
//
// Declared-reorderable updates are rewritten into synchronized
// primitives, after which the ordering constraint disappears (run
// again over the rewritten defun, the conflict detector no longer
// sees the %atomic-* / %locked-update-* forms as conflicting):
//
//   (setq v (+ v e…))            → (%atomic-incf-var 'v (+ e…))
//   (setq v (op v e…))           → (%locked-update-var 'v (λ (%old) (op %old e…)))
//   (setf (acc l) (+ (acc l) e…))→ (%atomic-add cell 'field (+ e…))
//   (setf (acc l) (op … ))       → (%locked-update cell 'field (λ …))
//
// Unordered-collection inserts (puthash et al.) and declared any-result
// searches need no rewriting: the collections are internally
// synchronized and the detector already knows these impose no order.
#pragma once

#include <string>
#include <vector>

#include "analysis/conflict.hpp"
#include "analysis/extract.hpp"
#include "decl/declarations.hpp"
#include "sexpr/ctx.hpp"

namespace curare::transform {

struct ReorderResult {
  sexpr::Value defun;   ///< rewritten defun (same name)
  int rewritten = 0;    ///< update statements converted
  std::vector<std::string> notes;
};

ReorderResult apply_reorder(sexpr::Ctx& ctx,
                            const decl::Declarations& decls,
                            const analysis::FunctionInfo& info);

/// A reorderable update commutes only with updates by its own operator:
/// (+ v 1) and (* v 2) give different values in either order. When the
/// report pairs two updates of one location by different operators, at
/// least one of them reorderable, returns feedback naming both
/// statements, and the plan must be refused: reordering either one
/// changes the result. Empty otherwise.
std::string mixed_update_conflict(const decl::Declarations& decls,
                                  const analysis::ConflictReport& report);

/// (%atomic-incf-var 'v …) is a CAS on v's cell, which neither a held
/// (%lock-var 'v) nor a (%locked-update-var 'v …) excludes. Where the
/// generated `forms` also lock v either way, rewrite the increment to
/// the locked update (%locked-update-var 'v (lambda (%old) (+ %old …))),
/// which takes v's lock. Returns the forms.
std::vector<sexpr::Value> lock_shared_increments(
    sexpr::Ctx& ctx, std::vector<sexpr::Value> forms);

}  // namespace curare::transform
