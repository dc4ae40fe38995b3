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

}  // namespace curare::transform
