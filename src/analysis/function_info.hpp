// Analysis IR for one recursive function (paper §2–3).
//
// The extractor walks a defun and produces:
//   * StructRef — every structure access/modification, as the paper's
//     (accessor, instance) pairs: a root parameter plus a FieldPath.
//     `deep` marks references that touch everything reachable below the
//     path (print traverses its argument; a call to an unanalyzed
//     function might read or write anywhere below).
//   * RecCall — every self-recursive call site, with the accessor path
//     each argument applies to its parameter (the raw material of the
//     transfer function τ).
//   * warnings — the paper's §6 feedback: what stopped the analysis and
//     what declaration would unblock it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/array.hpp"
#include "analysis/field_path.hpp"
#include "analysis/path_regex.hpp"
#include "sexpr/ctx.hpp"
#include "sexpr/list_ops.hpp"
#include "sexpr/value.hpp"

namespace curare::analysis {

using sexpr::Symbol;
using sexpr::Value;

struct StructRef {
  Symbol* root = nullptr;  ///< parameter the path is rooted at
  FieldPath path;
  bool is_write = false;
  bool deep = false;       ///< touches the whole substructure below path
  Value form;              ///< source expression, for reporting
  int stmt_index = -1;     ///< pre-order statement id
  /// May run after a recursive call of the same invocation: it follows
  /// the call's form in an enclosing sequence, or shares a loop with it.
  /// A work-first head loop runs such references in the tail.
  bool after_call = false;
  /// When the write has the shape (setf P (op ... P ...)), the update
  /// operator — the candidate for the reordering transformation.
  Symbol* update_op = nullptr;

  std::string to_string() const {
    std::string s = root ? root->name : "?";
    if (!path.is_empty()) s += "." + path.to_string();
    if (is_write) s += " [write]";
    if (deep) s += " [deep]";
    return s;
  }
};

/// A read or write of a free (global) variable inside the function body.
/// Conflicts among these are the paper's "conflicts among uses of
/// variables" — easy to detect, and at distance 1 (every pair of
/// invocations touches the same cell).
struct VarRef {
  Symbol* var = nullptr;
  bool is_write = false;
  Value form;
  int stmt_index = -1;
  bool after_call = false;  ///< as StructRef::after_call
  /// For writes of the shape (setq v (op ... v ...)): the update
  /// operator (Fig. 8's reorderable increment).
  Symbol* update_op = nullptr;
};

struct RecCall {
  Value form;
  int stmt_index = -1;
  int site_index = -1;     ///< 0-based call-site number in source order
  bool result_used = false;  ///< not a "free call" (paper §3.1)
  /// Per parameter: the accessor path the argument applies to that same
  /// parameter, or nullopt when the argument is not such an accessor
  /// (worst case τ = Σ* for that parameter).
  std::vector<std::optional<FieldPath>> arg_paths;
};

struct FunctionInfo {
  Symbol* name = nullptr;
  std::vector<Symbol*> params;
  Value defun_form;
  Value body;  ///< list of body forms (declares skipped)

  std::vector<StructRef> refs;
  std::vector<VarRef> var_refs;
  std::vector<ArrayRef> array_refs;
  std::vector<RecCall> rec_calls;

  /// Parameters that are reassigned (setq) in the body — their transfer
  /// functions degrade to Σ*.
  std::vector<Symbol*> dirty_params;

  std::vector<std::string> warnings;
  bool analyzable = true;  ///< false => worst-case everywhere (set/eval…)

  bool is_recursive() const { return !rec_calls.empty(); }

  bool is_dirty(Symbol* p) const {
    for (Symbol* d : dirty_params)
      if (d == p) return true;
    return false;
  }

  int param_index(Symbol* p) const {
    for (std::size_t i = 0; i < params.size(); ++i)
      if (params[i] == p) return static_cast<int>(i);
    return -1;
  }

  /// The single-step transfer function τ_p for parameter p: the
  /// alternation over call sites of the argument accessor, Σ* when any
  /// site passes something unanalyzable or p is dirty (paper §2.1).
  /// Returns nullptr when the function has no recursive calls.
  RegexPtr step_transfer(Symbol* p) const {
    if (rec_calls.empty()) return nullptr;
    const int idx = param_index(p);
    if (idx < 0) return nullptr;
    if (!analyzable || is_dirty(p)) return PathRegex::any_star();
    std::vector<RegexPtr> alts;
    for (const RecCall& c : rec_calls) {
      const auto& ap = c.arg_paths[static_cast<std::size_t>(idx)];
      if (!ap.has_value()) return PathRegex::any_star();
      alts.push_back(PathRegex::word(*ap));
    }
    return PathRegex::alt(std::move(alts));
  }

  /// τ_p as the paper writes it for reporting: a⁺ for the single-site
  /// case, (a1|a2|…)⁺ in general.
  RegexPtr transfer_closure(Symbol* p) const {
    RegexPtr step = step_transfer(p);
    return step ? PathRegex::plus(step) : nullptr;
  }

  /// The constant per-invocation step δ of an induction parameter (the
  /// FORTRAN-style numeric analogue of τ): (f … (+ n δ) …) at every call
  /// site. nullopt when any site steps non-affinely or sites disagree.
  std::optional<std::int64_t> induction_step(sexpr::Ctx& ctx,
                                             Symbol* p) const {
    const int idx = param_index(p);
    if (idx < 0 || rec_calls.empty() || is_dirty(p)) return std::nullopt;
    std::optional<std::int64_t> step;
    for (const RecCall& c : rec_calls) {
      Value arg = sexpr::nth(sexpr::cdr(c.form),
                             static_cast<std::size_t>(idx));
      auto aff = parse_affine(ctx, arg);
      if (!aff || aff->var != p || aff->coef != 1) return std::nullopt;
      if (step && *step != aff->offset) return std::nullopt;
      step = aff->offset;
    }
    return step;
  }
};

}  // namespace curare::analysis
