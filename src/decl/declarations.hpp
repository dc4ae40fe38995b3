// Programmer-supplied declarations (paper §6).
//
// Curare "accepts programmer-supplied declarations in place of
// information that is impossible to collect mechanically". The registry
// holds every kind of advice the paper enumerates:
//
//   * which structure fields point to other instances vs. carry data,
//   * canonicalization information — pairs of inverse fields
//     (succ/pred) whose adjacent composition collapses (§2.1),
//   * operation properties licensing reordering (§3.2.3): commutative,
//     associative, atomic (or atomizable with a lock),
//   * unordered-collection insertion operations,
//   * any-result search functions,
//   * SAPP assertions — function parameters whose argument satisfies the
//     Single Access Path Property (its reachable structure is a tree),
//   * restructure hints (transform this function / leave it alone).
//
// Declarations arrive either programmatically or as Lisp forms:
//
//   (curare-declare
//     (structure node (pointers next prev) (data val))
//     (inverse next prev)
//     (commutative + *) (associative + *) (atomic + *)
//     (unordered puthash)
//     (any-search find-any)
//     (sapp f l)
//     (restructure f) (no-restructure g))
//
// and inline in a defun body:  (declare (curare (sapp l) (commutative +)))
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sexpr/ctx.hpp"
#include "sexpr/value.hpp"

namespace curare::decl {

using sexpr::Symbol;
using sexpr::Value;

struct StructDecl {
  Symbol* name = nullptr;
  std::vector<Symbol*> pointer_fields;  ///< fields linking to instances
  std::vector<Symbol*> data_fields;     ///< fields holding other data
};

class Declarations {
 public:
  /// Constructs with the defaults every Lisp program gets: the list-cell
  /// structure whose car and cdr are both pointer fields (paper §2.2
  /// assumes "both fields point only to other list cells"), and the
  /// arithmetic ops + and * declared commutative, associative, atomic.
  explicit Declarations(sexpr::Ctx& ctx);

  // ---- structures -------------------------------------------------------
  void declare_structure(Symbol* name, std::vector<Symbol*> pointer_fields,
                         std::vector<Symbol*> data_fields);
  const StructDecl* structure(Symbol* name) const;
  /// Field classification across all declared structures (the paper's
  /// single-structure simplification: accessor names are unique).
  bool is_pointer_field(Symbol* field) const;
  bool is_known_field(Symbol* field) const;

  // ---- canonicalization -------------------------------------------------
  void declare_inverse(Symbol* f, Symbol* g);
  /// The declared inverse of `f`, or nullptr.
  Symbol* inverse_of(Symbol* f) const;

  // ---- operation properties (reordering, §3.2.3) -----------------------
  void declare_commutative(Symbol* op) { commutative_.insert(op); }
  void declare_associative(Symbol* op) { associative_.insert(op); }
  void declare_atomic(Symbol* op) { atomic_.insert(op); }
  bool is_commutative(Symbol* op) const { return commutative_.contains(op); }
  bool is_associative(Symbol* op) const { return associative_.contains(op); }
  bool is_atomic(Symbol* op) const { return atomic_.contains(op); }
  /// All three at once — the licence for the reorder transformation.
  bool is_reorderable_op(Symbol* op) const {
    return is_commutative(op) && is_associative(op) && is_atomic(op);
  }

  // ---- unordered-collection inserts --------------------------------------
  void declare_unordered_insert(Symbol* op) { unordered_.insert(op); }
  bool is_unordered_insert(Symbol* op) const {
    return unordered_.contains(op);
  }

  // ---- any-result searches ------------------------------------------------
  void declare_any_search(Symbol* fn) { any_search_.insert(fn); }
  bool is_any_search(Symbol* fn) const { return any_search_.contains(fn); }

  // ---- SAPP assertions ------------------------------------------------------
  void declare_sapp(Symbol* fn, Symbol* param);
  bool has_sapp(Symbol* fn, Symbol* param) const;

  // ---- parameter aliasing ---------------------------------------------------
  /// Assert that the function's parameters reach pairwise-disjoint
  /// structures. Without it the analyzer "must assume the worst possible
  /// aliasing between input parameters" (paper §1.3) whenever two
  /// parameters are both dereferenced and one is written.
  void declare_noalias(Symbol* fn) { noalias_.insert(fn); }
  bool has_noalias(Symbol* fn) const { return noalias_.contains(fn); }

  // ---- restructure hints ------------------------------------------------------
  void declare_restructure(Symbol* fn, bool enable);
  std::optional<bool> restructure_hint(Symbol* fn) const;

  // ---- Lisp-form loading ---------------------------------------------------
  /// Load a (curare-declare decl...) form. Throws LispError on malformed
  /// declarations (bad advice must be loud, not silently ignored).
  void load(Value form);
  /// Load one declaration clause, with `fn` as the implied function for
  /// fn-scoped clauses (used for inline (declare (curare ...)) forms).
  void load_clause(Value clause, Symbol* implied_fn);
  /// Load one top-level form's declarations: a (curare-declare ...)
  /// form, or the (declare (curare ...)) forms at the head of a defun
  /// body. Any other form declares nothing.
  void load_form(Value form);

 private:
  std::unordered_map<Symbol*, StructDecl> structures_;
  std::unordered_map<Symbol*, Symbol*> inverses_;
  std::unordered_set<Symbol*> commutative_;
  std::unordered_set<Symbol*> associative_;
  std::unordered_set<Symbol*> atomic_;
  std::unordered_set<Symbol*> unordered_;
  std::unordered_set<Symbol*> any_search_;
  std::unordered_map<Symbol*, std::unordered_set<Symbol*>> sapp_params_;
  std::unordered_set<Symbol*> noalias_;
  std::unordered_map<Symbol*, bool> restructure_;
};

}  // namespace curare::decl
