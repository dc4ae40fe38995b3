// Conflict detection between invocations of a recursive function
// (paper §2.1–2.2).
//
// The test is the paper's prefix relation, generalized to regular
// transfer functions: references r1 (in invocation i) and r2 (in
// invocation i+d) over the same root parameter conflict at distance d
// when the written location of one lies on the traversal of the other,
// after translating r2's accessor by τ^d:
//
//     r1 writes:  A1 ≤ some word of L(τ^d · A2)
//     r2 writes:  some word of L(τ^d · A2) ≤ A1
//
// `deep` references (print-style traversals, worst-cased calls) touch
// the whole substructure below their path, which widens the test to
// both prefix directions.
//
// Free-variable conflicts (both invocations touch the same global cell)
// are reported at distance 1.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/function_info.hpp"
#include "decl/declarations.hpp"
#include "sexpr/ctx.hpp"

namespace curare::analysis {

enum class DepKind { Flow, Anti, Output };

const char* dep_kind_name(DepKind k);

struct Conflict {
  /// Earlier-invocation reference (structure locus) — unused for
  /// variable conflicts.
  StructRef earlier;
  StructRef later;
  /// Variable locus (set for free-variable conflicts).
  Symbol* var = nullptr;
  VarRef var_earlier;
  VarRef var_later;

  /// Array locus (set for subscripted array conflicts, §2's
  /// FORTRAN-style analysis).
  Symbol* array = nullptr;
  ArrayRef arr_earlier;
  ArrayRef arr_later;

  DepKind kind = DepKind::Flow;
  /// Minimum conflicting distance d ≥ 1; kUnbounded when the conflict
  /// exists only at some distance beyond the search bound (τ contains a
  /// star and no finite witness ≤ 16 was found).
  int distance = 1;
  static constexpr int kUnbounded = -1;

  bool is_variable_conflict() const { return var != nullptr; }
  bool is_array_conflict() const { return array != nullptr; }
  /// The update operator when BOTH sides are the same reorderable
  /// update (candidate for the §3.2.3 reordering transformation).
  Symbol* reorderable_op = nullptr;

  std::string describe() const;
};

struct ConflictReport {
  std::vector<Conflict> conflicts;
  /// True when worst-case aliasing between parameters had to be assumed
  /// (two parameters dereferenced, one written, no noalias declaration).
  bool cross_param_aliasing = false;
  std::vector<std::string> notes;

  bool clean() const { return conflicts.empty() && !cross_param_aliasing; }

  /// The concurrency cap from §3.2.1: min conflict distance (unbounded
  /// or variable conflicts cap at 1). nullopt when conflict-free.
  std::optional<int> min_distance() const;
};

/// Every conflict, reorderable ones included: detection reports and
/// the transforms decide (a reordered update no longer conflicts once
/// rewritten into a synchronized primitive).
ConflictReport detect_conflicts(sexpr::Ctx& ctx,
                                const decl::Declarations& decls,
                                const FunctionInfo& info);

}  // namespace curare::analysis
