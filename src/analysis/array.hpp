// Array subscript analysis (paper §2, ¶2).
//
// "The FORTRAN-restructuring literature contains an extensive discussion
// of the techniques for detecting conflicts among accesses to arrays …
// The techniques developed for FORTRAN can be applied to Lisp arrays
// also."
//
// The FORTRAN-style fragment implemented here: subscripts that are
// affine in a recursion-controlled induction variable,
//
//     (aref v (+ (* a n) b))        index = a·n + b
//
// where the recursion steps n by a constant δ per invocation
// ((f … (+ n δ) …)). A write at a·n+b in invocation i collides with an
// access at a'·n+b' in invocation i+d when
//
//     a·n + b = a'·(n + δ·d) + b'
//
// For the common a = a' case this solves to d = (b − b')/(a·δ): an
// integral d ≥ 1 is a conflict at exactly that distance (the GCD-style
// exact test); a·δ = 0 collides at every distance when b = b'.
// Non-affine subscripts and mismatched coefficients fall back to the
// worst case, distance 1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sexpr/ctx.hpp"
#include "sexpr/value.hpp"

namespace curare::analysis {

using sexpr::Symbol;
using sexpr::Value;

/// index = coef·var + offset; var == nullptr means a constant index.
struct AffineIndex {
  Symbol* var = nullptr;
  std::int64_t coef = 0;
  std::int64_t offset = 0;

  std::string to_string() const;
};

/// Parse an index expression: literals, v, (+ v c), (- v c), (1+ v),
/// (1- v), (* a v), (+ (* a v) b) and permutations. nullopt when not
/// affine in a single variable.
std::optional<AffineIndex> parse_affine(sexpr::Ctx& ctx, Value expr);

/// A read or write of an array element.
struct ArrayRef {
  Symbol* array = nullptr;  ///< variable holding the vector
  AffineIndex index;
  bool affine = true;  ///< false: unknown subscript (worst case)
  bool is_write = false;
  Value form;
  int stmt_index = -1;

  std::string to_string() const;
};

/// Distance of the collision between `earlier` (invocation i) and
/// `later` (invocation i+d, whose induction variable has advanced by
/// `step`·d). At least one of the two must be a write — the caller
/// checks. Returns nullopt when the elements can never coincide, or the
/// exact integral d ≥ 1 when they do (1 for worst-case fallbacks).
std::optional<int> array_collision_distance(
    const ArrayRef& earlier, const ArrayRef& later,
    std::optional<std::int64_t> step);

}  // namespace curare::analysis
