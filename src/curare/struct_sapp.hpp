// Canonicalization-aware SAPP check for defstruct graphs (paper §2.1).
//
// "A doubly-linked structure has an infinite number of paths to any
// instance in it. However, this set of paths can be reduced to a finite
// set of unique paths by combining adjacent successor-predecessor pairs
// in a path."
//
// For plain cons structures no canonicalization is needed: SAPP means
// no cons cell reachable along two paths (shared substructure) and no
// cycle, which this checker verifies for every cons it meets. It walks
// the pointer fields of struct instances but does NOT follow the
// declared inverse of the edge it arrived by — the runtime realization
// of the canonicalization function C: a node reached by `succ` and
// then revisited by the matching `pred` is the same canonical path,
// not a second one. A node reachable along two genuinely different
// canonical paths still fails.
#pragma once

#include <string>

#include "decl/declarations.hpp"
#include "sexpr/value.hpp"

namespace curare {

struct StructSappResult {
  bool holds = true;
  std::size_t instances = 0;
  std::string violation;

  explicit operator bool() const { return holds; }
};

/// Check SAPP over a graph of defstruct Instances (and cons cells),
/// canonicalizing declared inverse-field pairs.
StructSappResult check_struct_sapp(sexpr::Value root,
                                   const decl::Declarations& decls);

}  // namespace curare
