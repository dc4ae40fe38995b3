// Seeded generator of restructuring inputs, shared by the
// restructure_corpus workload and serve_mix's restructure requests.
//
// Templates mirror the paper's figures: a read-only traversal (Fig 3),
// a write-ahead at distance d (Fig 4), a reorderable counter (Fig 8),
// remq (Fig 12, §5 destination-passing style), an associative sum
// (§5 recursion → iteration), a defstruct tree walker with a sapp
// declaration (§6), and two refusals (a no-restructure declaration,
// worst-case aliasing between parameters). Each program also carries a
// chain of pure helper defuns the main function calls, so programs have
// 1–12 defuns and the interprocedural summaries have work to do.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// What the restructurer must report for a template.
struct Expect {
  bool ok = true;
  int locks = 0;
  int delayed = 0;
  int reordered = 0;
  bool dps = false;
  bool rec2iter = false;
  std::optional<int> cap;  ///< concurrency cap from the conflict distance
};

struct Program {
  int tmpl = 0;
  std::string text;        ///< program source
  std::string fn = "f";    ///< the function to restructure
  /// Carries a curare-declare or defstruct form.
  bool declares = false;
  Expect expect;
  /// Forms that bind the check input `in` (empty: not executed).
  std::string input;
  /// Call arguments, as Lisp expressions over `in`.
  std::vector<std::string> args;
  /// Expression whose printed value is the final state to compare.
  std::string state;
};

inline constexpr int kTemplates = 8;
const char* template_name(int t);

/// `n` programs, the templates in equal shares, each template's
/// helper-chain lengths stratified over 0..11, in seeded order.
std::vector<Program> make_corpus(Rng& rng, int n);

}  // namespace perfbench
