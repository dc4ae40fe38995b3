#include "analysis/conflict.hpp"

#include <unordered_set>

#include "sexpr/printer.hpp"

namespace curare::analysis {

const char* dep_kind_name(DepKind k) {
  switch (k) {
    case DepKind::Flow: return "flow";
    case DepKind::Anti: return "anti";
    case DepKind::Output: return "output";
  }
  return "?";
}

std::string Conflict::describe() const {
  std::string s = dep_kind_name(kind);
  s += " dependency, distance ";
  s += distance == kUnbounded ? std::string("> bound")
                              : std::to_string(distance);
  if (is_variable_conflict()) {
    s += ", variable " + var->name;
  } else if (is_array_conflict()) {
    s += ", " + arr_earlier.to_string() + " vs " + arr_later.to_string();
  } else {
    s += ", " + earlier.to_string() + " vs " + later.to_string();
  }
  if (reorderable_op != nullptr)
    s += " (reorderable via " + reorderable_op->name + ")";
  return s;
}

std::optional<int> ConflictReport::min_distance() const {
  if (cross_param_aliasing) return 1;
  std::optional<int> best;
  for (const Conflict& c : conflicts) {
    const int d = c.distance == Conflict::kUnbounded ? 1 : c.distance;
    if (!best || d < *best) best = d;
  }
  return best;
}

namespace {

/// Search bound for the per-distance structure-conflict test; a pair
/// that conflicts only beyond it is reported at kUnbounded.
constexpr int kMaxDistance = 16;

DepKind classify(bool earlier_writes, bool later_writes) {
  if (earlier_writes && later_writes) return DepKind::Output;
  return earlier_writes ? DepKind::Flow : DepKind::Anti;
}

/// Does the pair conflict at distance d? `a` is in the earlier
/// invocation, `b` in the later; `step` is τ for their common root.
bool conflicts_at(const StructRef& a, const StructRef& b,
                  const RegexPtr& step, std::size_t d) {
  const RegexPtr rd =
      PathRegex::concat(PathRegex::power(step, d), PathRegex::word(b.path));
  const Nfa nfa(rd);
  const bool p1 = nfa.word_is_prefix_of_language(a.path);
  const bool p2 = nfa.language_has_prefix_of_word(a.path);
  const bool either_deep = a.deep || b.deep;

  bool hit = false;
  if (a.is_write) hit |= p1 || (either_deep && p2);
  if (b.is_write) hit |= p2 || (either_deep && p1);
  return hit;
}

/// Same test with τ⁺ in place of τ^d: "is there any distance at all?"
bool conflicts_at_some_distance(const StructRef& a, const StructRef& b,
                                const RegexPtr& step) {
  const RegexPtr r = PathRegex::concat(PathRegex::plus(step),
                                       PathRegex::word(b.path));
  const Nfa nfa(r);
  const bool p1 = nfa.word_is_prefix_of_language(a.path);
  const bool p2 = nfa.language_has_prefix_of_word(a.path);
  const bool either_deep = a.deep || b.deep;

  bool hit = false;
  if (a.is_write) hit |= p1 || (either_deep && p2);
  if (b.is_write) hit |= p2 || (either_deep && p1);
  return hit;
}

bool same_reorderable_update(const decl::Declarations& decls,
                             const StructRef& a, const StructRef& b) {
  return a.is_write && b.is_write && a.update_op != nullptr &&
         a.update_op == b.update_op && a.path == b.path &&
         decls.is_reorderable_op(a.update_op);
}

}  // namespace

ConflictReport detect_conflicts(sexpr::Ctx& ctx,
                                const decl::Declarations& decls,
                                const FunctionInfo& info) {
  (void)ctx;
  ConflictReport report;
  if (!info.is_recursive()) {
    report.notes.push_back("function is not self-recursive; no "
                           "inter-invocation conflicts possible");
    return report;
  }

  // ---- cross-parameter aliasing (paper §1.3 worst case) ----------------
  if (!decls.has_noalias(info.name)) {
    std::unordered_set<Symbol*> written_roots;
    std::unordered_set<Symbol*> touched_roots;
    for (const StructRef& r : info.refs) {
      touched_roots.insert(r.root);
      if (r.is_write) written_roots.insert(r.root);
    }
    if (!written_roots.empty() && touched_roots.size() > 1) {
      report.cross_param_aliasing = true;
      report.notes.push_back(
          "worst-case aliasing assumed between parameters; declare "
          "(noalias " +
          info.name->name + ") if arguments never share structure");
    }
  }

  // ---- structure conflicts ----------------------------------------------
  // Cache per-root step transfer functions.
  std::vector<std::pair<Symbol*, RegexPtr>> steps;
  auto step_for = [&](Symbol* root) -> RegexPtr {
    for (auto& [s, r] : steps)
      if (s == root) return r;
    RegexPtr r = info.step_transfer(root);
    steps.emplace_back(root, r);
    return r;
  };

  for (std::size_t i = 0; i < info.refs.size(); ++i) {
    for (std::size_t j = 0; j < info.refs.size(); ++j) {
      const StructRef& a = info.refs[i];  // earlier invocation
      const StructRef& b = info.refs[j];  // later invocation
      if (a.root != b.root) continue;     // cross-root handled above
      if (!a.is_write && !b.is_write) continue;
      RegexPtr step = step_for(a.root);
      if (step == nullptr) continue;  // parameter never recurs

      // One τ⁺ query rules out most pairs before the per-distance
      // search runs (the search builds an NFA per distance).
      if (!conflicts_at_some_distance(a, b, step)) continue;
      std::optional<int> dist = Conflict::kUnbounded;
      for (int d = 1; d <= kMaxDistance; ++d) {
        if (conflicts_at(a, b, step, static_cast<std::size_t>(d))) {
          dist = d;
          break;
        }
      }

      Conflict c;
      c.earlier = a;
      c.later = b;
      c.kind = classify(a.is_write, b.is_write);
      c.distance = *dist;
      if (same_reorderable_update(decls, a, b))
        c.reorderable_op = a.update_op;
      report.conflicts.push_back(std::move(c));
    }
  }

  // ---- array conflicts (§2's FORTRAN-style subscripts) ------------------
  for (std::size_t i = 0; i < info.array_refs.size(); ++i) {
    for (std::size_t j = 0; j < info.array_refs.size(); ++j) {
      const ArrayRef& a = info.array_refs[i];  // earlier invocation
      const ArrayRef& b = info.array_refs[j];  // later invocation
      if (a.array != b.array) continue;
      if (!a.is_write && !b.is_write) continue;
      // The induction step of the subscript variable (same for both
      // directions; unknown when the variable is not a param or sites
      // disagree).
      Symbol* ivar = a.affine && a.index.var ? a.index.var
                     : (b.affine ? b.index.var : nullptr);
      std::optional<std::int64_t> step =
          ivar ? info.induction_step(ctx, ivar) : std::nullopt;
      // Collision of a's element (at n) against b's (at n + δ·d).
      auto d = array_collision_distance(a, b, step);
      if (!d) continue;
      Conflict c;
      c.array = a.array;
      c.arr_earlier = a;
      c.arr_later = b;
      c.kind = classify(a.is_write, b.is_write);
      c.distance = std::max(1, *d);
      report.conflicts.push_back(std::move(c));
    }
  }

  // ---- free-variable conflicts --------------------------------------------
  for (std::size_t i = 0; i < info.var_refs.size(); ++i) {
    for (std::size_t j = 0; j < info.var_refs.size(); ++j) {
      const VarRef& a = info.var_refs[i];
      const VarRef& b = info.var_refs[j];
      if (a.var != b.var) continue;
      if (!a.is_write && !b.is_write) continue;
      // Deduplicate: emit each unordered pair once, writes first.
      if (i > j) continue;

      // Two licences (§3.2.3): a commutative+associative+atomic update
      // operator, or an insert into a collection the programmer
      // declared unordered (here: pushes onto a declared-unordered
      // variable).
      const bool same_update = a.is_write && b.is_write &&
                               a.update_op != nullptr &&
                               a.update_op == b.update_op;
      const bool reorderable =
          same_update && (decls.is_reorderable_op(a.update_op) ||
                          (a.update_op->name == "push" &&
                           decls.is_unordered_insert(a.var)));
      Conflict c;
      c.var = a.var;
      c.var_earlier = a;
      c.var_later = b;
      c.kind = classify(a.is_write, b.is_write);
      c.distance = 1;
      if (reorderable) c.reorderable_op = a.update_op;
      report.conflicts.push_back(std::move(c));
    }
  }

  return report;
}

}  // namespace curare::analysis
