#include "analysis/array.hpp"

#include "sexpr/list_ops.hpp"
#include "sexpr/printer.hpp"

namespace curare::analysis {

using sexpr::as_symbol;
using sexpr::cadr;
using sexpr::caddr;
using sexpr::cddr;
using sexpr::cdr;
using sexpr::Kind;

std::string AffineIndex::to_string() const {
  if (var == nullptr) return std::to_string(offset);
  std::string s;
  if (coef != 1) s += std::to_string(coef) + "·";
  s += var->name;
  if (offset > 0) s += "+" + std::to_string(offset);
  if (offset < 0) s += std::to_string(offset);
  return s;
}

std::string ArrayRef::to_string() const {
  std::string s = array->name + "[" +
                  (affine ? index.to_string() : std::string("?")) + "]";
  if (is_write) s += " [write]";
  return s;
}

namespace {

std::optional<AffineIndex> combine_add(const AffineIndex& a,
                                       const AffineIndex& b, bool sub) {
  AffineIndex out;
  if (a.var != nullptr && b.var != nullptr) {
    if (a.var != b.var) return std::nullopt;
    out.var = a.var;
    out.coef = sub ? a.coef - b.coef : a.coef + b.coef;
  } else {
    out.var = a.var != nullptr ? a.var : b.var;
    out.coef = a.var != nullptr ? a.coef : (sub ? -b.coef : b.coef);
  }
  out.offset = sub ? a.offset - b.offset : a.offset + b.offset;
  if (out.var != nullptr && out.coef == 0) out.var = nullptr;
  return out;
}

}  // namespace

std::optional<AffineIndex> parse_affine(sexpr::Ctx& ctx, Value expr) {
  if (expr.is_fixnum()) {
    return AffineIndex{nullptr, 0, expr.as_fixnum()};
  }
  if (expr.is(Kind::Symbol)) {
    return AffineIndex{static_cast<Symbol*>(expr.obj()), 1, 0};
  }
  if (!expr.is(Kind::Cons) || !sexpr::car(expr).is(Kind::Symbol))
    return std::nullopt;
  const std::string& op = as_symbol(sexpr::car(expr))->name;

  if (op == "1+" || op == "1-") {
    auto inner = parse_affine(ctx, cadr(expr));
    if (!inner) return std::nullopt;
    inner->offset += (op == "1+") ? 1 : -1;
    return inner;
  }
  if ((op == "+" || op == "-") && sexpr::list_length(expr) == 3) {
    auto a = parse_affine(ctx, cadr(expr));
    auto b = parse_affine(ctx, caddr(expr));
    if (!a || !b) return std::nullopt;
    return combine_add(*a, *b, op == "-");
  }
  if (op == "-" && sexpr::list_length(expr) == 2) {
    auto a = parse_affine(ctx, cadr(expr));
    if (!a) return std::nullopt;
    a->coef = -a->coef;
    a->offset = -a->offset;
    return a;
  }
  if (op == "*" && sexpr::list_length(expr) == 3) {
    auto a = parse_affine(ctx, cadr(expr));
    auto b = parse_affine(ctx, caddr(expr));
    if (!a || !b) return std::nullopt;
    // One side must be constant.
    if (a->var != nullptr && b->var != nullptr) return std::nullopt;
    const AffineIndex& konst = (a->var == nullptr) ? *a : *b;
    const AffineIndex& lin = (a->var == nullptr) ? *b : *a;
    AffineIndex out;
    out.var = lin.var;
    out.coef = lin.coef * konst.offset;
    out.offset = lin.offset * konst.offset;
    if (out.var != nullptr && out.coef == 0) out.var = nullptr;
    return out;
  }
  return std::nullopt;
}

std::optional<int> array_collision_distance(
    const ArrayRef& earlier, const ArrayRef& later,
    std::optional<std::int64_t> step) {
  if (earlier.array != later.array) return std::nullopt;
  // Unknown subscripts or unknown induction step: worst case.
  if (!earlier.affine || !later.affine || !step.has_value()) return 1;

  const AffineIndex& a = earlier.index;
  const AffineIndex& b = later.index;

  // Both constant: collide at every distance iff equal.
  if (a.var == nullptr && b.var == nullptr)
    return a.offset == b.offset ? std::optional<int>(1) : std::nullopt;

  // Different induction variables: cannot reason — worst case.
  if (a.var != nullptr && b.var != nullptr && a.var != b.var) return 1;
  // One constant, one linear in n: n takes many values → collide at
  // some unknown distance unless coef 0; worst case.
  if (a.var == nullptr || b.var == nullptr) return 1;

  // a·n + a0  vs  b·(n + δd) + b0  — same variable.
  const std::int64_t delta = *step;
  if (a.coef != b.coef) return 1;  // mismatched coefficients: punt
  const std::int64_t denom = b.coef * delta;
  const std::int64_t numer = a.offset - b.offset;
  if (denom == 0) {
    // Index does not move between invocations.
    return numer == 0 ? std::optional<int>(1) : std::nullopt;
  }
  if (numer % denom != 0) return std::nullopt;  // never an integer d
  const std::int64_t d = numer / denom;
  if (d < 1) return std::nullopt;  // collision is in the past
  return static_cast<int>(d);
}

}  // namespace curare::analysis
