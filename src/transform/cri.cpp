#include "transform/cri.hpp"

#include "sexpr/list_ops.hpp"
#include "sexpr/printer.hpp"
#include "transform/build.hpp"

namespace curare::transform {

using sexpr::cadr;
using sexpr::caddr;
using sexpr::cddr;
using sexpr::cdr;
using sexpr::Kind;
using sexpr::Symbol;

namespace {

class CriGen {
 public:
  /// `dest` is the %dest parameter this generator adds, or null when the
  /// input is already in destination form and keeps its calls and stores.
  CriGen(sexpr::Ctx& ctx, const analysis::FunctionInfo& info, Symbol* dest)
      : ctx_(ctx), info_(info), dest_(dest) {}

  bool failed() const { return !failure_.empty(); }
  const std::string& failure() const { return failure_; }
  std::size_t sites() const { return next_site_; }

  /// Rewrite a body sequence; `tail` marks that the last form's value is
  /// the function's result.
  std::vector<Value> rewrite_seq(Value forms, bool tail) {
    std::vector<Value> out;
    std::vector<Value> in = sexpr::list_to_vector(forms);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const bool last = (i + 1 == in.size());
      out.push_back(rewrite(in[i], tail && last));
    }
    return out;
  }

  Value rewrite(Value f, bool tail) {
    if (!f.is(Kind::Cons)) return tail ? capture(f) : f;
    Value head = sexpr::car(f);
    if (!head.is(Kind::Symbol)) return tail ? capture(f) : f;
    Symbol* op = static_cast<Symbol*>(head.obj());

    if (op == info_.name) return rewrite_call(f, tail);

    const std::string& name = op->name;
    if (name == "quote") return tail ? capture(f) : f;

    if (name == "progn" || name == "when" || name == "unless") {
      // when/unless: value is nil when the test fails, and nil is what
      // the destination cell already holds.
      Value keep = (name == "progn") ? ctx_.make_list(Value::object(op))
                                     : ctx_.make_list(Value::object(op),
                                                      cadr(f));
      Value seq = (name == "progn") ? cdr(f) : cddr(f);
      std::vector<Value> out = sexpr::list_to_vector(keep);
      for (Value s : rewrite_seq(seq, tail)) out.push_back(s);
      return form(ctx_, out);
    }
    if (name == "let" || name == "let*") {
      if (contains_call(cadr(f))) {
        failure_ = "recursive call inside let bindings of " +
                   sexpr::write_str(f);
        return f;
      }
      std::vector<Value> out{Value::object(op), cadr(f)};
      for (Value s : rewrite_seq(cddr(f), tail)) out.push_back(s);
      return form(ctx_, out);
    }
    if (name == "cond") {
      std::vector<Value> out{sym(ctx_, "cond")};
      for (Value cl = cdr(f); !cl.is_nil(); cl = cdr(cl)) {
        Value clause = sexpr::car(cl);
        if (contains_call(sexpr::car(clause))) {
          failure_ = "recursive call inside a cond test";
          return f;
        }
        // A test-only clause's value is its test's: route it through
        // the destination when it selects the clause.
        const bool test_only = cdr(clause).is_nil();
        std::vector<Value> nc{test_only && tail ? capture_test(
                                                      sexpr::car(clause))
                                                : sexpr::car(clause)};
        for (Value s : rewrite_seq(cdr(clause), tail)) nc.push_back(s);
        out.push_back(form(ctx_, nc));
      }
      return form(ctx_, out);
    }
    if (name == "if") {
      if (contains_call(cadr(f))) {
        failure_ = "recursive call inside an if test";
        return f;
      }
      std::vector<Value> out{Value::object(ctx_.s_if), cadr(f),
                             rewrite(caddr(f), tail)};
      if (!sexpr::cdddr(f).is_nil())
        out.push_back(rewrite(sexpr::cadddr(f), tail));
      return form(ctx_, out);
    }
    if (name == "and" || name == "or" || name == "while" ||
        name == "dotimes" || name == "dolist" || name == "setq" ||
        name == "setf" || name == "lambda" || name == "future" ||
        name == "declare") {
      if (contains_call(f)) {
        failure_ = "recursive call embedded in " + name +
                   " uses its result or escapes statement position; "
                   "apply rec2iter or DPS first (paper §5)";
        return f;
      }
      return tail ? capture(f) : f;
    }

    // Ordinary call: recursive calls in argument position are the
    // "result used" case the paper excludes.
    if (contains_call(f)) {
      failure_ =
          "recursive call's result is used inside " + sexpr::write_str(f) +
          "; apply rec2iter or DPS first (paper §5)";
      return f;
    }
    return tail ? capture(f) : f;
  }

 private:
  /// A tail-position call hands its caller's destination on; a
  /// statement-position call's value is discarded, so it passes nil.
  Value rewrite_call(Value f, bool tail) {
    const int site = next_site_++;
    std::vector<Value> out{sym(ctx_, "%cri-enqueue"),
                           Value::fixnum(site)};
    if (dest_ != nullptr)
      out.push_back(tail ? Value::object(dest_) : Value::nil());
    for (Value a = cdr(f); !a.is_nil(); a = cdr(a)) {
      if (contains_call(sexpr::car(a))) {
        failure_ = "recursive call nested inside another call's "
                   "arguments";
        return f;
      }
      out.push_back(sexpr::car(a));
    }
    return form(ctx_, out);
  }

  /// (if %dest (setf (cdr %dest) EXPR) EXPR): EXPR runs once either
  /// way. A nil tail stores nothing — the cell starts out nil.
  Value capture(Value expr) {
    if (dest_ == nullptr || expr.is_nil()) return expr;
    Value store = form(ctx_, {Value::object(ctx_.s_setf),
                              form(ctx_, {Value::object(ctx_.s_cdr),
                                          Value::object(dest_)}),
                              expr});
    return form(ctx_, {Value::object(ctx_.s_if), Value::object(dest_),
                       store, expr});
  }

  /// (let ((%v TEST)) (and %v CAPTURE(%v))): stores only a test value
  /// that selects the clause, so a failing test writes nothing.
  Value capture_test(Value test) {
    if (dest_ == nullptr) return test;
    Value v = sym(ctx_, "%v");
    return form(ctx_, {Value::object(ctx_.s_let),
                       ctx_.make_list(ctx_.make_list(v, test)),
                       form(ctx_, {sym(ctx_, "and"), v, capture(v)})});
  }

 private:
  bool contains_call(Value f) const {
    if (!f.is(Kind::Cons)) return false;
    if (sexpr::car(f).is(Kind::Symbol)) {
      Symbol* h = static_cast<Symbol*>(sexpr::car(f).obj());
      if (h == info_.name) return true;
      if (h->name == "quote") return false;
    }
    for (Value r = f; r.is(Kind::Cons); r = cdr(r))
      if (contains_call(sexpr::car(r))) return true;
    return false;
  }

  sexpr::Ctx& ctx_;
  const analysis::FunctionInfo& info_;
  Symbol* dest_;
  int next_site_ = 0;
  std::string failure_;
};

}  // namespace

CriResult make_cri(sexpr::Ctx& ctx, const analysis::FunctionInfo& info) {
  CriResult result;
  if (!info.is_recursive()) {
    result.failure = "function is not self-recursive";
    return result;
  }
  for (const analysis::RecCall& c : info.rec_calls) {
    if (c.result_used) {
      result.failure =
          "recursive call " + sexpr::write_str(c.form) +
          " uses its result; apply recursion→iteration or DPS first "
          "(paper §5)";
      return result;
    }
  }

  // The DPS output already takes its destination first; every other
  // input gains one.
  Symbol* dest = ctx.symbols.intern("%dest");
  const bool dest_form = !info.params.empty() && info.params[0] == dest;
  CriGen gen(ctx, info, dest_form ? nullptr : dest);
  std::vector<Value> body = gen.rewrite_seq(info.body, true);
  if (gen.failed()) {
    result.failure = gen.failure();
    return result;
  }

  std::string entry = info.name->name;
  if (dest_form && entry.ends_with("$dps")) entry.resize(entry.size() - 4);
  Symbol* server_name = ctx.symbols.intern(info.name->name + "$cri");
  Symbol* wrapper_name = ctx.symbols.intern(entry + "$parallel");

  std::vector<Value> params;  // the caller's: no destination
  for (std::size_t i = dest_form ? 1 : 0; i < info.params.size(); ++i)
    params.push_back(Value::object(info.params[i]));

  std::vector<Value> server_params{Value::object(dest)};
  server_params.insert(server_params.end(), params.begin(), params.end());
  std::vector<Value> server{Value::object(ctx.s_defun),
                            Value::object(server_name),
                            form(ctx, server_params)};
  server.insert(server.end(), body.begin(), body.end());
  result.server_defun = form(ctx, server);

  Value servers_param = sym(ctx, "%servers");
  Value d = sym(ctx, "%d");
  std::vector<Value> wrapper_params{servers_param};
  wrapper_params.insert(wrapper_params.end(), params.begin(),
                        params.end());
  std::vector<Value> run_call{
      sym(ctx, "%cri-run"), Value::object(server_name),
      Value::fixnum(static_cast<std::int64_t>(gen.sites())),
      servers_param, d};
  run_call.insert(run_call.end(), params.begin(), params.end());
  Value run = form(
      ctx, {Value::object(ctx.s_let),
            ctx.make_list(ctx.make_list(
                d, form(ctx, {sym(ctx, "cons"), Value::nil(),
                              Value::nil()}))),
            form(ctx, run_call), form(ctx, {Value::object(ctx.s_cdr), d})});
  result.wrapper_defun =
      form(ctx, {Value::object(ctx.s_defun), Value::object(wrapper_name),
                 form(ctx, wrapper_params), run});

  result.ok = true;
  result.server_name = server_name;
  result.wrapper_name = wrapper_name;
  result.num_sites = gen.sites();
  result.notes.push_back(
      "recursive calls became %cri-enqueue at " +
      std::to_string(gen.sites()) + " site(s); servers execute the body "
      "repeatedly without context switches (paper §4)");
  return result;
}

}  // namespace curare::transform
