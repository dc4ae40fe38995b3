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
  friend class HeadLoopGen;  // reuses the capture rules and call test

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

/// The work-first server (cri.hpp): the head chain as a loop, the
/// post-call statements as a tail function. build() returns false for
/// a shape the loop cannot express; the caller then keeps the enqueue
/// form. Run it only on a body CriGen accepted with one call site.
class HeadLoopGen {
 public:
  /// `gen` rewrites the statements without the call (captures and
  /// all); `server_params` is f$cri's lambda list.
  HeadLoopGen(CriGen& gen, std::vector<Symbol*> server_params,
              Symbol* tail_name, const LockPlan& locks)
      : ctx_(gen.ctx_),
        info_(gen.info_),
        gen_(gen),
        dest_(gen.dest_),
        server_params_(std::move(server_params)),
        tail_name_(tail_name),
        next_(sym(ctx_, "%next")) {
    // A variable lock guards the same location in every iteration: it is
    // taken once around the loop. A structure lock's location depends
    // on the parameters, so each iteration takes its own and releases
    // it at the call site, or at the end of an iteration that does not
    // reach the site. Releases run in reverse order.
    for (const LockSpec& s : locks.locks) {
      if (s.variable) {
        auto [lock, unlock] = lock_statements(ctx_, s);
        hoisted_.push_back(lock);
        hoisted_release_.insert(hoisted_release_.begin(), unlock);
      } else {
        Value temp = sym(ctx_, "%m" + std::to_string(lock_temps_.size()));
        lock_temps_.push_back(temp);
        auto [lock, unlock] = lock_statements(ctx_, s, temp);
        take_.push_back(lock);
        release_.insert(release_.begin(), unlock);
      }
    }
  }

  bool build(Value body) {
    std::vector<Value> cont;
    head_ = seq(body, true, cont);
    if (declined_ || site_ == nullptr) return false;
    for (Value f : head_)
      if (makes_closure(f)) return false;
    for (Value a : site_args_)
      if (makes_closure(a)) return false;
    for (Value f : cont)
      if (!f.is_nil()) tail_.push_back(f);  // a nil statement does nothing
    fill_site();
    return true;
  }

  Value server_defun(Symbol* name) const {
    // VAR-LOCKS… (let ((%next t) (%a0 nil) … (%m0 nil) …) (while %next
    //   (setq %next nil) STRUCT-LOCKS… HEAD… (unless %next RELEASES…)
    //   (when %next (setq p0 %a0) …))) VAR-UNLOCKS…
    std::vector<Value> binds{ctx_.make_list(next_, Value::object(ctx_.s_t))};
    std::vector<Value> step{sym(ctx_, "when"), next_};
    for (const auto& [param, temp] : moves_) {
      binds.push_back(ctx_.make_list(temp, Value::nil()));
      step.push_back(setq(Value::object(param), temp));
    }
    for (Value temp : lock_temps_)
      binds.push_back(ctx_.make_list(temp, Value::nil()));
    std::vector<Value> loop{sym(ctx_, "while"), next_,
                            setq(next_, Value::nil())};
    loop.insert(loop.end(), take_.begin(), take_.end());
    loop.insert(loop.end(), head_.begin(), head_.end());
    if (!release_.empty()) {
      std::vector<Value> unreached{sym(ctx_, "unless"), next_};
      unreached.insert(unreached.end(), release_.begin(), release_.end());
      loop.push_back(form(ctx_, unreached));
    }
    if (!moves_.empty()) loop.push_back(form(ctx_, step));
    std::vector<Value> out{Value::object(ctx_.s_defun), Value::object(name),
                           params_form(server_params_)};
    out.insert(out.end(), hoisted_.begin(), hoisted_.end());
    out.push_back(form(ctx_, {Value::object(ctx_.s_let), form(ctx_, binds),
                              form(ctx_, loop)}));
    out.insert(out.end(), hoisted_release_.begin(), hoisted_release_.end());
    return form(ctx_, out);
  }

  /// (defun f$tail (server-params… %b0 …) TAIL…), or nil when the loop
  /// queues no tail.
  Value tail_defun() const {
    if (tail_.empty()) return Value::nil();
    std::vector<Symbol*> params = server_params_;
    for (std::size_t i = 0; i < scope_site_.size(); ++i)
      params.push_back(bound(i));
    std::vector<Value> out{Value::object(ctx_.s_defun),
                           Value::object(tail_name_), params_form(params)};
    out.insert(out.end(), tail_.begin(), tail_.end());
    return form(ctx_, out);
  }

 private:
  Value setq(Value var, Value v) const {
    return form(ctx_, {sym(ctx_, "setq"), var, v});
  }

  Value params_form(const std::vector<Symbol*>& ps) const {
    std::vector<Value> out;
    for (Symbol* p : ps) out.push_back(Value::object(p));
    return form(ctx_, out);
  }

  /// The tail parameter carrying the i-th let binding on the call's path.
  Symbol* bound(std::size_t i) const {
    return ctx_.symbols.intern("%b" + std::to_string(i));
  }

  bool is_call(Value f) const {
    return f.is(Kind::Cons) && sexpr::car(f).is(Kind::Symbol) &&
           sexpr::car(f).obj() == info_.name;
  }

  /// A lambda or future closes over the frame it is made in. The loop
  /// runs every head in one frame and hands each tail a copy, so a
  /// closure made in a head would see a later head's parameters, and
  /// not its own tail's writes. The update lambda of reorder's locked
  /// updates is applied in place and kept by no one, so only its body
  /// counts.
  static bool makes_closure(Value f) {
    if (!f.is(Kind::Cons)) return false;
    bool applied_in_place = false;
    if (sexpr::car(f).is(Kind::Symbol)) {
      const std::string& h = static_cast<Symbol*>(sexpr::car(f).obj())->name;
      if (h == "quote") return false;
      if (h == "lambda" || h == "future") return true;
      applied_in_place = h == "%locked-update-var" || h == "%locked-update";
    }
    for (Value r = f; r.is(Kind::Cons); r = cdr(r)) {
      Value a = sexpr::car(r);
      if (applied_in_place && a.is(Kind::Cons) &&
          sexpr::car(a).is(Kind::Symbol) &&
          static_cast<Symbol*>(sexpr::car(a).obj())->name == "lambda")
        a = cddr(a);
      if (makes_closure(a)) return true;
    }
    return false;
  }

  /// Head forms of a sequence; `cont` receives the statements the tail
  /// runs when the call lies inside. Statements after the form holding
  /// the call go to the tail, and — unless that form is the call itself
  /// — also to the head, for the iterations that do not reach it.
  std::vector<Value> seq(Value forms, bool tail, std::vector<Value>& cont) {
    const std::vector<Value> in = sexpr::list_to_vector(forms);
    std::vector<Value> out;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (!gen_.contains_call(in[i])) {
        out.push_back(gen_.rewrite(in[i], tail && i + 1 == in.size()));
        continue;
      }
      std::vector<Value> inner;
      out.push_back(with_call(in[i], tail && i + 1 == in.size(), inner));
      std::vector<Value> rest;
      for (std::size_t j = i + 1; j < in.size(); ++j)
        rest.push_back(gen_.rewrite(in[j], tail && j + 1 == in.size()));
      if (!rest.empty() && !is_call(in[i])) {
        std::vector<Value> guard{sym(ctx_, "unless"), next_};
        guard.insert(guard.end(), rest.begin(), rest.end());
        out.push_back(form(ctx_, guard));
      }
      inner.insert(inner.end(), rest.begin(), rest.end());
      cont = std::move(inner);
      break;
    }
    return out;
  }

  /// An if branch: a sequence of one form, which stays one form.
  Value one(Value f, bool tail, std::vector<Value>& cont) {
    return seq(ctx_.make_list(f), tail, cont)[0];
  }

  Value with_call(Value f, bool tail, std::vector<Value>& cont) {
    if (is_call(f)) return site(f, tail);
    Symbol* op = static_cast<Symbol*>(sexpr::car(f).obj());
    const std::string& name = op->name;
    if (name == "progn" || name == "when" || name == "unless") {
      std::vector<Value> out{Value::object(op)};
      if (name != "progn") out.push_back(cadr(f));
      for (Value v : seq(name == "progn" ? cdr(f) : cddr(f), tail, cont))
        out.push_back(v);
      return form(ctx_, out);
    }
    if (name == "let" || name == "let*") {
      const std::size_t first = scope_.size();
      for (Value b = cadr(f); b.is(Kind::Cons); b = cdr(b)) {
        Value v = sexpr::car(b);
        if (v.is(Kind::Cons)) v = sexpr::car(v);
        if (!v.is(Kind::Symbol)) return decline(f);
        Symbol* var = static_cast<Symbol*>(v.obj());
        // A binding that shadows a parameter or an outer binding would
        // hand the tail the inner value where outer statements read
        // the outer one.
        for (Symbol* p : server_params_)
          if (p == var) return decline(f);
        for (Symbol* p : scope_)
          if (p == var) return decline(f);
        scope_.push_back(var);
      }
      std::vector<Value> inner;
      std::vector<Value> out{Value::object(op), cadr(f)};
      for (Value v : seq(cddr(f), tail, inner)) out.push_back(v);
      if (!inner.empty()) {
        std::vector<Value> rebind;
        for (std::size_t i = first; i < scope_.size(); ++i)
          rebind.push_back(
              ctx_.make_list(Value::object(scope_[i]), Value::object(bound(i))));
        std::vector<Value> let{Value::object(ctx_.s_let), form(ctx_, rebind)};
        let.insert(let.end(), inner.begin(), inner.end());
        cont.push_back(form(ctx_, let));
      }
      scope_.resize(first);
      return form(ctx_, out);
    }
    if (name == "if") {
      Value then_f = caddr(f);
      const bool has_else = !sexpr::cdddr(f).is_nil();
      Value else_f = has_else ? sexpr::cadddr(f) : Value::nil();
      std::vector<Value> out{Value::object(ctx_.s_if), cadr(f)};
      if (gen_.contains_call(then_f)) {
        out.push_back(one(then_f, tail, cont));
        if (has_else) out.push_back(gen_.rewrite(else_f, tail));
      } else {
        out.push_back(gen_.rewrite(then_f, tail));
        out.push_back(one(else_f, tail, cont));
      }
      return form(ctx_, out);
    }
    if (name == "cond") {
      std::vector<Value> out{Value::object(op)};
      for (Value cl = cdr(f); !cl.is_nil(); cl = cdr(cl)) {
        Value clause = sexpr::car(cl);
        std::vector<Value> nc;
        if (gen_.contains_call(clause)) {
          nc.push_back(sexpr::car(clause));
          for (Value v : seq(cdr(clause), tail, cont)) nc.push_back(v);
        } else {
          const bool test_only = cdr(clause).is_nil();
          nc.push_back(test_only && tail ? gen_.capture_test(sexpr::car(clause))
                                         : sexpr::car(clause));
          for (Value v : gen_.rewrite_seq(cdr(clause), tail)) nc.push_back(v);
        }
        out.push_back(form(ctx_, nc));
      }
      return form(ctx_, out);
    }
    return decline(f);
  }

  Value decline(Value f) {
    declined_ = true;
    return f;
  }

  /// The call site: a placeholder (progn) filled once the tail is known.
  Value site(Value call, bool tail) {
    const std::vector<Value> args = sexpr::list_to_vector(cdr(call));
    if (args.size() != info_.params.size()) return decline(call);
    site_ = static_cast<sexpr::Cons*>(form(ctx_, {sym(ctx_, "progn")}).obj());
    site_args_ = args;
    site_tail_ = tail;
    scope_site_ = scope_;
    return Value::object(site_);
  }

  /// The iteration's structure-lock releases, then (%cri-tail f$tail
  /// server-params… let-vars…) — or a bare (%cri-tail) when there is no
  /// tail — then the successor's arguments through temporaries (a
  /// parallel assignment), nil for the successor's destination unless
  /// the call is in tail position, and %next.
  void fill_site() {
    std::vector<Value> body = release_;
    std::vector<Value> mark{sym(ctx_, "%cri-tail")};
    if (!tail_.empty()) {
      mark.push_back(Value::object(tail_name_));
      for (Symbol* p : server_params_) mark.push_back(Value::object(p));
      for (Symbol* v : scope_site_) mark.push_back(Value::object(v));
    }
    body.push_back(form(ctx_, mark));
    std::vector<std::size_t> changed;
    for (std::size_t i = 0; i < site_args_.size(); ++i)
      if (site_args_[i] != Value::object(info_.params[i])) changed.push_back(i);
    if (changed.size() == 1) {
      // Nothing in the head reads the parameters again this iteration.
      body.push_back(setq(Value::object(info_.params[changed[0]]),
                          site_args_[changed[0]]));
    } else {
      for (std::size_t i : changed) {
        Value temp = sym(ctx_, "%a" + std::to_string(moves_.size()));
        moves_.emplace_back(info_.params[i], temp);
        body.push_back(setq(temp, site_args_[i]));
      }
    }
    if (dest_ != nullptr && !site_tail_)
      body.push_back(setq(Value::object(dest_), Value::nil()));
    body.push_back(setq(next_, Value::object(ctx_.s_t)));
    site_->set_cdr(form(ctx_, body));
  }

  sexpr::Ctx& ctx_;
  const analysis::FunctionInfo& info_;
  CriGen& gen_;
  Symbol* dest_;  ///< the %dest this generator added; null in DPS form
  std::vector<Symbol*> server_params_;
  Symbol* tail_name_;
  Value next_;
  std::vector<Symbol*> scope_;  ///< let bindings on the path to the call
  bool declined_ = false;

  sexpr::Cons* site_ = nullptr;
  std::vector<Value> site_args_;
  bool site_tail_ = false;
  std::vector<Symbol*> scope_site_;  ///< scope_ at the call

  std::vector<Value> head_;
  std::vector<Value> tail_;
  /// (parameter, temporary) for every argument the successor changes.
  std::vector<std::pair<Symbol*, Value>> moves_;

  std::vector<Value> hoisted_, hoisted_release_;  ///< variable locks
  /// Structure locks: taken at the top of each iteration into the
  /// %m temporaries, released in reverse order.
  std::vector<Value> take_, release_, lock_temps_;
};

}  // namespace

CriResult make_cri(sexpr::Ctx& ctx, const analysis::FunctionInfo& info,
                   const LockPlan& locks, bool locks_in_head,
                   std::optional<int> concurrency_cap) {
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

  if ((locks.empty() || locks_in_head) && gen.sites() == 1) {
    std::vector<Symbol*> loop_params;
    for (Value p : server_params) loop_params.push_back(sexpr::as_symbol(p));
    Symbol* tail_name = ctx.symbols.intern(info.name->name + "$tail");
    CriGen statements(ctx, info, dest_form ? nullptr : dest);
    HeadLoopGen loop(statements, std::move(loop_params), tail_name, locks);
    if (loop.build(info.body)) {
      result.work_first = true;
      result.server_defun = loop.server_defun(server_name);
      result.tail_defun = loop.tail_defun();
      if (!result.tail_defun.is_nil()) result.tail_name = tail_name;
    }
  }
  // The enqueue form: locks wrap the body, whose value the pool
  // discards, so the unlocks never disturb the destination store.
  if (!result.work_first)
    result.server_defun = apply_lock_plan(ctx, result.server_defun, locks);

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
  std::vector<Value> choice{sym(ctx, "%cri-parallel-p"),
                            Value::object(server_name), servers_param};
  if (concurrency_cap && !result.work_first)
    choice.push_back(Value::fixnum(*concurrency_cap));
  std::vector<Value> original{sym(ctx, entry)};
  original.insert(original.end(), params.begin(), params.end());
  result.wrapper_defun = form(
      ctx, {Value::object(ctx.s_defun), Value::object(wrapper_name),
            form(ctx, wrapper_params),
            form(ctx, {sym(ctx, "if"), form(ctx, choice), run,
                       form(ctx, original)})});

  result.ok = true;
  result.server_name = server_name;
  result.wrapper_name = wrapper_name;
  result.num_sites = gen.sites();
  if (result.work_first) {
    result.notes.push_back(
        std::string("work-first: the heads run as a loop on one server") +
        (result.tail_name != nullptr
             ? "; the post-call statements became " +
                   result.tail_name->name + ", queued in batches for any "
                   "server"
             : "; no statement follows the call, so nothing is queued"));
  } else {
    result.notes.push_back(
        "recursive calls became %cri-enqueue at " +
        std::to_string(gen.sites()) + " site(s); servers execute the body "
        "repeatedly without context switches (paper §4)");
  }
  return result;
}

}  // namespace curare::transform
