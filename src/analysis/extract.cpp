// Extraction of analysis IR from defun forms (paper §2).
//
// The walk is flow-insensitive, exactly as the paper specifies: "This
// combination is flow-insensitive since the information from various
// paths through the program is combined into a form that does not permit
// us to distinguish the portion that is valid at a particular point."
//
// Alias tracking: a local variable bound by let to a pure accessor chain
// of a parameter is a Derived alias (its uses extend the parameter's
// path). A variable bound to a fresh cons is Fresh — writes through it
// cannot conflict with the parameters — unless the fresh value is later
// stored into tracked structure, in which case a first pass promotes it
// to a Derived alias of the store target (keeping the analysis sound for
// patterns like remq-d's destination cell).
#include "analysis/extract.hpp"

#include "analysis/effects.hpp"
#include "analysis/headtail.hpp"

#include <unordered_map>

#include "sexpr/equal.hpp"
#include "sexpr/list_ops.hpp"
#include "sexpr/printer.hpp"

namespace curare::analysis {

using sexpr::as_symbol;
using sexpr::cadr;
using sexpr::caddr;
using sexpr::car;
using sexpr::cddr;
using sexpr::cdr;
using sexpr::Kind;
using sexpr::LispError;

namespace {


bool is_cxr(const std::string& name) {
  if (name.size() < 3 || name.front() != 'c' || name.back() != 'r')
    return false;
  for (std::size_t i = 1; i + 1 < name.size(); ++i)
    if (name[i] != 'a' && name[i] != 'd') return false;
  return true;
}

struct AliasInfo {
  enum class Kind { Root, Derived, Fresh, Unknown };
  Kind kind = Kind::Unknown;
  Symbol* root = nullptr;
  FieldPath path;
};

using AliasMap = std::unordered_map<Symbol*, AliasInfo>;

class Extractor {
 public:
  Extractor(sexpr::Ctx& ctx, const decl::Declarations& decls,
            FunctionInfo& info, const SummaryMap* summaries = nullptr)
      : ctx_(ctx), decls_(decls), info_(info), summaries_(summaries) {}

  void run() {
    // Pass 1: discover fresh-variable promotions (fresh cells stored
    // into tracked structure become aliases of the store target).
    pass2_ = false;
    walk_function();
    // Pass 2: the real extraction, with promotions applied.
    pass2_ = true;
    next_stmt_ = 0;
    info_.refs.clear();
    info_.var_refs.clear();
    info_.array_refs.clear();
    info_.rec_calls.clear();
    info_.dirty_params.clear();
    info_.warnings.clear();
    info_.analyzable = true;
    walk_function();
  }

  std::optional<ResolvedPath> resolve(Value expr,
                                      const AliasMap& aliases) const {
    if (expr.is(Kind::Symbol)) {
      Symbol* s = static_cast<Symbol*>(expr.obj());
      auto it = aliases.find(s);
      if (it == aliases.end()) return std::nullopt;
      const AliasInfo& a = it->second;
      switch (a.kind) {
        case AliasInfo::Kind::Root:
          return ResolvedPath{s, FieldPath::empty()};
        case AliasInfo::Kind::Derived:
          return ResolvedPath{a.root, a.path};
        case AliasInfo::Kind::Fresh: {
          if (pass2_) {
            auto p = promotions_.find(s);
            if (p != promotions_.end() && p->second.root != nullptr)
              return ResolvedPath{p->second.root, p->second.path};
          }
          return std::nullopt;
        }
        case AliasInfo::Kind::Unknown:
          return std::nullopt;
      }
      return std::nullopt;
    }
    if (!expr.is(Kind::Cons) || !car(expr).is(Kind::Symbol))
      return std::nullopt;
    const std::string& op = as_symbol(car(expr))->name;
    if (is_cxr(op)) {
      auto base = resolve(cadr(expr), aliases);
      if (!base) return std::nullopt;
      FieldPath p = base->path;
      // Letters apply right-to-left: (cadr x) is car(cdr(x)).
      for (std::size_t i = op.size() - 2; i >= 1; --i) {
        p = p.then(op[i] == 'a' ? static_cast<Field>(ctx_.s_car)
                                : static_cast<Field>(ctx_.s_cdr));
        if (i == 1) break;
      }
      return ResolvedPath{base->root, p};
    }
    if (op == "nth" || op == "nthcdr") {
      Value idx = cadr(expr);
      if (!idx.is_fixnum() || idx.as_fixnum() < 0) return std::nullopt;
      auto base = resolve(caddr(expr), aliases);
      if (!base) return std::nullopt;
      FieldPath p = base->path;
      for (std::int64_t i = 0; i < idx.as_fixnum(); ++i)
        p = p.then(ctx_.s_cdr);
      if (op == "nth") p = p.then(ctx_.s_car);
      return ResolvedPath{base->root, p};
    }
    // Declared structure accessors: a pointer or data field name used as
    // a one-argument accessor, e.g. (next n) for (structure node
    // (pointers next) ...).
    if (decls_.is_known_field(as_symbol(car(expr))) &&
        !cdr(expr).is_nil() && cddr(expr).is_nil()) {
      auto base = resolve(cadr(expr), aliases);
      if (!base) return std::nullopt;
      return ResolvedPath{base->root, base->path.then(as_symbol(car(expr)))};
    }
    return std::nullopt;
  }

 private:
  enum class Pos { Stmt, Tail, Value };

  void walk_function() {
    AliasMap aliases;
    for (Symbol* p : info_.params)
      aliases[p] = AliasInfo{AliasInfo::Kind::Root, p, {}};
    walk_seq(info_.body, aliases, Pos::Tail);
  }

  /// Walk a body sequence; all but the last form are statements, the
  /// last inherits `last_pos`. The forms after one that holds a
  /// recursive call run after that call.
  void walk_seq(Value forms, AliasMap& aliases, Pos last_pos) {
    const bool outer = after_call_;
    for (Value rest = forms; !rest.is_nil(); rest = cdr(rest)) {
      const bool last = cdr(rest).is_nil();
      cur_stmt_ = next_stmt_++;
      const std::size_t calls = info_.rec_calls.size();
      walk(car(rest), aliases, last ? last_pos : Pos::Stmt);
      if (info_.rec_calls.size() != calls) after_call_ = true;
    }
    after_call_ = outer;
  }

  void warn(std::string msg) { info_.warnings.push_back(std::move(msg)); }

  void defeat(std::string msg) {
    info_.analyzable = false;
    warn(std::move(msg));
  }

  void note_read(const ResolvedPath& rp, Value form, bool deep) {
    if (rp.path.is_empty() && !deep) return;  // bare variable use
    StructRef r;
    r.root = rp.root;
    r.path = rp.path.canonicalize(decls_);
    r.is_write = false;
    r.deep = deep;
    r.form = form;
    r.stmt_index = cur_stmt_;
    r.after_call = after_call_;
    info_.refs.push_back(std::move(r));
  }

  void note_write(const ResolvedPath& rp, Value form, bool deep,
                  Symbol* update_op) {
    StructRef r;
    r.root = rp.root;
    r.path = rp.path.canonicalize(decls_);
    r.is_write = true;
    r.deep = deep;
    r.form = form;
    r.stmt_index = cur_stmt_;
    r.after_call = after_call_;
    r.update_op = update_op;
    info_.refs.push_back(std::move(r));
  }

  /// Pass-1 hook: `value` stored at `target` — promote fresh variables.
  void note_store_value(Value value, const ResolvedPath& target,
                        const AliasMap& aliases) {
    if (pass2_ || !value.is(Kind::Symbol)) return;
    Symbol* s = static_cast<Symbol*>(value.obj());
    auto it = aliases.find(s);
    if (it == aliases.end() || it->second.kind != AliasInfo::Kind::Fresh)
      return;
    auto [p, inserted] = promotions_.try_emplace(
        s, ResolvedPath{target.root, target.path});
    if (!inserted &&
        (p->second.root != target.root ||
         !(p->second.path == target.path))) {
      // Stored into two different tracked locations: give up on the
      // variable rather than track a set of aliases.
      p->second = ResolvedPath{nullptr, {}};
    }
  }

  /// Record (aref V I) with V a symbol; I is parsed affinely.
  void note_array_ref(Value aref_form, bool is_write,
                      const AliasMap& aliases) {
    (void)aliases;
    ArrayRef r;
    r.array = static_cast<Symbol*>(cadr(aref_form).obj());
    r.is_write = is_write;
    r.form = aref_form;
    r.stmt_index = cur_stmt_;
    r.after_call = after_call_;
    if (auto aff = parse_affine(ctx_, caddr(aref_form))) {
      r.index = *aff;
      r.affine = true;
    } else {
      r.affine = false;
      warn("array subscript " + sexpr::write_str(caddr(aref_form)) +
           " is not affine; worst-case distance assumed");
    }
    info_.array_refs.push_back(std::move(r));
  }

  bool is_special(const std::string& n) const {
    return n == "quote" || n == "if" || n == "cond" || n == "when" ||
           n == "unless" || n == "and" || n == "or" || n == "let" ||
           n == "let*" || n == "progn" || n == "lambda" ||
           n == "defun" || n == "setq" || n == "setf" || n == "while" ||
           n == "dotimes" || n == "dolist" || n == "declare" ||
           n == "future" || n == "incf" || n == "decf" || n == "push" ||
           n == "pop" || n == "defstruct";
  }

  void walk(Value form, AliasMap& aliases, Pos pos);
  void walk_special(const std::string& op, Value form, AliasMap& aliases,
                    Pos pos);
  void walk_call(Symbol* op, Value form, AliasMap& aliases, Pos pos);

  sexpr::Ctx& ctx_;
  const decl::Declarations& decls_;
  FunctionInfo& info_;
  const SummaryMap* summaries_ = nullptr;
  std::unordered_map<Symbol*, ResolvedPath> promotions_;
  bool pass2_ = false;
  int next_stmt_ = 0;
  int cur_stmt_ = -1;
  bool after_call_ = false;  ///< the walk is past a recursive call
};

void Extractor::walk(Value form, AliasMap& aliases, Pos pos) {
  if (!form.is_object()) return;  // nil, fixnum
  if (form.is(Kind::Symbol)) {
    // A use of a variable. Locals and parameters are not memory
    // conflicts; a free variable read is (shared global state).
    Symbol* s = static_cast<Symbol*>(form.obj());
    if (s->name != "t" && !aliases.contains(s)) {
      VarRef r;
      r.var = s;
      r.is_write = false;
      r.form = form;
      r.stmt_index = cur_stmt_;
      r.after_call = after_call_;
      info_.var_refs.push_back(r);
    }
    return;
  }
  if (!form.is(Kind::Cons)) return;  // literals

  Value head = car(form);
  if (!head.is(Kind::Cons) && !head.is(Kind::Symbol)) {
    defeat("call with non-symbol operator: " + sexpr::write_str(form));
    return;
  }
  if (head.is(Kind::Cons)) {
    // ((lambda ...) args): walk the lambda body and the arguments.
    walk(head, aliases, Pos::Value);
    for (Value a = cdr(form); !a.is_nil(); a = cdr(a))
      walk(car(a), aliases, Pos::Value);
    return;
  }

  Symbol* op = static_cast<Symbol*>(head.obj());
  if (is_special(op->name)) {
    walk_special(op->name, form, aliases, pos);
    return;
  }

  // Array element reads: FORTRAN-style subscript analysis (§2).
  if (op->name == "aref" && cadr(form).is(Kind::Symbol)) {
    note_array_ref(form, /*is_write=*/false, aliases);
    walk(caddr(form), aliases, Pos::Value);
    return;
  }

  // Accessor chains resolve to a single (possibly deep) read.
  if (auto rp = resolve(form, aliases)) {
    note_read(*rp, form, /*deep=*/false);
    return;
  }

  walk_call(op, form, aliases, pos);
}

void Extractor::walk_special(const std::string& op, Value form,
                             AliasMap& aliases, Pos pos) {
  if (op == "quote" || op == "declare") return;

  if (op == "if") {
    walk(cadr(form), aliases, Pos::Value);
    const Pos arm = (pos == Pos::Stmt) ? Pos::Stmt : pos;
    cur_stmt_ = next_stmt_++;
    walk(caddr(form), aliases, arm);
    if (!sexpr::cdddr(form).is_nil()) {
      cur_stmt_ = next_stmt_++;
      walk(sexpr::cadddr(form), aliases, arm);
    }
    return;
  }

  if (op == "cond") {
    for (Value cl = cdr(form); !cl.is_nil(); cl = cdr(cl)) {
      Value clause = car(cl);
      walk(car(clause), aliases, Pos::Value);
      AliasMap scoped = aliases;
      walk_seq(cdr(clause), scoped, pos == Pos::Stmt ? Pos::Stmt : pos);
    }
    return;
  }

  if (op == "when" || op == "unless") {
    walk(cadr(form), aliases, Pos::Value);
    AliasMap scoped = aliases;
    walk_seq(cddr(form), scoped, pos == Pos::Stmt ? Pos::Stmt : pos);
    return;
  }

  if (op == "and" || op == "or" || op == "progn") {
    walk_seq(cdr(form), aliases, pos == Pos::Stmt ? Pos::Stmt : pos);
    return;
  }

  if (op == "let" || op == "let*") {
    AliasMap inner = aliases;
    for (Value b = cadr(form); !b.is_nil(); b = cdr(b)) {
      Value binding = car(b);
      if (binding.is(Kind::Symbol)) {
        inner[static_cast<Symbol*>(binding.obj())] =
            AliasInfo{AliasInfo::Kind::Fresh, nullptr, {}};
        continue;
      }
      Symbol* name = as_symbol(car(binding));
      Value init = cadr(binding);
      const AliasMap& init_scope = (op == "let*") ? inner : aliases;
      walk(init, const_cast<AliasMap&>(init_scope), Pos::Value);
      AliasInfo ai;
      if (auto rp = resolve(init, init_scope)) {
        ai = AliasInfo{AliasInfo::Kind::Derived, rp->root, rp->path};
      } else if (init.is(Kind::Cons) && car(init).is(Kind::Symbol) &&
                 (as_symbol(car(init))->name == "cons" ||
                  as_symbol(car(init))->name == "list")) {
        ai = AliasInfo{AliasInfo::Kind::Fresh, nullptr, {}};
      } else {
        ai = AliasInfo{AliasInfo::Kind::Unknown, nullptr, {}};
      }
      inner[name] = ai;
    }
    walk_seq(cddr(form), inner, pos == Pos::Stmt ? Pos::Stmt : pos);
    return;
  }

  if (op == "lambda") {
    // Analyze the lambda body with its parameters unknown; writes
    // through them will be attributed conservatively.
    AliasMap inner = aliases;
    for (Value p = cadr(form); !p.is_nil(); p = cdr(p)) {
      if (car(p).is(Kind::Symbol))
        inner[static_cast<Symbol*>(car(p).obj())] =
            AliasInfo{AliasInfo::Kind::Unknown, nullptr, {}};
    }
    walk_seq(cddr(form), inner, Pos::Value);
    return;
  }

  if (op == "defun") {
    warn("nested defun ignored by the analysis");
    return;
  }

  if (op == "setq") {
    for (Value rest = cdr(form); !rest.is_nil(); rest = cddr(rest)) {
      Symbol* var = as_symbol(car(rest));
      Value val = cadr(rest);
      walk(val, aliases, Pos::Value);
      if (info_.param_index(var) >= 0) {
        if (!info_.is_dirty(var)) info_.dirty_params.push_back(var);
        warn("parameter " + var->name +
             " is reassigned; its transfer function degrades to Σ*");
      } else if (auto it = aliases.find(var); it != aliases.end()) {
        // Rebinding a tracked local: re-resolve or drop to Unknown.
        if (auto rp = resolve(val, aliases)) {
          it->second =
              AliasInfo{AliasInfo::Kind::Derived, rp->root, rp->path};
        } else {
          it->second = AliasInfo{AliasInfo::Kind::Unknown, nullptr, {}};
        }
      } else {
        // Free-variable write: a shared-location modification. Detect
        // the (setq v (op ... v ...)) update shape (paper Fig. 8).
        VarRef r;
        r.var = var;
        r.is_write = true;
        r.form = form;
        r.stmt_index = cur_stmt_;
        r.after_call = after_call_;
        if (val.is(Kind::Cons) && car(val).is(Kind::Symbol)) {
          for (Value a = cdr(val); !a.is_nil(); a = cdr(a)) {
            if (car(a).is(Kind::Symbol) &&
                static_cast<Symbol*>(car(a).obj()) == var) {
              r.update_op = as_symbol(car(val));
              break;
            }
          }
        }
        info_.var_refs.push_back(r);
      }
    }
    return;
  }

  if (op == "setf") {
    for (Value rest = cdr(form); !rest.is_nil(); rest = cddr(rest)) {
      Value place = car(rest);
      Value val = cadr(rest);
      walk(val, aliases, Pos::Value);

      if (place.is(Kind::Symbol)) {
        // Equivalent to setq of a variable.
        Symbol* var = static_cast<Symbol*>(place.obj());
        if (info_.param_index(var) >= 0) {
          if (!info_.is_dirty(var)) info_.dirty_params.push_back(var);
          warn("parameter " + var->name +
               " is reassigned; its transfer function degrades to Σ*");
        } else if (auto it = aliases.find(var); it != aliases.end()) {
          if (auto rp = resolve(val, aliases)) {
            it->second =
                AliasInfo{AliasInfo::Kind::Derived, rp->root, rp->path};
          } else {
            it->second = AliasInfo{AliasInfo::Kind::Unknown, nullptr, {}};
          }
        } else {
          VarRef r;
          r.var = var;
          r.is_write = true;
          r.form = form;
          r.stmt_index = cur_stmt_;
          r.after_call = after_call_;
          if (val.is(Kind::Cons) && car(val).is(Kind::Symbol)) {
            for (Value a = cdr(val); !a.is_nil(); a = cdr(a)) {
              if (car(a).is(Kind::Symbol) &&
                  static_cast<Symbol*>(car(a).obj()) == var) {
                r.update_op = as_symbol(car(val));
                break;
              }
            }
          }
          info_.var_refs.push_back(r);
        }
        continue;
      }

      if (place.is(Kind::Cons) && car(place).is(Kind::Symbol)) {
        const std::string& pname = as_symbol(car(place))->name;
        if (pname == "gethash") {
          // Hash tables are internally synchronized (§3.2.3): no
          // ordering constraint; walk the subforms for reads.
          for (Value sub = cdr(place); !sub.is_nil(); sub = cdr(sub))
            walk(car(sub), aliases, Pos::Value);
          continue;
        }
        if (pname == "aref") {
          // (setf (aref v i) val): an array element write, analyzed
          // with FORTRAN-style subscripts (§2).
          if (cadr(place).is(Kind::Symbol)) {
            note_array_ref(place, /*is_write=*/true, aliases);
          } else {
            defeat("cannot attribute array write " +
                   sexpr::write_str(place) + " to a variable");
          }
          walk(caddr(place), aliases, Pos::Value);
          continue;
        }
      }

      if (auto rp = resolve(place, aliases)) {
        // Detect the update-operator shape (setf P (op ... P ...)) —
        // the candidate for the paper's reordering transformation.
        Symbol* update_op = nullptr;
        if (val.is(Kind::Cons) && car(val).is(Kind::Symbol)) {
          for (Value a = cdr(val); !a.is_nil(); a = cdr(a)) {
            if (sexpr::equal_values(car(a), place)) {
              update_op = as_symbol(car(val));
              break;
            }
          }
        }
        note_write(*rp, form, /*deep=*/false, update_op);
        note_store_value(val, *rp, aliases);
        continue;
      }

      // Unresolvable place: fine if rooted at an unpromoted fresh cell,
      // fatal otherwise.
      Value base = place;
      while (base.is(Kind::Cons)) base = cadr(base);
      bool fresh_base = false;
      if (base.is(Kind::Symbol)) {
        auto it = aliases.find(static_cast<Symbol*>(base.obj()));
        fresh_base = it != aliases.end() &&
                     it->second.kind == AliasInfo::Kind::Fresh &&
                     (!pass2_ ||
                      !promotions_.contains(
                          static_cast<Symbol*>(base.obj())));
      }
      if (!fresh_base) {
        defeat("cannot attribute write " + sexpr::write_str(place) +
               " to a parameter; declare the aliasing or restructure");
      }
    }
    return;
  }

  // A loop that holds a recursive call runs its test and body again
  // after the call.
  const bool outer = after_call_;
  if ((op == "while" || op == "dotimes" || op == "dolist") &&
      contains_rec_call(ctx_, form, info_.name))
    after_call_ = true;

  if (op == "while") {
    walk(cadr(form), aliases, Pos::Value);
    AliasMap scoped = aliases;
    walk_seq(cddr(form), scoped, Pos::Stmt);
    after_call_ = outer;
    return;
  }

  if (op == "dotimes" || op == "dolist") {
    Value spec = cadr(form);
    walk(cadr(spec), aliases, Pos::Value);
    AliasMap inner = aliases;
    Symbol* var = as_symbol(car(spec));
    // dolist variable walks list elements — a deep alias we cannot name;
    // dotimes variable is a number. Either way: Unknown is sound.
    inner[var] = AliasInfo{AliasInfo::Kind::Unknown, nullptr, {}};
    if (op == "dolist") {
      if (auto rp = resolve(cadr(spec), aliases))
        note_read(*rp, cadr(spec), /*deep=*/true);
    }
    walk_seq(cddr(form), inner, Pos::Stmt);
    after_call_ = outer;
    return;
  }

  if (op == "future") {
    walk(cadr(form), aliases, Pos::Value);
    return;
  }

  if (op == "defstruct") return;  // type definition, no accesses

  if (op == "incf" || op == "decf" || op == "push" || op == "pop") {
    // setf macros: analyze as the equivalent (setf PLACE (op … PLACE)).
    Value place = (op == "push") ? caddr(form) : cadr(form);
    Value extra = (op == "push") ? cadr(form)
                  : (op == "incf" || op == "decf")
                      ? (cddr(form).is_nil() ? Value::nil() : caddr(form))
                      : Value::nil();
    if (!extra.is_nil() || op == "push") walk(extra, aliases, Pos::Value);

    Symbol* update_op = nullptr;
    // incf AND decf are additive updates (v −= k is v += −k), and any
    // sequence of additive updates commutes — so both carry + as their
    // update operator for the reordering licence.
    if (op == "incf" || op == "decf")
      update_op = ctx_.symbols.intern("+");
    if (op == "push") update_op = ctx_.symbols.intern("push");

    if (place.is(Kind::Symbol)) {
      Symbol* var = static_cast<Symbol*>(place.obj());
      if (info_.param_index(var) >= 0) {
        if (!info_.is_dirty(var)) info_.dirty_params.push_back(var);
        warn("parameter " + var->name + " is reassigned (by " + op +
             "); its transfer function degrades to Σ*");
      } else if (!aliases.contains(var)) {
        VarRef read;
        read.var = var;
        read.form = form;
        read.stmt_index = cur_stmt_;
        read.after_call = after_call_;
        info_.var_refs.push_back(read);
        VarRef write = read;
        write.is_write = true;
        write.update_op = update_op;
        info_.var_refs.push_back(write);
      } else {
        // A tracked local is rebound to an unknown derivation.
        aliases[var] = AliasInfo{AliasInfo::Kind::Unknown, nullptr, {}};
      }
      return;
    }
    if (auto rp = resolve(place, aliases)) {
      note_read(*rp, form, /*deep=*/false);
      note_write(*rp, form, /*deep=*/false, update_op);
      return;
    }
    defeat("cannot attribute " + op + " place " +
           sexpr::write_str(place) + " to a parameter");
    return;
  }
}

void Extractor::walk_call(Symbol* op, Value form, AliasMap& aliases,
                          Pos pos) {
  // Self-recursive call?
  if (op == info_.name) {
    RecCall call;
    call.form = form;
    call.stmt_index = cur_stmt_;
    call.site_index = static_cast<int>(info_.rec_calls.size());
    call.result_used = (pos == Pos::Value);
    std::size_t i = 0;
    for (Value a = cdr(form); !a.is_nil(); a = cdr(a), ++i) {
      Value arg = car(a);
      walk(arg, aliases, Pos::Value);
      std::optional<FieldPath> path;
      if (i < info_.params.size()) {
        if (auto rp = resolve(arg, aliases)) {
          if (rp->root == info_.params[i])
            path = rp->path.canonicalize(decls_);
        }
      }
      call.arg_paths.push_back(std::move(path));
    }
    while (call.arg_paths.size() < info_.params.size())
      call.arg_paths.emplace_back(std::nullopt);
    info_.rec_calls.push_back(std::move(call));
    return;
  }

  // Interprocedural summaries sharpen calls to other user functions
  // (declared any-search ops stay read-only via the generic path).
  if (const FnSummary* s =
          (summaries_ != nullptr && !decls_.is_any_search(op))
              ? summaries_->lookup(op)
              : nullptr) {
    // Merge the callee's global traffic so conflict detection sees it.
    for (Symbol* g : s->global_reads) {
      VarRef r;
      r.var = g;
      r.form = form;
      r.stmt_index = cur_stmt_;
      r.after_call = after_call_;
      info_.var_refs.push_back(r);
    }
    for (Symbol* g : s->global_writes) {
      VarRef r;
      r.var = g;
      r.is_write = true;
      r.form = form;
      r.stmt_index = cur_stmt_;
      r.after_call = after_call_;
      info_.var_refs.push_back(r);
    }
    switch (s->effect) {
      case FnEffect::Pure:
        for (Value a = cdr(form); !a.is_nil(); a = cdr(a))
          walk(car(a), aliases, Pos::Value);
        return;
      case FnEffect::DeepRead:
        for (Value a = cdr(form); !a.is_nil(); a = cdr(a)) {
          Value arg = car(a);
          if (auto rp = resolve(arg, aliases)) {
            note_read(*rp, arg, /*deep=*/true);
          } else {
            walk(arg, aliases, Pos::Value);
          }
        }
        return;
      case FnEffect::DeepWrite:
        for (Value a = cdr(form); !a.is_nil(); a = cdr(a)) {
          Value arg = car(a);
          if (auto rp = resolve(arg, aliases)) {
            note_read(*rp, arg, /*deep=*/true);
            note_write(*rp, arg, /*deep=*/true, nullptr);
          } else {
            walk(arg, aliases, Pos::Value);
          }
        }
        return;
      case FnEffect::Opaque:
        defeat("call to " + op->name +
               ", whose body defeats analysis (set/eval)");
        return;
    }
  }

  const BuiltinEffect eff =
      decls_.is_any_search(op) ? BuiltinEffect::DeepRead : builtin_effect(op->name);

  switch (eff) {
    case BuiltinEffect::Pure:
      for (Value a = cdr(form); !a.is_nil(); a = cdr(a))
        walk(car(a), aliases, Pos::Value);
      return;

    case BuiltinEffect::DeepRead:
      for (Value a = cdr(form); !a.is_nil(); a = cdr(a)) {
        Value arg = car(a);
        if (auto rp = resolve(arg, aliases)) {
          note_read(*rp, arg, /*deep=*/true);
        } else {
          walk(arg, aliases, Pos::Value);
        }
      }
      return;

    case BuiltinEffect::WriteCar:
    case BuiltinEffect::WriteCdr: {
      Value target = cadr(form);
      Field f = (eff == BuiltinEffect::WriteCar) ? ctx_.s_car : ctx_.s_cdr;
      if (auto rp = resolve(target, aliases)) {
        ResolvedPath loc{rp->root, rp->path.then(f)};
        note_write(loc, form, /*deep=*/false, nullptr);
        note_store_value(caddr(form), loc, aliases);
      } else if (target.is(Kind::Symbol) &&
                 aliases.contains(static_cast<Symbol*>(target.obj())) &&
                 aliases.at(static_cast<Symbol*>(target.obj())).kind ==
                     AliasInfo::Kind::Fresh) {
        // Write through an unpromoted fresh cell: local, no conflict.
      } else {
        defeat("cannot attribute write " + sexpr::write_str(form) +
               " to a parameter; declare the aliasing or restructure");
      }
      walk(caddr(form), aliases, Pos::Value);
      return;
    }

    case BuiltinEffect::DeepWrite:
      for (Value a = cdr(form); !a.is_nil(); a = cdr(a)) {
        Value arg = car(a);
        if (auto rp = resolve(arg, aliases)) {
          note_write(*rp, arg, /*deep=*/true, nullptr);
        } else {
          walk(arg, aliases, Pos::Value);
        }
      }
      return;

    case BuiltinEffect::Opaque:
      defeat("use of " + op->name +
             " defeats the analysis (paper §2); the worst case is "
             "assumed");
      return;

    case BuiltinEffect::HigherOrder: {
      // mapcar/funcall/apply/reduce, or an unknown user function. If a
      // function argument is a literal lambda we walk its body; tracked
      // list arguments are treated as deeply read AND deeply written
      // unless the callee is declared an any-search (pure) operation.
      warn("call to " + op->name +
           " treated conservatively (deep read+write of its arguments); "
           "a declaration could sharpen this");
      for (Value a = cdr(form); !a.is_nil(); a = cdr(a)) {
        Value arg = car(a);
        if (arg.is(Kind::Cons) && car(arg).is(Kind::Symbol) &&
            as_symbol(car(arg))->name == "lambda") {
          walk(arg, aliases, Pos::Value);
          continue;
        }
        if (auto rp = resolve(arg, aliases)) {
          note_read(*rp, arg, /*deep=*/true);
          note_write(*rp, arg, /*deep=*/true, nullptr);
        } else {
          walk(arg, aliases, Pos::Value);
        }
      }
      return;
    }
  }
}

}  // namespace

std::optional<ResolvedPath> resolve_accessor(sexpr::Ctx& ctx, Value expr) {
  // Public helper: resolve with every symbol treated as a root.
  decl::Declarations empty(ctx);
  FunctionInfo dummy;
  Extractor ex(ctx, empty, dummy);
  AliasMap roots;
  // Collect every symbol appearing as a base in the chain.
  Value base = expr;
  while (base.is(Kind::Cons)) base = cadr(base);
  if (base.is(Kind::Symbol)) {
    roots[static_cast<Symbol*>(base.obj())] =
        AliasInfo{AliasInfo::Kind::Root, static_cast<Symbol*>(base.obj()),
                  {}};
  }
  return ex.resolve(expr, roots);
}

FunctionInfo extract_function(sexpr::Ctx& ctx,
                              const decl::Declarations& decls,
                              Value defun_form,
                              const SummaryMap* summaries) {
  if (!defun_form.is(Kind::Cons) || !car(defun_form).is(Kind::Symbol) ||
      as_symbol(car(defun_form))->name != "defun") {
    throw LispError("extract_function: expected a defun form, got " +
                    sexpr::write_str(defun_form));
  }
  FunctionInfo info;
  info.name = as_symbol(cadr(defun_form));
  info.defun_form = defun_form;
  for (Value p = caddr(defun_form); !p.is_nil(); p = cdr(p)) {
    Symbol* s = as_symbol(car(p));
    if (s->name == "&rest" || s->name == "&optional") {
      info.warnings.push_back(
          "lambda-list keyword " + s->name +
          " is not analyzed; trailing parameters are ignored");
      break;
    }
    info.params.push_back(s);
  }
  // Body, skipping leading (declare ...) forms.
  Value body = cdr(sexpr::cddr(defun_form));
  while (body.is(Kind::Cons) && car(body).is(Kind::Cons) &&
         car(car(body)).is(Kind::Symbol) &&
         as_symbol(car(car(body)))->name == "declare") {
    body = cdr(body);
  }
  info.body = body;

  Extractor ex(ctx, decls, info, summaries);
  ex.run();
  return info;
}

}  // namespace curare::analysis
