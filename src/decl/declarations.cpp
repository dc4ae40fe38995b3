#include "decl/declarations.hpp"

#include "sexpr/list_ops.hpp"
#include "sexpr/printer.hpp"

namespace curare::decl {

using sexpr::as_symbol;
using sexpr::cadr;
using sexpr::car;
using sexpr::cdr;
using sexpr::Kind;
using sexpr::LispError;

Declarations::Declarations(sexpr::Ctx& ctx) {
  // Default structure: the Lisp list cell, both fields pointers (§2.2).
  declare_structure(ctx.symbols.intern("list-cell"),
                    {ctx.s_car, ctx.s_cdr}, {});
  // Arithmetic defaults the paper's Figure 8 discussion presumes.
  for (const char* op : {"+", "*", "min", "max"}) {
    Symbol* s = ctx.symbols.intern(op);
    declare_commutative(s);
    declare_associative(s);
    declare_atomic(s);
  }
  // Hash-table insertion is the paper's canonical unordered insert.
  declare_unordered_insert(ctx.symbols.intern("puthash"));
}

void Declarations::declare_structure(Symbol* name,
                                     std::vector<Symbol*> pointer_fields,
                                     std::vector<Symbol*> data_fields) {
  StructDecl d;
  d.name = name;
  d.pointer_fields = std::move(pointer_fields);
  d.data_fields = std::move(data_fields);
  structures_[name] = std::move(d);
}

const StructDecl* Declarations::structure(Symbol* name) const {
  auto it = structures_.find(name);
  return it == structures_.end() ? nullptr : &it->second;
}

bool Declarations::is_pointer_field(Symbol* field) const {
  for (const auto& [name, d] : structures_) {
    for (Symbol* f : d.pointer_fields)
      if (f == field) return true;
  }
  return false;
}

bool Declarations::is_known_field(Symbol* field) const {
  for (const auto& [name, d] : structures_) {
    for (Symbol* f : d.pointer_fields)
      if (f == field) return true;
    for (Symbol* f : d.data_fields)
      if (f == field) return true;
  }
  return false;
}

void Declarations::declare_inverse(Symbol* f, Symbol* g) {
  inverses_[f] = g;
  inverses_[g] = f;
}

Symbol* Declarations::inverse_of(Symbol* f) const {
  auto it = inverses_.find(f);
  return it == inverses_.end() ? nullptr : it->second;
}

void Declarations::declare_sapp(Symbol* fn, Symbol* param) {
  sapp_params_[fn].insert(param);
}

bool Declarations::has_sapp(Symbol* fn, Symbol* param) const {
  auto it = sapp_params_.find(fn);
  return it != sapp_params_.end() && it->second.contains(param);
}

void Declarations::declare_restructure(Symbol* fn, bool enable) {
  restructure_[fn] = enable;
}

std::optional<bool> Declarations::restructure_hint(Symbol* fn) const {
  auto it = restructure_.find(fn);
  if (it == restructure_.end()) return std::nullopt;
  return it->second;
}

void Declarations::load(Value form) {
  Value head = car(form);
  if (!head.is(Kind::Symbol) ||
      as_symbol(head)->name != "curare-declare") {
    throw LispError("declarations: expected (curare-declare ...), got " +
                    sexpr::write_str(form));
  }
  for (Value rest = cdr(form); !rest.is_nil(); rest = cdr(rest))
    load_clause(car(rest), nullptr);
}

void Declarations::load_clause(Value clause, Symbol* implied_fn) {
  if (!clause.is(Kind::Cons))
    throw LispError("declarations: malformed clause " +
                    sexpr::write_str(clause));
  const std::string& kw = as_symbol(car(clause))->name;
  Value args = cdr(clause);

  auto each_symbol = [&](auto&& fn) {
    for (Value a = args; !a.is_nil(); a = cdr(a)) fn(as_symbol(car(a)));
  };

  if (kw == "structure") {
    Symbol* name = as_symbol(car(args));
    std::vector<Symbol*> ptrs;
    std::vector<Symbol*> data;
    for (Value part = cdr(args); !part.is_nil(); part = cdr(part)) {
      Value spec = car(part);
      const std::string& which = as_symbol(car(spec))->name;
      std::vector<Symbol*>* dst = nullptr;
      if (which == "pointers") {
        dst = &ptrs;
      } else if (which == "data") {
        dst = &data;
      } else {
        throw LispError("declarations: structure part must be (pointers "
                        "...) or (data ...), got " +
                        sexpr::write_str(spec));
      }
      for (Value f = cdr(spec); !f.is_nil(); f = cdr(f))
        dst->push_back(as_symbol(car(f)));
    }
    declare_structure(name, std::move(ptrs), std::move(data));
  } else if (kw == "inverse") {
    declare_inverse(as_symbol(car(args)), as_symbol(cadr(args)));
  } else if (kw == "commutative") {
    each_symbol([&](Symbol* s) { declare_commutative(s); });
  } else if (kw == "associative") {
    each_symbol([&](Symbol* s) { declare_associative(s); });
  } else if (kw == "atomic") {
    each_symbol([&](Symbol* s) { declare_atomic(s); });
  } else if (kw == "unordered") {
    each_symbol([&](Symbol* s) { declare_unordered_insert(s); });
  } else if (kw == "any-search") {
    each_symbol([&](Symbol* s) { declare_any_search(s); });
  } else if (kw == "sapp") {
    if (implied_fn != nullptr) {
      // inline form: (sapp param...)
      each_symbol([&](Symbol* p) { declare_sapp(implied_fn, p); });
    } else {
      // top-level form: (sapp fn param...)
      Symbol* fn = as_symbol(car(args));
      for (Value p = cdr(args); !p.is_nil(); p = cdr(p))
        declare_sapp(fn, as_symbol(car(p)));
    }
  } else if (kw == "noalias") {
    if (implied_fn != nullptr && args.is_nil()) {
      declare_noalias(implied_fn);
    } else {
      each_symbol([&](Symbol* s) { declare_noalias(s); });
    }
  } else if (kw == "restructure" || kw == "no-restructure") {
    const bool enable = (kw == "restructure");
    if (implied_fn != nullptr && args.is_nil()) {
      declare_restructure(implied_fn, enable);
    } else {
      each_symbol([&](Symbol* fn) { declare_restructure(fn, enable); });
    }
  } else {
    throw LispError("declarations: unknown clause kind '" + kw + "'");
  }
}

void Declarations::load_form(Value form) {
  if (!form.is(Kind::Cons)) return;
  Value head = car(form);
  if (!head.is(Kind::Symbol)) return;
  const std::string& name = as_symbol(head)->name;
  if (name == "curare-declare") {
    load(form);
  } else if (name == "defun") {
    // (defun f (params) (declare (curare clause...)) body...)
    Symbol* fn = as_symbol(cadr(form));
    for (Value body = cdr(sexpr::cddr(form)); !body.is_nil();
         body = cdr(body)) {
      Value stmt = car(body);
      if (!stmt.is(Kind::Cons)) break;
      if (!car(stmt).is(Kind::Symbol) ||
          as_symbol(car(stmt))->name != "declare") {
        break;  // declares must lead the body
      }
      for (Value d = cdr(stmt); !d.is_nil(); d = cdr(d)) {
        Value spec = car(d);
        if (spec.is(Kind::Cons) && car(spec).is(Kind::Symbol) &&
            as_symbol(car(spec))->name == "curare") {
          for (Value c = cdr(spec); !c.is_nil(); c = cdr(c))
            load_clause(car(c), fn);
        }
      }
    }
  }
}

}  // namespace curare::decl
