#include "curare/curare.hpp"

#include <chrono>
#include <sstream>

#include "obs/request.hpp"
#include "runtime/scheduler.hpp"
#include "sexpr/list_ops.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"
#include "transform/build.hpp"
#include "transform/cri.hpp"
#include "transform/delay.hpp"
#include "transform/dps.hpp"
#include "transform/lock_insert.hpp"
#include "transform/rec2iter.hpp"
#include "transform/reorder.hpp"

namespace curare {

using sexpr::as_symbol;
using sexpr::cadr;
using sexpr::car;
using sexpr::Kind;
using sexpr::LispError;

std::string AnalysisReport::to_string() const {
  std::ostringstream out;
  out << "function " << info.name->name << " (";
  for (std::size_t i = 0; i < info.params.size(); ++i)
    out << (i ? " " : "") << info.params[i]->name;
  out << ")\n";
  out << "  recursive call sites: " << info.rec_calls.size() << "\n";
  for (const auto& [param, tau] : transfers)
    out << "  τ_" << param << " = " << tau << "\n";
  out << "  accessors:\n";
  for (const auto& r : info.refs) out << "    " << r.to_string() << "\n";
  for (const auto& v : info.var_refs) {
    out << "    " << v.var->name << (v.is_write ? " [write]" : "")
        << " [variable]\n";
  }
  out << "  head size " << headtail.head_size << ", tail size "
      << headtail.tail_size << ", concurrency (h+t)/h = "
      << headtail.concurrency() << "\n";
  if (conflicts.cross_param_aliasing)
    out << "  worst-case parameter aliasing assumed\n";
  out << "  conflicts: " << conflicts.conflicts.size() << "\n";
  for (const auto& c : conflicts.conflicts)
    out << "    " << c.describe() << "\n";
  for (const auto& w : info.warnings) out << "  note: " << w << "\n";
  return out.str();
}

std::string TransformPlan::to_string() const {
  std::ostringstream out;
  if (!ok) {
    out << "NOT transformed: " << failure << "\n";
    for (const auto& f : feedback) out << "  " << f << "\n";
    return out.str();
  }
  out << "transformed; entry " << (entry ? entry->name : "?");
  if (server != nullptr) {
    out << ", server " << server->name << ", " << num_sites
        << " call site(s)";
  } else {
    out << " (iterative replacement; no server pool)";
  }
  out << "\n";
  out << "  reordered " << reordered << ", delayed " << delayed
      << ", locks " << locks_inserted;
  if (used_rec2iter) out << ", via recursion→iteration";
  if (used_dps) out << ", via destination-passing style";
  out << "\n";
  if (concurrency_cap)
    out << "  concurrency capped at " << *concurrency_cap
        << " by conflict distance\n";
  for (const auto& f : feedback) out << "  " << f << "\n";
  return out.str();
}

Curare::Curare(sexpr::Ctx& ctx, std::size_t workers)
    : ctx_(ctx),
      interp_(ctx),
      vm_(std::make_unique<vm::Vm>(interp_)),
      owned_runtime_(
          std::make_unique<runtime::Runtime>(interp_, workers)),
      runtime_(owned_runtime_.get()),
      decls_(ctx) {
  runtime_->install();
  vm_->install_apply_hook();
  ctx_.heap.gc().add_root_source(this);
}

Curare::Curare(sexpr::Ctx& ctx, runtime::Runtime& shared_runtime)
    : ctx_(ctx),
      interp_(ctx),
      vm_(std::make_unique<vm::Vm>(interp_)),
      runtime_(&shared_runtime),
      decls_(ctx) {
  // Same primitives, but bound to the shared lock manager / future
  // pool / recorder; %cri-run executes in *this* interpreter.
  runtime_->install_into(interp_);
  vm_->install_apply_hook();
  ctx_.heap.gc().add_root_source(this);
}

Value Curare::eval_program(std::string_view src) {
  return vm_->eval_program(src);
}

Curare::~Curare() { ctx_.heap.gc().remove_root_source(this); }

void Curare::gc_roots(std::vector<Value>& out) {
  out.insert(out.end(), program_forms_.begin(), program_forms_.end());
  for (const auto& [name, form] : defuns_) out.push_back(form);
  for (const auto& [name, plan] : plans_)
    out.insert(out.end(), plan.forms.begin(), plan.forms.end());
}

Value Curare::load_program(std::string_view src) {
  // One unsafe region for the whole load: the freshly read forms and
  // the containers under mutation stay out of the collector's sight.
  gc::MutatorScope gc_scope(ctx_.heap.gc());
  // Attribute reader vs. evaluator time to the current serving request
  // (no-ops outside one): read_all is the whole parse phase, the rest
  // of this function is eval.
  const auto t_parse0 = std::chrono::steady_clock::now();
  std::vector<Value> forms = sexpr::read_all(ctx_, src);
  const auto t_parse1 = std::chrono::steady_clock::now();
  obs::charge_request(
      &obs::Breakdown::parse_ns,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t_parse1 -
                                                               t_parse0)
              .count()));
  struct EvalCharge {
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    ~EvalCharge() {
      obs::charge_request(
          &obs::Breakdown::eval_ns,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count()));
    }
  } eval_charge;
  decls_.load_program(forms);
  Value last = Value::nil();
  for (Value form : forms) {
    program_forms_.push_back(form);
    if (form.is(Kind::Cons) && car(form).is(Kind::Symbol)) {
      const std::string& head = as_symbol(car(form))->name;
      if (head == "curare-declare") continue;  // advice, not code
      if (head == "defun") defuns_[as_symbol(cadr(form))] = form;
    }
    last = vm_->eval_top(form);
    // defstruct feeds the analyzer too: its field classes ARE the §6
    // structure declaration.
    if (form.is(Kind::Cons) && car(form).is(Kind::Symbol) &&
        as_symbol(car(form))->name == "defstruct") {
      auto type = interp_.struct_type(as_symbol(cadr(form)));
      if (type) {
        decls_.declare_structure(type->name, type->pointer_fields,
                                 type->data_fields);
      }
    }
  }

  // Recompute interprocedural summaries over everything loaded so far.
  std::vector<Value> all_defuns;
  for (const auto& [name, form] : defuns_) all_defuns.push_back(form);
  summaries_ = analysis::compute_summaries(ctx_, decls_, all_defuns);
  return last;
}

void Curare::adopt_program_forms(const std::vector<Value>& forms) {
  // Mirrors load_program's bookkeeping minus every eval: the forms
  // were evaluated once in the template session and the clone installed
  // the resulting bindings wholesale.
  gc::MutatorScope gc_scope(ctx_.heap.gc());
  decls_.load_program(forms);
  for (Value form : forms) {
    program_forms_.push_back(form);
    if (!form.is(Kind::Cons) || !car(form).is(Kind::Symbol)) continue;
    const std::string& head = as_symbol(car(form))->name;
    if (head == "defun") {
      defuns_[as_symbol(cadr(form))] = form;
    } else if (head == "defstruct") {
      auto type = interp_.struct_type(as_symbol(cadr(form)));
      if (type) {
        decls_.declare_structure(type->name, type->pointer_fields,
                                 type->data_fields);
      }
    }
  }
  std::vector<Value> all_defuns;
  for (const auto& [name, form] : defuns_) all_defuns.push_back(form);
  summaries_ = analysis::compute_summaries(ctx_, decls_, all_defuns);
}

Value Curare::source_of(std::string_view fn_name) const {
  Symbol* name = ctx_.symbols.intern(fn_name);
  auto it = defuns_.find(name);
  if (it == defuns_.end())
    throw LispError("curare: no loaded defun named " + std::string(fn_name));
  return it->second;
}

analysis::FunctionInfo Curare::extract_named(std::string_view fn_name) {
  return analysis::extract_function(ctx_, decls_, source_of(fn_name),
                                    &summaries_);
}

AnalysisReport Curare::analyze(std::string_view fn_name) {
  // Analysis builds rewritten forms in C++ locals (FunctionInfo holds
  // Values); keep them safe from a concurrent collection.
  gc::MutatorScope gc_scope(ctx_.heap.gc());
  AnalysisReport report;
  report.info = extract_named(fn_name);
  report.conflicts = analysis::detect_conflicts(ctx_, decls_, report.info);
  report.headtail = analysis::partition_head_tail(ctx_, report.info);
  for (Symbol* p : report.info.params) {
    if (analysis::RegexPtr tau = report.info.transfer_closure(p))
      report.transfers.emplace_back(p->name, tau->to_string());
  }
  return report;
}

TransformPlan Curare::transform(std::string_view fn_name) {
  // Generated defuns pass through several C++ locals before they are
  // installed and rooted via plans_; keep the world running-but-uncollected
  // until then. (run_parallel is NOT wrapped — servers must be able to
  // stop the world mid-run.)
  gc::MutatorScope gc_scope(ctx_.heap.gc());
  TransformPlan plan;
  Symbol* name = ctx_.symbols.intern(fn_name);

  analysis::FunctionInfo info = extract_named(fn_name);
  if (auto hint = decls_.restructure_hint(name);
      hint.has_value() && !*hint) {
    plan.failure = "declared (no-restructure " + name->name + ")";
    return plan;
  }
  if (!info.is_recursive()) {
    plan.failure =
        "function is not self-recursive; CRI transforms recursive "
        "functions (paper §1.3)";
    return plan;
  }
  if (!info.analyzable) {
    plan.failure = "analysis defeated (set/eval or unattributable "
                   "write); see feedback";
    plan.feedback = info.warnings;
    return plan;
  }

  Value current = info.defun_form;
  bool dps_safe = false;
  Symbol* dps_dest = nullptr;

  // ---- §5 enabling transformations ------------------------------------
  bool result_used = false;
  for (const auto& c : info.rec_calls) result_used |= c.result_used;
  if (result_used) {
    auto r2i = transform::apply_rec2iter(ctx_, decls_, info);
    if (r2i.ok) {
      plan.used_rec2iter = true;
      for (const auto& n : r2i.notes) plan.feedback.push_back(n);
      // The iterative replacement is not recursive at all: install it
      // and finish — it runs at memory bandwidth in a loop. (The CRI
      // pipeline continues only for DPS.)
      interp_.eval_top(r2i.defun);
      defuns_[name] = r2i.defun;
      plan.forms.push_back(r2i.defun);
      plan.ok = true;
      plan.entry = name;
      plan.feedback.push_back(
          "function became iterative; no server pool needed");
      plans_[name] = plan;
      return plan;
    }
    plan.feedback.push_back("rec2iter: " + r2i.failure);
    auto dps = transform::apply_dps(ctx_, info);
    if (!dps.ok) {
      plan.feedback.push_back("dps: " + dps.failure);
      plan.failure =
          "recursive calls use their results and neither enabling "
          "transformation (§5) applies";
      return plan;
    }
    plan.used_dps = true;
    dps_safe = dps.dps_safe;
    for (const auto& n : dps.notes) plan.feedback.push_back(n);
    plan.forms.push_back(dps.dps_defun);
    plan.forms.push_back(dps.wrapper_defun);
    current = dps.dps_defun;
    info = analysis::extract_function(ctx_, decls_, current, &summaries_);
    dps_dest = info.params.empty() ? nullptr : info.params[0];
  }

  analysis::ConflictReport conflicts =
      analysis::detect_conflicts(ctx_, decls_, info);

  if (conflicts.cross_param_aliasing && !dps_safe) {
    plan.failure =
        "worst-case aliasing between parameters prevents any "
        "concurrency; declare (noalias " +
        name->name + ") if arguments never share structure (paper §1.3)";
    for (const auto& n : conflicts.notes) plan.feedback.push_back(n);
    return plan;
  }

  // ---- §3.2.3 reorder ---------------------------------------------------
  bool any_reorderable = false;
  for (const auto& c : conflicts.conflicts)
    any_reorderable |= c.reorderable_op != nullptr;
  if (any_reorderable) {
    auto ro = transform::apply_reorder(ctx_, decls_, info);
    if (ro.rewritten > 0) {
      plan.reordered = ro.rewritten;
      for (const auto& n : ro.notes) plan.feedback.push_back(n);
      current = ro.defun;
      info = analysis::extract_function(ctx_, decls_, current, &summaries_);
      conflicts = analysis::detect_conflicts(ctx_, decls_, info);
    }
  }

  // ---- DPS provenance: drop conflicts on the destination ----------------
  if (dps_safe && dps_dest != nullptr) {
    std::vector<analysis::Conflict> kept;
    for (auto& c : conflicts.conflicts) {
      const bool dest_conflict =
          !c.is_variable_conflict() &&
          (c.earlier.root == dps_dest || c.later.root == dps_dest);
      if (!dest_conflict) kept.push_back(c);
    }
    if (kept.size() != conflicts.conflicts.size()) {
      plan.feedback.push_back(
          "dropped " +
          std::to_string(conflicts.conflicts.size() - kept.size()) +
          " destination-store conflicts: Curare generated these stores "
          "and knows they hit unique cells (§5)");
      conflicts.conflicts = std::move(kept);
    }
  }

  // ---- §3.2.2 delay ---------------------------------------------------------
  if (!conflicts.conflicts.empty()) {
    auto dl = transform::apply_delay(ctx_, decls_, info, conflicts);
    if (dl.moved > 0) {
      plan.delayed = dl.moved;
      for (const auto& n : dl.notes) plan.feedback.push_back(n);
      current = dl.defun;
      info = analysis::extract_function(ctx_, decls_, current, &summaries_);
      conflicts = analysis::detect_conflicts(ctx_, decls_, info);
    }
  }

  // ---- §3.2.1 locks: plan now, insert into the server body below --------
  transform::LockPlan lock_plan;
  if (!conflicts.conflicts.empty()) {
    lock_plan = transform::plan_locks(ctx_, info, conflicts);
    for (const auto& n : lock_plan.notes) plan.feedback.push_back(n);
    plan.locks_inserted = static_cast<int>(lock_plan.locks.size());
    plan.concurrency_cap = conflicts.min_distance();
    for (const auto& c : conflicts.conflicts)
      plan.feedback.push_back("locked: " + c.describe());
  }

  // ---- §3.1/§4 CRI codegen -------------------------------------------------------
  transform::CriOptions cri_opts;
  cri_opts.capture_result = !plan.used_dps;
  auto cri = transform::make_cri(ctx_, info, cri_opts);
  if (!cri.ok) {
    plan.failure = cri.failure;
    return plan;
  }
  for (const auto& n : cri.notes) plan.feedback.push_back(n);
  // Locks wrap the server body, whose return value the pool discards —
  // so appending unlocks never disturbs the captured result.
  Value server_defun =
      transform::apply_lock_plan(ctx_, cri.server_defun, lock_plan);
  plan.forms.push_back(server_defun);
  // The generic wrapper targets the analyzed function directly; the DPS
  // path emits its own destination-seeding wrapper below instead.
  if (!plan.used_dps) plan.forms.push_back(cri.wrapper_defun);

  if (plan.used_dps) {
    // The DPS wrapper still calls f$dps recursively-sequentially; emit a
    // parallel entry that seeds the destination and runs the pool.
    //   (defun f$parallel (%servers params…)
    //     (let ((%d (cons nil nil)))
    //       (%cri-run f$dps$cri NSITES %servers %d params…)
    //       (cdr %d)))
    analysis::FunctionInfo dps_info = info;
    Value d = transform::sym(ctx_, "%d");
    std::vector<Value> run{transform::sym(ctx_, "%cri-run"),
                           Value::object(cri.server_name),
                           Value::fixnum(static_cast<std::int64_t>(
                               cri.num_sites)),
                           transform::sym(ctx_, "%servers"), d};
    std::vector<Value> params{transform::sym(ctx_, "%servers")};
    for (std::size_t i = 1; i < dps_info.params.size(); ++i) {
      params.push_back(Value::object(dps_info.params[i]));
      run.push_back(Value::object(dps_info.params[i]));
    }
    Symbol* pname = ctx_.symbols.intern(name->name + "$parallel");
    Value body = transform::form(
        ctx_,
        {Value::object(ctx_.s_let),
         ctx_.make_list(ctx_.make_list(
             d, transform::form(ctx_, {transform::sym(ctx_, "cons"),
                                       Value::nil(), Value::nil()}))),
         transform::form(ctx_, run),
         transform::form(ctx_, {Value::object(ctx_.s_cdr), d})});
    Value pdefun = transform::form(
        ctx_, {Value::object(ctx_.s_defun), Value::object(pname),
               transform::form(ctx_, params), body});
    plan.forms.push_back(pdefun);
    plan.entry = pname;
  } else {
    plan.entry = cri.wrapper_name;
  }
  plan.server = cri.server_name;
  plan.num_sites = cri.num_sites;
  plan.final_headtail = analysis::partition_head_tail(ctx_, info);
  plan.ok = true;

  for (Value f : plan.forms) interp_.eval_top(f);
  plans_[name] = plan;
  return plan;
}

Value Curare::run_sequential(std::string_view fn_name,
                             std::span<const Value> args) {
  Value fn = interp_.global(fn_name);
  if (fn.is_nil())
    throw LispError("curare: undefined function " + std::string(fn_name));
  return interp_.apply(fn, args);
}

Value Curare::run_parallel(std::string_view fn_name,
                           std::span<const Value> args,
                           std::size_t servers) {
  Symbol* name = ctx_.symbols.intern(fn_name);
  auto it = plans_.find(name);
  if (it == plans_.end() || !it->second.ok)
    throw LispError("curare: " + std::string(fn_name) +
                    " has not been successfully transformed");
  const TransformPlan& plan = it->second;

  if (plan.used_rec2iter) {
    // Iterative replacement: just call it.
    return run_sequential(fn_name, args);
  }

  if (servers == 0) {
    const auto& ht = plan.final_headtail;
    // Depth is unknown statically; assume a mid-size recursion for the
    // §4.1 estimate. Real callers pass an explicit S.
    servers = runtime::choose_servers(
        1024.0, static_cast<double>(ht.head_size ? ht.head_size : 1),
        static_cast<double>(ht.tail_size), plan.concurrency_cap,
        std::max(1u, std::thread::hardware_concurrency()));
  }

  Value entry = interp_.global(plan.entry->name);
  std::vector<Value> full_args{
      Value::fixnum(static_cast<std::int64_t>(servers))};
  full_args.insert(full_args.end(), args.begin(), args.end());
  return interp_.apply(entry, full_args);
}

}  // namespace curare
