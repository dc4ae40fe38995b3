#include "curare/curare.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/request.hpp"
#include "runtime/scheduler.hpp"
#include "sexpr/equal.hpp"
#include "sexpr/list_ops.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"
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
    if (work_first)
      out << ", work-first"
          << (tail != nullptr ? " (tails: " + tail->name + ")" : "");
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
  if (work_first && locks_inserted > 0)
    out << "  the head loop orders the locked accesses; tails run on any "
           "server\n";
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

Curare::~Curare() {
  // Futures spawned by this driver's programs capture interp_ by
  // reference. An owned runtime joins its pool before interp_ dies
  // (member order); a shared pool outlives us, so drain it here.
  if (!owned_runtime_) {
    try {
      runtime_->futures().wait_idle();
    } catch (...) {
      // Cancellation during teardown: the remaining tasks belong to
      // other drivers or have already observed their own tokens.
    }
  }
  ctx_.heap.gc().remove_root_source(this);
}

void Curare::gc_roots(std::vector<Value>& out) {
  for (const auto& [name, form] : structs_) out.push_back(form);
  for (const auto& [name, form] : defuns_) out.push_back(form);
  out.insert(out.end(), declares_.begin(), declares_.end());
  for (const auto& [name, plan] : plans_)
    out.insert(out.end(), plan.forms.begin(), plan.forms.end());
  out.push_back(last_);
}

namespace {

/// The head symbol's name of a (head ...) form, or "" for anything else.
std::string_view form_head(Value form) {
  if (!form.is(Kind::Cons) || !car(form).is(Kind::Symbol)) return {};
  return as_symbol(car(form))->name;
}

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

void Curare::declare_from(Value form) {
  if (form_head(form) == "defstruct") {
    // Its field classes are the §6 structure declaration.
    if (auto type = interp_.struct_type(as_symbol(cadr(form)))) {
      decls_.declare_structure(type->name, type->pointer_fields,
                               type->data_fields);
    }
  } else {
    decls_.load_form(form);  // curare-declare, or a defun's inline clauses
  }
}

bool Curare::record_definition(Value form) {
  const std::string_view head = form_head(form);
  if (head != "defun" && head != "defstruct" && head != "curare-declare")
    return false;
  declare_from(form);  // malformed advice throws before it is kept
  if (head == "defun") {
    defuns_[as_symbol(cadr(form))] = form;
  } else if (head == "defstruct") {
    structs_[as_symbol(cadr(form))] = form;
  } else {
    // Once each, in the order last sent: replaying the list leaves the
    // same hints in force as loading every copy did.
    std::erase_if(declares_,
                  [&](Value d) { return sexpr::equal_values(d, form); });
    declares_.push_back(form);
  }
  return true;
}

void Curare::refresh_analysis() {
  gc::MutatorScope gc_scope(ctx_.heap.gc());
  // The declarations are rebuilt from the definitions, so they are the
  // same whatever order the forms came in (and the same in a clone,
  // which replays definitions()); a redefined defun's old inline
  // clauses go with it. Top-level declarations come last and win.
  decls_ = decl::Declarations(ctx_);
  for (Value form : definitions()) declare_from(form);
  std::vector<Value> all_defuns;
  all_defuns.reserve(defuns_.size());
  for (const auto& [name, form] : defuns_) all_defuns.push_back(form);
  summaries_ = analysis::compute_summaries(ctx_, decls_, all_defuns);
}

Value Curare::load_program(std::string_view src) {
  // Like Vm::eval_program: the read forms are rooted, and a collection
  // may run between top-level forms. Reading is charged to the current
  // serving request's parse phase, the rest to eval (no-ops outside a
  // request).
  gc::GcHeap& gc = ctx_.heap.gc();
  gc::RootScope roots(gc);
  std::vector<Value> forms;
  {
    const auto t_parse = std::chrono::steady_clock::now();
    gc::MutatorScope gc_scope(gc);
    last_ = Value::nil();
    forms = sexpr::read_all(ctx_, src);
    for (Value f : forms) roots.add(f);
    obs::charge_request(&obs::Breakdown::parse_ns, ns_since(t_parse));
  }
  const auto t_eval = std::chrono::steady_clock::now();
  bool defined = false;
  // Definitions loaded before a failing form stay loaded, so the
  // declarations and summaries are rebuilt on the way out either way.
  auto finish = [&] {
    if (defined) refresh_analysis();
    obs::charge_request(&obs::Breakdown::eval_ns, ns_since(t_eval));
  };
  try {
    for (Value form : forms) {
      gc.maybe_collect();
      gc::MutatorScope gc_scope(gc);
      if (form_head(form) != "curare-declare") last_ = vm_->eval_top(form);
      defined |= record_definition(form);
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();
  return last_;
}

void Curare::adopt_definitions(const std::vector<Value>& forms) {
  gc::MutatorScope gc_scope(ctx_.heap.gc());
  for (Value form : forms) record_definition(form);
  refresh_analysis();
}

std::vector<Value> Curare::definitions() const {
  std::vector<Value> out;
  for (const auto* defs : {&structs_, &defuns_}) {
    std::vector<std::pair<Symbol*, Value>> named(defs->begin(), defs->end());
    std::sort(named.begin(), named.end(), [](const auto& a, const auto& b) {
      return a.first->name < b.first->name;
    });
    for (const auto& [name, form] : named) out.push_back(form);
  }
  out.insert(out.end(), declares_.begin(), declares_.end());
  return out;
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
  // The analyzed parameters stop at a lambda-list keyword, and CRI
  // passes every invocation exactly those.
  if (Value kw = sexpr::nth(sexpr::caddr(info.defun_form), info.params.size());
      !kw.is_nil()) {
    plan.failure = "lambda-list keyword " + as_symbol(kw)->name + " in " +
                   name->name + "'s parameters; CRI passes every invocation "
                   "a fixed argument list, so make each parameter required";
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
    if (std::string why = transform::mixed_update_conflict(decls_, conflicts);
        !why.empty()) {
      plan.failure = std::move(why);
      return plan;
    }
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

  // ---- §3.2.1 locks: plan now, placed by the CRI codegen below --------
  transform::LockPlan lock_plan;
  bool locks_in_head = false;
  if (!conflicts.conflicts.empty()) {
    lock_plan = transform::plan_locks(ctx_, info, conflicts);
    for (const auto& n : lock_plan.notes) plan.feedback.push_back(n);
    plan.locks_inserted = static_cast<int>(lock_plan.locks.size());
    plan.concurrency_cap = conflicts.min_distance();
    for (const auto& c : conflicts.conflicts)
      plan.feedback.push_back("locked: " + c.describe());
    locks_in_head = transform::locks_only_in_head(info, conflicts, lock_plan);
  }

  // ---- §3.1/§4 CRI codegen -------------------------------------------------------
  auto cri = transform::make_cri(ctx_, info, lock_plan, locks_in_head,
                                 plan.concurrency_cap);
  if (!cri.ok) {
    plan.failure = cri.failure;
    return plan;
  }
  for (const auto& n : cri.notes) plan.feedback.push_back(n);
  plan.forms.push_back(cri.server_defun);
  if (cri.tail_name != nullptr) plan.forms.push_back(cri.tail_defun);
  plan.forms.push_back(cri.wrapper_defun);
  plan.entry = cri.wrapper_name;
  plan.server = cri.server_name;
  plan.tail = cri.tail_name;
  plan.work_first = cri.work_first;
  plan.num_sites = cri.num_sites;
  plan.final_headtail = analysis::partition_head_tail(ctx_, info);
  plan.forms = transform::lock_shared_increments(ctx_, std::move(plan.forms));
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
    // §4.1's choice from the last CRI run's measured d, h and t. Before
    // the first run, depth is unknown: assume a mid-size recursion and
    // the static head and tail sizes. The conflict distance caps only
    // the enqueue form: a head loop keeps its locked accesses on one
    // server whatever S is. S = 1 makes the entry run the original
    // defun (runtime.hpp run_in_parallel).
    const auto& ht = plan.final_headtail;
    runtime::Runtime::CriShape shape{
        1024.0, static_cast<double>(ht.head_size ? ht.head_size : 1),
        static_cast<double>(ht.tail_size)};
    if (auto measured = runtime_->cri_shape(plan.server->name))
      shape = *measured;
    servers = runtime::choose_servers(
        shape.depth, shape.head_ns, shape.tail_ns,
        plan.work_first ? std::nullopt : plan.concurrency_cap,
        std::max(1u, std::thread::hardware_concurrency()));
  }

  Value entry = interp_.global(plan.entry->name);
  std::vector<Value> full_args{
      Value::fixnum(static_cast<std::int64_t>(servers))};
  full_args.insert(full_args.end(), args.begin(), args.end());
  return interp_.apply(entry, full_args);
}

}  // namespace curare
