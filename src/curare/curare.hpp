// Curare: the top-level program restructurer.
//
// This is the public API a user of the library sees — the C++ analogue
// of feeding a Lisp program to the paper's transformer:
//
//   sexpr::Ctx ctx;
//   curare::Curare cur(ctx);
//   cur.load_program("(defun f (l) …) (curare-declare …)");
//   auto report = cur.analyze("f");          // conflicts, head/tail, τ
//   auto plan   = cur.transform("f");        // restructured defuns
//   Value out   = cur.run_parallel("f", args, servers);  // CRI pool
//   Value ref   = cur.run_sequential("f", args);
//
// The transformation pipeline follows the paper's §3.2 order of
// decreasing cost and generality in reverse — cheapest device first:
//
//   1. §5  enabling transforms when results are used:
//          recursion→iteration, then destination-passing style;
//   2. §3.2.3 reordering of declared commutative/associative/atomic
//          updates into synchronized primitives;
//   3. §3.2.2 delays — hoisting conflicting writes into the head;
//   4. §3.2.1 locks for everything that remains;
//   5. §3.1/§4 CRI codegen: calls → enqueues, plus the pool wrapper.
//
// Every refusal carries feedback (§6): what blocked the transformation
// and which declaration would unblock it.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/conflict.hpp"
#include "gc/gc.hpp"
#include "analysis/extract.hpp"
#include "analysis/headtail.hpp"
#include "analysis/summary.hpp"
#include "decl/declarations.hpp"
#include "lisp/interp.hpp"
#include "runtime/runtime.hpp"
#include "sexpr/ctx.hpp"
#include "vm/vm.hpp"

namespace curare {

using sexpr::Symbol;
using sexpr::Value;

/// Result of analyzing one function (paper §2–3 artifacts).
struct AnalysisReport {
  analysis::FunctionInfo info;
  analysis::ConflictReport conflicts;
  analysis::HeadTail headtail;
  /// τ per parameter, printed the way the paper writes it.
  std::vector<std::pair<std::string, std::string>> transfers;
  std::string to_string() const;
};

struct TransformPlan {
  bool ok = false;
  std::string failure;                ///< §6 feedback when !ok
  std::vector<std::string> feedback;  ///< everything noteworthy
  std::vector<Value> forms;           ///< defuns to install, in order
  Symbol* entry = nullptr;            ///< f$parallel
  Symbol* server = nullptr;           ///< f$cri
  /// The server is a head loop whose tails are queued tasks (one call
  /// site, and no lock the tail reaches; transform/cri.hpp).
  bool work_first = false;
  Symbol* tail = nullptr;  ///< f$tail, when the head loop queues tails
  std::size_t num_sites = 0;  ///< recursive call sites
  int locks_inserted = 0;
  int delayed = 0;
  int reordered = 0;
  bool used_dps = false;
  bool used_rec2iter = false;
  /// Min conflict distance, if locked. It bounds S for the enqueue form
  /// only: a head loop runs the locked heads on one server at any S.
  std::optional<int> concurrency_cap;
  analysis::HeadTail final_headtail;   ///< of the server body source
  std::string to_string() const;
};

class Curare : public gc::RootSource {
 public:
  explicit Curare(sexpr::Ctx& ctx, std::size_t workers = 0);

  /// Serving-layer construction: a driver with its own interpreter and
  /// global environment (session isolation) sharing an existing
  /// process-wide Runtime — one lock manager, future pool, and
  /// recorder across all sessions. The shared runtime's primitives
  /// are installed into this driver's interpreter; CRI runs started
  /// here execute against *this* interpreter's environment.
  Curare(sexpr::Ctx& ctx, runtime::Runtime& shared_runtime);

  ~Curare() override;

  /// Read a program and evaluate it form by form; returns the value of
  /// the last evaluated form (nil for an empty program). The read
  /// forms are rooted, and a collection may run between top-level
  /// forms. Each form that defines something the analyzer reads — a
  /// defun, a defstruct (its field classes are the §6 structure
  /// declaration) or a curare-declare (advice, never evaluated) — joins
  /// the definitions, and the declarations and summaries are rebuilt
  /// once at the end of a load that had one. Other forms are not kept.
  /// The returned Value stays rooted until this driver's next load.
  Value load_program(std::string_view src);

  /// The same as load_program: the REPL and -e read through it too.
  Value eval_program(std::string_view src) { return load_program(src); }

  /// What the analyzer reads, in a canonical order: the latest defstruct
  /// per struct name and the latest defun per function name, each by
  /// name, then the curare-declare forms, each once, in the order last
  /// sent. Replaying them through adopt_definitions rebuilds the same
  /// declarations and summaries; equal definition sets give equal
  /// lists whatever order or how often the forms were sent.
  std::vector<Value> definitions() const;

  /// Warm-start support: record definitions that were already
  /// *evaluated* in a template session (the image clone installs the
  /// resulting bindings directly, so nothing here is evaluated), then
  /// rebuild the declarations and summaries. defstruct types must be
  /// registered with the interpreter first (clone_into does that).
  void adopt_definitions(const std::vector<Value>& forms);

  /// Rebuilt from the definitions after every load that defines
  /// something.
  const decl::Declarations& declarations() const { return decls_; }
  lisp::Interp& interp() { return interp_; }
  vm::Vm& vm() { return *vm_; }
  runtime::Runtime& runtime() { return *runtime_; }

  /// Analyze a loaded function (paper §2–3).
  AnalysisReport analyze(std::string_view fn_name);

  /// Restructure a loaded function, choosing the correctness devices
  /// cheapest first (§3.2: reorder, then delay, then lock); on success
  /// the transformed defuns are installed in the interpreter (the
  /// sequential version keeps its name — the parallel entry point is
  /// plan.entry).
  TransformPlan transform(std::string_view fn_name);

  /// Run the sequential (original) definition.
  Value run_sequential(std::string_view fn_name,
                       std::span<const Value> args);

  /// Run the transformed version through its f$parallel entry under S
  /// servers (0 = the §4.1 model's choice, from the last CRI run's
  /// measured d, h and t, or static size estimates before the first
  /// run). Where the model gives one server for the measured shape, the
  /// entry runs the original defun instead (runtime.hpp
  /// run_in_parallel). transform() must have succeeded for this
  /// function.
  Value run_parallel(std::string_view fn_name, std::span<const Value> args,
                     std::size_t servers = 0);

  /// The defun source of a loaded function.
  Value source_of(std::string_view fn_name) const;

  /// Interprocedural effect summaries of every loaded defun (recomputed
  /// after each load that defines something).
  const analysis::SummaryMap& summaries() const { return summaries_; }

  /// Collector callback (world stopped): every definition, every
  /// (possibly rewritten) defun source, every transform plan's
  /// generated forms and the last load's value are live. The containers
  /// are mutated only under a MutatorScope, so the collector never sees
  /// them mid-update.
  void gc_roots(std::vector<Value>& out) override;

 private:
  analysis::FunctionInfo extract_named(std::string_view fn_name);
  /// Load the §6 advice one definition carries into decls_.
  void declare_from(Value form);
  /// The bookkeeping step both loading paths share: if `form` is a
  /// definition, record it and return true.
  bool record_definition(Value form);
  /// Rebuild the declarations and summaries from the definitions.
  void refresh_analysis();

  sexpr::Ctx& ctx_;
  lisp::Interp interp_;
  /// The bytecode engine over interp_: its apply hook is installed at
  /// construction and every top-level form evaluates through it
  /// (compilation is lazy; refused forms fall back to interp_).
  std::unique_ptr<vm::Vm> vm_;
  /// Owned in the classic single-process shape; null when borrowing a
  /// process-wide runtime (serving layer).
  std::unique_ptr<runtime::Runtime> owned_runtime_;
  runtime::Runtime* runtime_;
  decl::Declarations decls_;
  std::unordered_map<Symbol*, Value> structs_;
  std::unordered_map<Symbol*, Value> defuns_;
  std::vector<Value> declares_;
  Value last_ = Value::nil();  ///< load_program's result, kept rooted
  std::unordered_map<Symbol*, TransformPlan> plans_;
  analysis::SummaryMap summaries_;
};

}  // namespace curare
