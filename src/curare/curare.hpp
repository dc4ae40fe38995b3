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
  std::size_t num_sites = 0;
  int locks_inserted = 0;
  int delayed = 0;
  int reordered = 0;
  bool used_dps = false;
  bool used_rec2iter = false;
  std::optional<int> concurrency_cap;  ///< min conflict distance, if locked
  analysis::HeadTail final_headtail;   ///< of the server body source
  std::string to_string() const;
};

class Curare : public gc::RootSource {
 public:
  explicit Curare(sexpr::Ctx& ctx, std::size_t workers = 0);

  /// Serving-layer construction: a driver with its own interpreter and
  /// global environment (session isolation) sharing an existing
  /// process-wide Runtime — one lock manager, future pool, watchdog,
  /// and recorder across all sessions. The shared runtime's primitives
  /// are installed into this driver's interpreter; CRI runs started
  /// here execute against *this* interpreter's environment.
  Curare(sexpr::Ctx& ctx, runtime::Runtime& shared_runtime);

  ~Curare() override;

  /// Read a program: defuns are evaluated (defining the sequential
  /// versions), declarations are collected. Returns the value of the
  /// last top-level form (nil for an empty program). The returned
  /// Value is NOT rooted once the caller leaves its own MutatorScope /
  /// RootScope — serving-mode callers must root it before the next
  /// quiescent point.
  Value load_program(std::string_view src);

  /// Every top-level form load_program has accepted so far, in order.
  /// The image subsystem captures these alongside the environment so a
  /// cloned session can replay the analyzer bookkeeping.
  const std::vector<Value>& program_forms() const { return program_forms_; }

  /// Warm-start support: replay the analyzer-side bookkeeping of
  /// load_program (defun tracking, declarations, defstruct structure
  /// declarations, interprocedural summaries) over forms that were
  /// already *evaluated* in a template session — the image clone
  /// installs the resulting bindings directly, so nothing here is
  /// evaluated. defstruct forms are assumed re-registered with the
  /// interpreter before this is called (clone_into does that first).
  void adopt_program_forms(const std::vector<Value>& forms);

  /// Read and evaluate every form in `src` through the VM (forms it
  /// refuses run on the tree-walker); returns the last value. Unlike
  /// load_program this does NOT feed the analyzer — it is the REPL/-e
  /// evaluation path.
  Value eval_program(std::string_view src);

  const decl::Declarations& declarations() const { return decls_; }
  decl::Declarations& declarations() { return decls_; }
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

  /// Run the transformed version under S servers (0 = scheduler choice
  /// using the §4.1 model with static size estimates). transform() must
  /// have succeeded for this function.
  Value run_parallel(std::string_view fn_name, std::span<const Value> args,
                     std::size_t servers = 0);

  /// The defun source of a loaded function.
  Value source_of(std::string_view fn_name) const;

  /// Interprocedural effect summaries of every loaded defun (recomputed
  /// on each load_program).
  const analysis::SummaryMap& summaries() const { return summaries_; }

  /// Collector callback (world stopped): every loaded program form,
  /// every (possibly rewritten) defun source, and every transform
  /// plan's generated forms are live. The containers are mutated only
  /// under a MutatorScope (load_program/transform), so the collector
  /// never sees them mid-update.
  void gc_roots(std::vector<Value>& out) override;

 private:
  analysis::FunctionInfo extract_named(std::string_view fn_name);

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
  std::vector<Value> program_forms_;
  std::unordered_map<Symbol*, Value> defuns_;
  std::unordered_map<Symbol*, TransformPlan> plans_;
  analysis::SummaryMap summaries_;
};

}  // namespace curare
