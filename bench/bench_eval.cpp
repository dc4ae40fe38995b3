// E23: single-thread eval throughput, tree-walker vs. bytecode VM
// (DESIGN.md §13).
//
// Five workloads, each a defun called back-to-back. The vm column runs
// Curare::eval_program — exactly what the CLI and the serving daemon
// execute; the tree column runs a bare lisp::Interp with no Vm over
// it, as the differential oracle's tree leg does:
//
//   fib        naive double recursion (call-heavy, non-tail)
//   sum_loop   tail-recursive accumulation (TCE on both engines)
//   arith_loop dotimes + setq over fixnum arithmetic — the
//              acceptance cell: vm must clear 5x tree here
//   list_ops   push building a list, dolist folding it (allocation
//              and cons traffic dilute pure dispatch wins)
//   struct_walk a defstruct binary tree of depth n, built once per
//              call and walked 8 times; each node does
//              (setf (weight tr) (+ (weight tr) 1)), the body of
//              cri_runs' walk (a struct-field place)
//
// Methodology matches bench_obs: engines measured round-robin
// (tree, vm, tree, vm, …) for `reps` repetitions, best run kept, so
// turbo/thermal drift spreads across both engines instead of
// flattering whichever ran second. Every run cross-checks the printed
// result against the workload's expected value — a differential guard
// riding the benchmark, not a separate test.
//
// Output: a human table and JSON-lines in BENCH_eval.json
// (CURARE_BENCH_EVAL_JSON overrides; the file is truncated first):
//
//   {"bench":"eval_ab","workload":"arith_loop","engine":"vm","n":…,
//    "iters":…,"reps":…,"result":"…","wall_s":…,"evals_per_s":…}
//
// tools/bench_check.py gates on these rows: identical "result" per
// (workload, n) across engines, vm >= tree on every workload, and
// vm >= 5x tree on arith_loop. CURARE_BENCH_SMOKE=1 shrinks only the
// run-volatile knobs (iters, reps) — n stays full-size so smoke rows
// line up identity-wise (including "result") against the committed
// full-length baseline.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hpp"
#include "lisp/interp.hpp"
#include "sexpr/ctx.hpp"
#include "sexpr/printer.hpp"

using namespace curare;
using namespace curare::bench;

namespace {

struct Workload {
  const char* name;
  const char* define;     ///< defun source, loaded once per engine
  const char* call_head;  ///< text before n in the call form
  const char* call_tail;  ///< text after n (extra args + close paren)
  int n;                  ///< workload size (identical in smoke mode)
  int iters;              ///< calls per measured run (smoke shrinks it)
  const char* expect;     ///< printed result for `n`
};

struct Point {
  double wall_s = 0;
  double evals_per_s = 0;
  std::string result;
};

/// Time `w`'s call form under `eval_program` (program text → last
/// value), its defun already loaded.
template <typename Eval>
Point measure(Eval&& eval_program, const Workload& w) {
  const std::string call =
      std::string(w.call_head) + std::to_string(w.n) + w.call_tail;
  Point p;
  // Warm-up call: under the VM this is where lazy compilation lands,
  // so the measured loop times steady-state execution on both engines.
  p.result = sexpr::write_str(eval_program(call));
  p.wall_s = time_s([&] {
    for (int i = 0; i < w.iters; ++i) eval_program(call);
  });
  p.evals_per_s =
      p.wall_s > 0 ? static_cast<double>(w.iters) / p.wall_s : 0;
  return p;
}

Point run_tree(const Workload& w) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  in.eval_program(w.define);
  return measure(
      [&](const std::string& src) { return in.eval_program(src); }, w);
}

Point run_vm(const Workload& w) {
  sexpr::Ctx ctx;
  Curare cur(ctx);
  cur.interp().set_echo(false);
  cur.load_program(w.define);
  return measure(
      [&](const std::string& src) { return cur.eval_program(src); }, w);
}

constexpr const char* kEngineNames[] = {"tree", "vm"};
Point (*const kEngines[])(const Workload&) = {run_tree, run_vm};

}  // namespace

int main() {
  const bool smoke = smoke_mode();

  // n and iters are sized so each (workload, engine) run is a few
  // hundred ms full-length — enough for a stable best-of-3.
  const Workload workloads[] = {
      {"fib",
       "(defun bench-fib (n) (if (< n 2) n "
       "(+ (bench-fib (- n 1)) (bench-fib (- n 2)))))",
       "(bench-fib ", ")", 18, smoke ? 3 : 40, "2584"},
      {"sum_loop",
       "(defun bench-sum (n acc) (if (< n 1) acc "
       "(bench-sum (- n 1) (+ acc n))))",
       "(bench-sum ", " 0)", 4000, smoke ? 5 : 400, "8002000"},
      {"arith_loop",
       "(defun bench-arith (n) (let ((acc 0)) "
       "(dotimes (i n) (setq acc (+ acc (* i 3)))) acc))",
       "(bench-arith ", ")", 5000, smoke ? 5 : 400, "37492500"},
      {"list_ops",
       "(defun bench-list (n) (let ((l nil) (s 0)) "
       "(dotimes (i n) (push i l)) "
       "(dolist (x l) (setq s (+ s x))) s))",
       // list_ops is fast per call; smoke keeps 40 iters so the
       // measured window stays ~10ms (5 would be drift-dominated).
       "(bench-list ", ")", 400, smoke ? 40 : 300, "79800"},
      {"struct_walk",
       "(defstruct tnode (pointers left right) (data weight))"
       "(defun walk (tr) (when tr (walk (left tr)) (walk (right tr)) "
       "(setf (weight tr) (+ (weight tr) 1)) nil))"
       "(defun grow (d) (if (= d 0) nil (make-tnode 'weight 0 "
       "'left (grow (- d 1)) 'right (grow (- d 1)))))"
       "(defun bench-walk (d) (let ((tr (grow d))) "
       "(dotimes (i 8) (walk tr)) (weight tr)))",
       "(bench-walk ", ")", 10, smoke ? 5 : 60, "8"},
  };
  constexpr std::size_t kNW = sizeof workloads / sizeof workloads[0];
  const int reps = smoke ? 1 : 3;

  const char* path = std::getenv("CURARE_BENCH_EVAL_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_eval.json";
  std::FILE* js = std::fopen(path, "w");

  Point best[kNW][2];
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t wi = 0; wi < kNW; ++wi) {
      for (std::size_t ei = 0; ei < 2; ++ei) {
        const Workload& w = workloads[wi];
        const Point p = kEngines[ei](w);
        if (p.result != w.expect) {
          std::fprintf(stderr,
                       "bench_eval: %s on %s returned %s, want %s\n",
                       w.name, kEngineNames[ei], p.result.c_str(),
                       w.expect);
          return 1;
        }
        if (p.evals_per_s > best[wi][ei].evals_per_s) best[wi][ei] = p;
      }
    }
  }

  std::printf("== eval throughput: tree vs vm (best of %d) ==\n", reps);
  std::printf("%-11s %6s %6s %12s %12s %8s\n", "workload", "n", "iters",
              "tree/s", "vm/s", "speedup");
  for (std::size_t wi = 0; wi < kNW; ++wi) {
    const Workload& w = workloads[wi];
    const Point& tr = best[wi][0];
    const Point& vm = best[wi][1];
    if (tr.result != vm.result) {
      std::fprintf(stderr,
                   "bench_eval: engines disagree on %s: tree=%s vm=%s\n",
                   w.name, tr.result.c_str(), vm.result.c_str());
      return 1;
    }
    const double speedup =
        tr.evals_per_s > 0 ? vm.evals_per_s / tr.evals_per_s : 0;
    std::printf("%-11s %6d %6d %12.1f %12.1f %7.2fx\n", w.name, w.n,
                w.iters, tr.evals_per_s, vm.evals_per_s, speedup);
    if (js != nullptr) {
      for (std::size_t ei = 0; ei < 2; ++ei) {
        const Point& p = best[wi][ei];
        std::fprintf(js,
                     "{\"bench\":\"eval_ab\",\"workload\":\"%s\","
                     "\"engine\":\"%s\",\"n\":%d,\"iters\":%d,"
                     "\"reps\":%d,\"result\":\"%s\",\"wall_s\":%.6f,"
                     "\"evals_per_s\":%.1f,%s}\n",
                     w.name, kEngineNames[ei], w.n, w.iters, reps,
                     p.result.c_str(), p.wall_s, p.evals_per_s,
                     host_facts_json().c_str());
      }
    }
  }

  if (js != nullptr) std::fclose(js);
  std::printf("JSON %s\n", path);
  return 0;
}
