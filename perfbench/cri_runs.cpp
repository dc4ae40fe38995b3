// Workload cri_runs: one operation is one Curare::run_parallel at
// S = min(4, nproc) servers of a restructured recursive function.
//
// The five functions cover each §3.2/§5 device, and each does Lisp
// work per invocation through (work k):
//   tally  list, reorderable counter (reorder → %atomic-incf-var)
//   scale  list, conflict-free (setf (car l) …)
//   drain  list, non-commutative update of a global (lock, distance 1)
//   remq   list, result used (destination-passing style; allocates)
//   walk   defstruct binary tree, two recursive call sites
// tally, scale, drain and walk end in nil: the parallel wrapper returns
// the value of whichever invocation finished last, which under real
// concurrency is not the sequential one. drain updates before its
// recursive call: after it, the lock would order the updates by
// invocation, the reverse of the sequential order.
//
// From the seed: eight inputs per function, each with its own length
// (tree depth for walk) and data. Lengths are drawn one per stratum of
// a fixed range; the work-loop length k is a fixed budget divided by the
// number of invocations, so c_f = (h+t)/h spans roughly 2–20 while every
// input of a function costs about the same. Set-up loads the program,
// builds the inputs, transforms the five functions and records each
// input's sequential reference: returned value, final state and time.
//
// Every operation resets the state its function mutates (the global, or
// a fresh copy of the list or tree), runs the parallel version, and
// compares the returned value and the final state with the sequential
// reference — the paper's final-state sequentializability criterion.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "curare/curare.hpp"
#include "gc_tally.hpp"
#include "runtime/scheduler.hpp"
#include "sexpr/printer.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using curare::Value;

constexpr const char* kProgram = R"lisp(
(defun work (k)
  (let ((i 0) (a 0))
    (while (< i k) (setq a (+ a i)) (setq i (+ i 1)))
    a))
(setq total 0)
(defun tally (l k)
  (when l (tally (cdr l) k) (work k) (setq total (+ total (car l))) nil))
(defun scale (l k)
  (when l (scale (cdr l) k) (work k) (setf (car l) (* 2 (car l))) nil))
(setq balance 0)
(defun drain (l k)
  (when l (setq balance (- (car l) balance)) (drain (cdr l) k) (work k) nil))
(defun wcar (l k) (work k) (car l))
(defun remq (obj lst k)
  (cond ((null lst) nil)
        ((eq obj (wcar lst k)) (remq obj (cdr lst) k))
        (t (cons (car lst) (remq obj (cdr lst) k)))))
(defstruct tnode (pointers left right) (data weight))
(defun walk (tr k)
  (when tr
    (walk (left tr) k)
    (walk (right tr) k)
    (work k)
    (setf (weight tr) (+ (weight tr) 1))
    nil))

(defun next-x (x) (mod (+ (* x 1103) 12345) 10007))
(defun bench-list (n x)
  (let ((r nil))
    (while (> n 0)
      (setq x (next-x x))
      (setq r (cons (mod x 100) r))
      (setq n (- n 1)))
    r))
(defun bench-remq-list (n x)
  (let ((r nil))
    (while (> n 0)
      (setq x (next-x x))
      (setq r (cons (if (= (mod x 4) 0) 'x (mod x 100)) r))
      (setq n (- n 1)))
    r))
(defun bench-tree (d x)
  (if (= d 0) nil
      (make-tnode 'weight (mod x 100)
                  'left (bench-tree (- d 1) (next-x x))
                  'right (bench-tree (- d 1) (next-x (+ x 7))))))
(defun tree-copy (tr)
  (if (null tr) nil
      (make-tnode 'weight (weight tr)
                  'left (tree-copy (left tr))
                  'right (tree-copy (right tr)))))
(defun tree-weights (tr)
  (if (null tr) nil
      (cons (weight tr)
            (append (tree-weights (left tr)) (tree-weights (right tr))))))
)lisp";

enum Kind { kTally, kScale, kDrain, kRemq, kWalk, kKinds };

struct KindSpec {
  const char* name;
  /// Lisp forms run before each call (reset the state it mutates).
  const char* reset;
  /// Lisp variable passed as the structure argument.
  const char* arg;
  /// Lisp expression printing the final state to compare.
  const char* state;
  std::int64_t size_lo, size_hi;  ///< list length, or tree depth
  /// Invocations × k, the same for every input of the kind: a long
  /// list gets a short work loop and a short list a long one, so c_f
  /// varies across inputs while the sequential time stays at a few ms.
  /// Operations that long average out one-off scheduling delays.
  std::int64_t budget;
};

// `@` stands for the global that holds the pristine input.
const KindSpec kSpecs[kKinds] = {
    {"tally", "(setq total 0)", "@", "total", 200, 4000, 40000},
    {"scale", "(setq cur (copy-list @))", "cur", "cur", 200, 4000, 40000},
    {"drain", "(setq balance 0)", "@", "balance", 200, 4000, 40000},
    {"remq", "", "@", "nil", 200, 4000, 8000},
    {"walk", "(setq cur (tree-copy @))", "cur", "(tree-weights cur)", 7, 9,
     5000},
};

constexpr int kInputsPerKind = 8;

/// Whether the plan uses the device the function is in the set for;
/// without it the lock and DPS layers would quietly go unmeasured.
bool uses_device(Kind k, const curare::TransformPlan& p) {
  switch (k) {
    case kTally: return p.reordered > 0 && p.locks_inserted == 0;
    case kScale: return p.locks_inserted == 0 && p.reordered == 0;
    case kDrain: return p.locks_inserted > 0 && p.concurrency_cap == 1;
    case kRemq: return p.used_dps;
    case kWalk: return p.num_sites == 2;
    default: return false;
  }
}

struct Input {
  Kind kind;
  std::int64_t size = 0;
  std::int64_t work = 0;
  std::string var;  ///< global holding the pristine input
  std::string reset, arg, state;
  // Sequential reference.
  std::string ref_result, ref_state;
  std::uint64_t seq_ns = 0;
};

/// `form` with each `@` replaced by the input's variable.
std::string with_input(std::string form, const std::string& var) {
  for (std::size_t p; (p = form.find('@')) != std::string::npos;)
    form.replace(p, 1, var);
  return form;
}

/// Sums over the operations of one kind.
struct KindAgg {
  double ops = 0, seq_ns = 0, par_ns = 0, busy_ns = 0, idle_ns = 0;
};

class CriRuns final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    ctx_ = std::make_unique<curare::sexpr::Ctx>();
    cur_ = std::make_unique<curare::Curare>(*ctx_, 1);
    servers_ = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    cur_->load_program(kProgram);
    for (int k = 0; k < kKinds; ++k) {
      const curare::TransformPlan plan = cur_->transform(kSpecs[k].name);
      if (!plan.ok)
        throw std::runtime_error(std::string("cri_runs: ") +
                                 kSpecs[k].name +
                                 " was not restructured: " + plan.failure);
      if (!uses_device(static_cast<Kind>(k), plan))
        throw std::runtime_error(std::string("cri_runs: ") +
                                 kSpecs[k].name +
                                 " was restructured without its device:\n" +
                                 plan.to_string());
    }

    Rng rng(seed);
    for (int k = 0; k < kKinds; ++k) {
      const KindSpec& s = kSpecs[k];
      const auto sizes =
          stratified(rng, kInputsPerKind, s.size_lo, s.size_hi);
      for (int i = 0; i < kInputsPerKind; ++i) {
        Input in;
        in.kind = static_cast<Kind>(k);
        in.size = sizes[i];
        const std::int64_t invocations =
            k == kWalk ? (std::int64_t{1} << in.size) - 1 : in.size;
        in.work = std::max<std::int64_t>(1, s.budget / invocations);
        in.var = "in" + std::to_string(inputs_.size());
        in.reset = with_input(s.reset, in.var);
        in.arg = with_input(s.arg, in.var);
        in.state = with_input(s.state, in.var);
        const char* make_input = k == kWalk   ? "bench-tree"
                              : k == kRemq ? "bench-remq-list"
                                           : "bench-list";
        cur_->eval_program("(setq " + in.var + " (" + make_input + " " +
                           std::to_string(in.size) + " " +
                           std::to_string(rng.range(0, 10006)) + "))");
        inputs_.push_back(std::move(in));
      }
    }
    // The sequential reference: final state, returned value, and the
    // better of two timings.
    for (Input& in : inputs_) {
      for (int rep = 0; rep < 2; ++rep) {
        std::string result, state;
        const std::uint64_t ns = call(in, /*parallel=*/false, &result, &state);
        if (rep == 0 || ns < in.seq_ns) in.seq_ns = ns;
        in.ref_result = result;
        in.ref_state = state;
      }
    }
    for (const Input& in : inputs_) seq_ms_.push_back(in.seq_ns / 1e6);
    order_.resize(inputs_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    rng.shuffle(order_);
  }

  void run(const Schedule& sched, std::vector<Measured>& out) override {
    for (std::uint64_t now = now_ns(); !sched.over(now); now = now_ns()) {
      Measured& m = out[sched.begin_op(now)];
      Input& in = inputs_[order_[next_++ % order_.size()]];
      const std::uint64_t op = ++ops_;
      spans::Span op_span("cri.op", op);
      std::string result, state;
      const std::uint64_t ns = call(in, /*parallel=*/true, &result, &state);
      const bool ok = result == in.ref_result && state == in.ref_state;
      if (!ok && mismatches_++ < 3)
        std::fprintf(stderr,
                     "cri_runs: %s/%s mismatch\n  got      %s | %s\n  "
                     "expected %s | %s\n",
                     kSpecs[in.kind].name, in.var.c_str(), result.c_str(),
                     state.c_str(), in.ref_result.c_str(),
                     in.ref_state.c_str());
      m.samples.push_back(Sample{ns, ok});
      m.busy_s += ns / 1e9;
      KindAgg& a = kinds_[in.kind];
      a.ops += 1;
      a.seq_ns += static_cast<double>(in.seq_ns);
      a.par_ns += static_cast<double>(ns);
    }
  }

  void layer_metrics(MetricTable& m) override {
    KindAgg all;
    for (const KindAgg& a : kinds_) {
      all.ops += a.ops;
      all.seq_ns += a.seq_ns;
      all.par_ns += a.par_ns;
      all.busy_ns += a.busy_ns;
      all.idle_ns += a.idle_ns;
    }
    m.set("runtime.utilization",
          per(all.busy_ns, all.busy_ns + all.idle_ns), "ratio");
    m.set("runtime.idle_ms", per(all.idle_ns / 1e6, all.ops), "ms");
    m.set("runtime.sleeps", per(sleeps_, all.ops), "count");
    m.set("runtime.notify_suppressed", per(notify_suppressed_, all.ops),
          "count");
    m.set("runtime.steals", per(steals_, all.ops), "count");
    m.set("runtime.servers_used", per(servers_used_, all.ops), "count");
    m.set("runtime.head_us_mean", per(head_ns_ / 1e3, invocations_), "us");
    m.set("runtime.tail_us_mean", per(tail_ns_ / 1e3, invocations_), "us");
    m.set("runtime.speedup", per(all.seq_ns, all.par_ns), "x");
    m.set("runtime.model_error_pct",
          predicted_ns_ > 0 ? (wall_ns_ / predicted_ns_ - 1.0) * 100 : 0,
          "%");
    m.set("runtime.busy_inflation", per(all.busy_ns, all.seq_ns), "x");
    for (int k = 0; k < kKinds; ++k) {
      const KindAgg& a = kinds_[k];
      const std::string n = kSpecs[k].name;
      m.set("runtime.utilization." + n, per(a.busy_ns, a.busy_ns + a.idle_ns),
            "ratio");
      m.set("runtime.speedup." + n, per(a.seq_ns, a.par_ns), "x");
      m.set("runtime.busy_inflation." + n, per(a.busy_ns, a.seq_ns), "x");
    }
    m.set("lock.wait_ms", per(lock_wait_ns_ / 1e6, all.ops), "ms");
    m.set("lock.contended", per(lock_contended_, all.ops), "count");
    gc_.metrics(m);
    m.set("eval.seq_ms_p50", quantile(seq_ms_, 0.5), "ms");
  }

 private:
  /// Reset the input's state, run it, and print the returned value and
  /// final state. Only the call itself is timed.
  std::uint64_t call(const Input& in, bool parallel, std::string* result,
                     std::string* state) {
    curare::gc::GcHeap& gc = ctx_->heap.gc();
    if (!in.reset.empty()) cur_->eval_program(in.reset);
    const curare::gc::GcStats gc0 = gc.stats();
    obs_before();
    std::uint64_t ns = 0;
    {
      curare::gc::MutatorScope ms(gc);
      Value args[3];
      std::size_t n = 0;
      if (in.kind == kRemq) args[n++] = ctx_->sym("x");
      args[n++] = cur_->interp().global(in.arg);
      args[n++] = Value::fixnum(in.work);
      const std::span<const Value> span(args, n);
      spans::Span sp(parallel ? "curare.run_parallel"
                              : "curare.run_sequential",
                     ops_);
      const std::uint64_t t0 = now_ns();
      const Value r = parallel ? cur_->run_parallel(kSpecs[in.kind].name,
                                                    span, servers_)
                               : cur_->run_sequential(kSpecs[in.kind].name,
                                                      span);
      ns = now_ns() - t0;
      *result = curare::sexpr::write_str(r);
      if (parallel) account(in, gc0, gc.stats(), sp);
    }
    {
      curare::gc::MutatorScope ms(gc);
      *state = curare::sexpr::write_str(cur_->eval_program(in.state));
    }
    return ns;
  }

  void obs_before() {
    curare::obs::Metrics& m = cur_->runtime().obs().metrics;
    lock_wait0_ = m.histogram("lock.wait_ns").sum();
    lock_contended0_ = m.counter("lock.contended").get();
  }

  /// Fold the run's CriStats, lock and GC counters into the totals, and
  /// split the run_parallel span's time across the layers they name.
  void account(const Input& in, const curare::gc::GcStats& g0,
               const curare::gc::GcStats& g1, spans::Span& sp) {
    curare::runtime::Runtime& rt = cur_->runtime();
    const curare::runtime::CriStats& st = rt.last_cri_stats();
    rt.obs().speedup.clear();  // the report keeps every run otherwise
    curare::obs::Metrics& m = rt.obs().metrics;
    const double lock_wait =
        static_cast<double>(m.histogram("lock.wait_ns").sum() - lock_wait0_);
    lock_wait_ns_ += lock_wait;
    lock_contended_ +=
        static_cast<double>(m.counter("lock.contended").get() -
                            lock_contended0_);

    const double busy = static_cast<double>(st.busy_ns_total());
    const double idle = static_cast<double>(st.idle_ns_total());
    KindAgg& a = kinds_[in.kind];
    a.busy_ns += busy;
    a.idle_ns += idle;
    sleeps_ += static_cast<double>(st.queue.sleeps);
    notify_suppressed_ += static_cast<double>(st.queue.notify_suppressed);
    steals_ += static_cast<double>(st.queue.steals);
    for (std::uint64_t t : st.tasks_per_server) servers_used_ += t > 0;
    invocations_ += static_cast<double>(st.invocations);
    head_ns_ += static_cast<double>(st.head_ns);
    tail_ns_ += static_cast<double>(st.tail_ns);
    if (st.invocations > 0) {
      const double d = static_cast<double>(st.invocations);
      wall_ns_ += static_cast<double>(st.wall_ns);
      predicted_ns_ += curare::runtime::predicted_time(
          static_cast<double>(st.servers), d, st.head_ns / d,
          st.tail_ns / d);
    }

    const double pause = gc_.add(g0, g1);

    // Server time is spread over S servers; its per-server share is
    // what the caller's wall clock sees. Lock waits happen inside
    // bodies, GC pauses inside the servers' between-task waits.
    const double s = static_cast<double>(std::max<std::size_t>(1, st.servers));
    const double head_body = std::max(0.0, static_cast<double>(st.head_ns) -
                                               lock_wait);
    sp.attribute("runtime.head", static_cast<std::uint64_t>(head_body / s));
    sp.attribute("runtime.tail",
                 static_cast<std::uint64_t>(st.tail_ns / s));
    sp.attribute("lock.wait", static_cast<std::uint64_t>(lock_wait / s));
    sp.attribute("gc.pause", static_cast<std::uint64_t>(pause));
    sp.attribute("runtime.idle (queue handoff)",
                 static_cast<std::uint64_t>(std::max(0.0, idle / s - pause)));
  }

  std::unique_ptr<curare::sexpr::Ctx> ctx_;
  std::unique_ptr<curare::Curare> cur_;
  std::size_t servers_ = 1;
  std::vector<Input> inputs_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  std::uint64_t ops_ = 0;
  int mismatches_ = 0;

  std::uint64_t lock_wait0_ = 0, lock_contended0_ = 0;
  KindAgg kinds_[kKinds];
  double sleeps_ = 0, notify_suppressed_ = 0, steals_ = 0, servers_used_ = 0;
  double invocations_ = 0, head_ns_ = 0, tail_ns_ = 0;
  double wall_ns_ = 0, predicted_ns_ = 0;
  double lock_wait_ns_ = 0, lock_contended_ = 0;
  GcTally gc_;
  std::vector<double> seq_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_cri_runs() {
  return std::make_unique<CriRuns>();
}

}  // namespace perfbench
