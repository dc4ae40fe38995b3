// Workload restructure_corpus: one operation is Curare::load_program +
// analyze + transform of one seeded generated program (corpus.hpp), in a
// fresh driver. A fresh driver per operation keeps operations the same
// size: load_program recomputes summaries over every defun loaded so
// far.
//
// L = min(4, nproc) lanes run the corpus side by side. A lane is a
// pipeline of its own — heap, symbol table and a Runtime its drivers
// share, as serving sessions do — so lanes share nothing but the
// machine. One thread alone is at the mercy of whatever else runs on
// its core; with L of them, a slow core moves a quarter of the samples,
// not the whole run.
//
// From the seed: 64 programs, eight per template, with helper chains of
// 0–11 defuns, so programs have 1–12 defuns; the seed also picks the
// write-ahead distance d in 1..3 and the order. Each lane starts at its
// own offset in that order.
//
// Checks: every plan's device counts against its template's expectation;
// and, on lane 0's first pass (once per distinct program), the
// transformed function runs on a small input at S=2 against
// run_sequential in a second fresh driver (returned value and final
// state). The per-op transform counts are taken over that pass too, so
// they repeat exactly for a seed.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "corpus.hpp"
#include "curare/curare.hpp"
#include "gc_tally.hpp"
#include "sexpr/printer.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using curare::Value;

constexpr int kPrograms = 64;

/// Cons cells in a form tree (the generated code's size).
std::uint64_t cells(Value v) {
  std::uint64_t n = 0;
  while (v.is(curare::sexpr::Kind::Cons)) {
    ++n;
    n += cells(curare::sexpr::car(v));
    v = curare::sexpr::cdr(v);
  }
  return n;
}

bool matches(const curare::TransformPlan& plan, const Expect& e) {
  if (plan.ok != e.ok) return false;
  if (!plan.ok) return !plan.failure.empty();
  return plan.locks_inserted == e.locks && plan.delayed == e.delayed &&
         plan.reordered == e.reordered && plan.used_dps == e.dps &&
         plan.used_rec2iter == e.rec2iter && plan.concurrency_cap == e.cap;
}

/// Sums over the transform plans of one pass.
struct PlanCounts {
  double ok = 0, locks = 0, delayed = 0, reordered = 0, dps = 0,
         rec2iter = 0, cells = 0;
};

class Lane {
 public:
  Lane(const std::vector<Program>& corpus, std::size_t offset,
       std::atomic<std::uint64_t>& ops, std::atomic<int>& mismatches)
      : corpus_(corpus), next_(offset), ops_(ops), mismatches_(mismatches) {
    host_ = std::make_unique<curare::lisp::Interp>(*ctx_);
    rt_ = std::make_unique<curare::runtime::Runtime>(*host_, 1);
  }

  /// Untimed passes until the heap has collected twice: first-use costs
  /// (interning, fresh pages for the heap blocks) land in set-up, and
  /// the run starts on recycled blocks.
  void warm_up() {
    curare::gc::GcHeap& gc = ctx_->heap.gc();
    for (int pass = 0; pass < 50 && gc.stats().collections < 2; ++pass) {
      for (const Program& p : corpus_) {
        curare::Curare cur(*ctx_, *rt_);
        cur.load_program(p.text);
        cur.analyze(p.fn);
        cur.transform(p.fn);
        gc.maybe_collect();
      }
    }
  }

  /// Operations until segment `seg` ends; with `counts`, also until one
  /// full pass is done, checking each program once by running it and
  /// adding up its plan.
  void run(const Schedule& sched, std::size_t seg, PlanCounts* counts,
           Measured& m) {
    for (std::uint64_t now = now_ns();
         now < sched.end(seg) || (counts != nullptr && done_ < corpus_.size());
         now = now_ns()) {
      sched.begin_op(now);
      const Program& p = corpus_[next_++ % corpus_.size()];
      const bool first_pass = counts != nullptr && done_++ < corpus_.size();
      const std::uint64_t op = ops_.fetch_add(1) + 1;
      curare::Curare cur(*ctx_, *rt_);
      curare::TransformPlan plan;
      std::uint64_t t_load = 0, t_analyze = 0, t_transform = 0, t_gc = 0;
      curare::gc::GcHeap& gc = ctx_->heap.gc();
      {
        spans::Span op_span("corpus.op", op);
        {
          spans::Span s("curare.load_program", op);
          const std::uint64_t t0 = now_ns();
          cur.load_program(p.text);
          t_load = now_ns() - t0;
        }
        {
          spans::Span s("curare.analyze", op);
          const std::uint64_t t0 = now_ns();
          cur.analyze(p.fn);
          t_analyze = now_ns() - t0;
        }
        {
          spans::Span s("curare.transform", op);
          const std::uint64_t t0 = now_ns();
          plan = cur.transform(p.fn);
          t_transform = now_ns() - t0;
        }
        // The quiescent point a serving loop has after each request:
        // without it nothing here would ever collect.
        const curare::gc::GcStats g0 = gc.stats();
        const std::uint64_t t0 = now_ns();
        gc.maybe_collect();
        t_gc = now_ns() - t0;
        op_span.attribute("gc.collect", static_cast<std::uint64_t>(
                                            gc_.add(g0, gc.stats())));
      }
      bool ok = matches(plan, p.expect);
      if (!ok && mismatches_++ < 3)
        std::fprintf(stderr,
                     "restructure_corpus: %s plan differs from its "
                     "template:\n%s\n%s",
                     template_name(p.tmpl), p.text.c_str(),
                     plan.to_string().c_str());
      if (first_pass) {
        counts->ok += plan.ok;
        counts->locks += plan.locks_inserted;
        counts->delayed += plan.delayed;
        counts->reordered += plan.reordered;
        counts->dps += plan.used_dps;
        counts->rec2iter += plan.used_rec2iter;
        curare::gc::MutatorScope ms(gc);
        for (Value f : plan.forms) counts->cells += cells(f);
        if (ok && plan.ok && !p.input.empty())
          ok = runs_like_sequential(p, cur);
      }
      const std::uint64_t ns = t_load + t_analyze + t_transform + t_gc;
      m.samples.push_back(Sample{ns, ok});
      load_ns += static_cast<double>(t_load);
      analyze_ns += static_cast<double>(t_analyze);
      transform_ns += static_cast<double>(t_transform);
      n += 1;
    }
  }

  const GcTally& gc() const { return gc_; }

  double load_ns = 0, analyze_ns = 0, transform_ns = 0, n = 0;

 private:
  /// Run the transformed function at S=2 in the operation's driver and
  /// the original in a second fresh driver, on the same small input.
  bool runs_like_sequential(const Program& p, curare::Curare& par) {
    curare::Curare seq(*ctx_, *rt_);
    seq.load_program(p.text);
    auto run = [&](curare::Curare& d, bool parallel) {
      d.eval_program(p.input);
      curare::gc::MutatorScope ms(ctx_->heap.gc());
      std::vector<Value> args;
      for (const std::string& a : p.args) args.push_back(d.eval_program(a));
      const Value r = parallel ? d.run_parallel(p.fn, args, 2)
                               : d.run_sequential(p.fn, args);
      return curare::sexpr::write_str(r) + " | " +
             curare::sexpr::write_str(d.eval_program(p.state));
    };
    const std::string want = run(seq, false);
    const std::string got = run(par, true);
    if (got != want && mismatches_++ < 3)
      std::fprintf(stderr,
                   "restructure_corpus: %s ran differently\n%s  got      "
                   "%s\n  expected %s\n",
                   template_name(p.tmpl), p.text.c_str(), got.c_str(),
                   want.c_str());
    return got == want;
  }

  const std::vector<Program>& corpus_;
  std::unique_ptr<curare::sexpr::Ctx> ctx_ =
      std::make_unique<curare::sexpr::Ctx>();
  std::unique_ptr<curare::lisp::Interp> host_;
  std::unique_ptr<curare::runtime::Runtime> rt_;
  std::size_t next_;
  std::size_t done_ = 0;  ///< operations of the counted pass so far
  std::atomic<std::uint64_t>& ops_;
  std::atomic<int>& mismatches_;
  GcTally gc_;
};

class RestructureCorpus final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    corpus_ = make_corpus(rng, kPrograms);
    const unsigned lanes =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    for (unsigned l = 0; l < lanes; ++l)
      lanes_.push_back(std::make_unique<Lane>(
          corpus_, l * corpus_.size() / lanes, ops_, mismatches_));
    parallel_for(lanes_.size(), [&](std::size_t l) { lanes_[l]->warm_up(); });
  }

  void run(const Schedule& sched, std::vector<Measured>& out) override {
    for (std::size_t seg = 0; seg < sched.segments(); ++seg) {
      std::vector<Measured> per_lane(lanes_.size());
      const std::uint64_t t0 = now_ns();
      parallel_for(lanes_.size(), [&](std::size_t l) {
        lanes_[l]->run(sched, seg, l == 0 && seg == 0 ? &counts_ : nullptr,
                       per_lane[l]);
      });
      out[seg].busy_s = (now_ns() - t0) / 1e9;
      for (const Measured& m : per_lane)
        out[seg].samples.insert(out[seg].samples.end(), m.samples.begin(),
                                m.samples.end());
    }
  }

  void layer_metrics(MetricTable& m) override {
    double load = 0, analyze = 0, transform = 0, n = 0;
    GcTally gc;
    for (const auto& lane : lanes_) {
      load += lane->load_ns;
      analyze += lane->analyze_ns;
      transform += lane->transform_ns;
      n += lane->n;
      gc.merge(lane->gc());
    }
    m.set("curare.load_ms", per(load / 1e6, n), "ms");
    m.set("analysis.analyze_ms", per(analyze / 1e6, n), "ms");
    m.set("transform.transform_ms", per(transform / 1e6, n), "ms");
    const double p = kPrograms;
    m.set("transform.plans_ok", counts_.ok / p, "count");
    m.set("transform.locks_inserted", counts_.locks / p, "count");
    m.set("transform.delayed", counts_.delayed / p, "count");
    m.set("transform.reordered", counts_.reordered / p, "count");
    m.set("transform.dps", counts_.dps / p, "count");
    m.set("transform.rec2iter", counts_.rec2iter / p, "count");
    m.set("transform.generated_cells", counts_.cells / p, "count");
    gc.metrics(m);
  }

 private:
  std::vector<Program> corpus_;
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<int> mismatches_{0};
  std::vector<std::unique_ptr<Lane>> lanes_;
  PlanCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_restructure_corpus() {
  return std::make_unique<RestructureCorpus>();
}

}  // namespace perfbench
