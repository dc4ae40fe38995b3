// GC soak: repeated CRI runs under a tight collection threshold must
// reach a steady state — live objects after each cycle's collection may
// not creep upward (DESIGN.md §9 acceptance check).
//
// Each iteration builds a fresh 200-element list, runs two transformed
// traversals on the 4-server pool — tally, whose call comes last (a
// head loop that queues nothing), and tally-out, whose update follows
// the call (its tails are queued in batches) — then collects and
// records the exact live-object count. The runs go through
// Runtime::run_cri, which always runs CRI: tally's head loop measures
// no tail, so its f$parallel entry would run the original defun after
// the first call (§4.1, runtime.hpp run_in_parallel). The list is rooted only for its iteration,
// so everything it allocated — spine, CRI argument copies, scheduler
// spill — must be reclaimed by the next collection. 120 iterations ×
// 2 runs ≥ 240 CRI pool runs; the tight threshold keeps the automatic
// trigger armed should any cycle outgrow its explicit collection.
// (Mid-run threshold collections are exercised directly by
// tests/gc/gc_test.cpp's AllocatingServerBodiesCollectMidRun.)
//
// Exits nonzero if a parallel result ever disagrees with the expected
// sum or if the steady-state live count grows beyond 1.5x + slack of
// the early-iteration baseline.
//
// Build: cmake --build build && ./build/examples/gc_soak
//
// Chaos mode: CURARE_CHAOS=seed:rate[:kinds[:sites]] (the grammar of
// FaultInjector::parse_spec) arms the deterministic fault injector for
// the whole soak; a malformed spec fails the run rather than soaking
// without faults. Iterations aborted by an injected throw skip the
// exact-total check — the invariants that remain are "no hang" and the
// steady-state live bound, i.e. aborted runs must not leak.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "curare/curare.hpp"
#include "gc/gc.hpp"
#include "runtime/fault_injector.hpp"
#include "sexpr/heap.hpp"

int main() {
  curare::sexpr::Ctx ctx;
  curare::gc::GcHeap& gc = ctx.heap.gc();
  gc.set_threshold(256 * 1024);

  curare::Curare cur(ctx);
  cur.load_program(
      "(setq total 0)"
      "(defun tally (l)"
      "  (when l (setq total (+ total (car l))) (tally (cdr l))))"
      "(defun tally-out (l)"
      "  (when l (tally-out (cdr l)) (setq total (+ total (car l)))))");
  for (const char* fn : {"tally", "tally-out"}) {
    if (!cur.transform(fn).ok) {
      std::printf("gc_soak: transform of %s failed\n", fn);
      return 1;
    }
  }

  using curare::runtime::FaultInjector;
  const char* chaos_spec = std::getenv("CURARE_CHAOS");
  const bool chaos = chaos_spec != nullptr;
  if (chaos) {
    const auto spec = FaultInjector::parse_spec(chaos_spec);
    if (!spec) {
      std::printf("gc_soak: bad CURARE_CHAOS spec '%s' "
                  "(want seed:rate[:kinds[:sites]])\n", chaos_spec);
      return 1;
    }
    FaultInjector::instance().configure(spec->seed, spec->rate,
                                        spec->kinds, spec->sites);
  }

  constexpr int kIters = 120;
  constexpr int kListLen = 200;
  constexpr long long kExpected =
      2LL * kListLen * (kListLen + 1) / 2;  // two runs per iteration

  int aborted = 0;
  std::vector<std::size_t> live;
  live.reserve(kIters);
  for (int it = 0; it < kIters; ++it) {
    curare::gc::RootScope roots(gc);
    try {
      curare::Value list = curare::Value::nil();
      {
        curare::gc::MutatorScope ms(gc);
        for (int i = 1; i <= kListLen; ++i)
          list = ctx.heap.cons(curare::Value::fixnum(i), list);
        roots.add(list);
      }

      cur.interp().eval_program("(setq total 0)");
      for (const char* server : {"tally$cri", "tally-out$cri"})
        cur.runtime().run_cri(cur.interp().global(server), 1, 4,
                              {curare::Value::nil(), list});
      const long long got =
          cur.interp().eval_program("total").as_fixnum();
      if (got != kExpected) {
        std::printf("gc_soak: iteration %d: total %lld != %lld\n", it,
                    got, kExpected);
        return 1;
      }
    } catch (const curare::sexpr::LispError& e) {
      if (!chaos) {
        std::printf("gc_soak: iteration %d: %s\n", it, e.what());
        return 1;
      }
      // Injected fault aborted the run mid-flight; a throw between a
      // lock and its unlock may leak a hold — reset is the documented
      // recovery. The iteration's total is meaningless, but its
      // allocations must still be reclaimed below.
      ++aborted;
      cur.runtime().locks().reset();
    }

    gc.collect("soak");
    live.push_back(ctx.heap.live_objects());
  }
  if (chaos) {
    std::printf("gc_soak: chaos '%s': %d/%d iterations aborted\n%s",
                chaos_spec, aborted, kIters,
                curare::runtime::FaultInjector::instance()
                    .report().c_str());
  }

  // Steady state: after warm-up (interned symbols, transformed defuns,
  // scheduler structures) the post-collection live count must stay flat.
  const std::size_t baseline = live[20];
  std::size_t worst = 0;
  for (int it = 21; it < kIters; ++it) worst = std::max(worst, live[it]);
  const std::size_t bound = baseline + baseline / 2 + 512;
  const curare::gc::GcStats st = gc.stats();
  std::printf("gc_soak: %d iterations, %llu collections, baseline %zu "
              "live, worst %zu (bound %zu),\n%llu objects / %llu KiB "
              "reclaimed, max pause %.1f us — %s\n",
              kIters, static_cast<unsigned long long>(st.collections),
              baseline, worst, bound,
              static_cast<unsigned long long>(st.reclaimed_objects),
              static_cast<unsigned long long>(st.reclaimed_bytes / 1024),
              static_cast<double>(st.max_pause_ns) / 1e3,
              worst <= bound ? "bounded" : "LEAK");
  return worst <= bound ? 0 : 1;
}
