// Ablation (paper §3.2.1's cost discussion): raw prices of the
// synchronization devices (google-benchmark).
//
// "Locking has two costs: the costs of the locks themselves and the
// resulting loss of concurrency." This binary quantifies the first cost:
// lock-manager traffic vs a CAS atomic update vs unsynchronized store,
// single-threaded and contended, and %atomic-incf-var's CAS increment
// of a variable.
//
// Every LockManager reports into an obs::Recorder, so each price below
// includes the lock's own metrics, as transformed code pays them. After
// the google-benchmark suite it runs a contention sweep and prints one
// machine-readable JSON line per thread count (prefix "JSON ") with the
// recorder's contention/wait aggregates — the same counters `--stats`
// reports.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "obs/recorder.hpp"
#include "runtime/lock_manager.hpp"
#include "lisp/interp.hpp"
#include "runtime/runtime.hpp"
#include "sexpr/ctx.hpp"

using namespace curare;
using runtime::LocKey;
using runtime::LockManager;

namespace {

void BM_LockUnlockUncontended(benchmark::State& state) {
  sexpr::Ctx ctx;
  obs::Recorder rec;
  LockManager lm(rec);
  auto* cell = ctx.heap.alloc<sexpr::Cons>(sexpr::Value::fixnum(0),
                                           sexpr::Value::nil());
  const LocKey key{cell, ctx.symbols.intern("car")};
  for (auto _ : state) {
    lm.lock(key, true);
    lm.unlock(key, true);
  }
}
BENCHMARK(BM_LockUnlockUncontended);

void BM_LockUnlockReadShared(benchmark::State& state) {
  sexpr::Ctx ctx;
  obs::Recorder rec;
  LockManager lm(rec);
  auto* cell = ctx.heap.alloc<sexpr::Cons>(sexpr::Value::fixnum(0),
                                           sexpr::Value::nil());
  const LocKey key{cell, ctx.symbols.intern("car")};
  for (auto _ : state) {
    lm.lock(key, false);
    lm.unlock(key, false);
  }
}
BENCHMARK(BM_LockUnlockReadShared);

void BM_AtomicAddCas(benchmark::State& state) {
  sexpr::Ctx ctx;
  auto* cell = ctx.heap.alloc<sexpr::Cons>(sexpr::Value::fixnum(0),
                                           sexpr::Value::nil());
  for (auto _ : state) {
    // The CAS loop %atomic-add performs, without interpreter dispatch.
    std::uint64_t old_bits =
        cell->car_bits.load(std::memory_order_relaxed);
    for (;;) {
      sexpr::Value nv = sexpr::Value::fixnum(
          sexpr::Value::from_bits(old_bits).as_fixnum() + 1);
      if (cell->car_bits.compare_exchange_weak(
              old_bits, nv.bits(), std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        break;
      }
    }
  }
}
BENCHMARK(BM_AtomicAddCas);

void BM_UnsynchronizedStore(benchmark::State& state) {
  sexpr::Ctx ctx;
  auto* cell = ctx.heap.alloc<sexpr::Cons>(sexpr::Value::fixnum(0),
                                           sexpr::Value::nil());
  std::int64_t i = 0;
  for (auto _ : state) {
    cell->set_car(sexpr::Value::fixnum(++i));
    benchmark::DoNotOptimize(cell->car());
  }
}
BENCHMARK(BM_UnsynchronizedStore);

// %atomic-incf-var, a CAS loop on the variable's global cell, called
// through Interp::apply as transformed code calls it; all benchmark
// threads update ONE variable.
struct IncfVarFixture {
  sexpr::Ctx ctx;
  lisp::Interp in{ctx};
  runtime::Runtime rt{in, 1};
  IncfVarFixture() {
    rt.install();
    in.eval_program("(setq counter 0)");  // an unbound variable signals
  }
};

IncfVarFixture& incf_fixture() {
  static IncfVarFixture* f = new IncfVarFixture;
  return *f;
}

void BM_AtomicIncfVar(benchmark::State& state) {
  IncfVarFixture& f = incf_fixture();
  gc::MutatorScope ms(f.ctx.heap.gc());
  const sexpr::Value fn = f.in.global("%atomic-incf-var");
  const sexpr::Value args[] = {f.ctx.sym("counter"), sexpr::Value::fixnum(1)};
  for (auto _ : state) benchmark::DoNotOptimize(f.in.apply(fn, args));
}
BENCHMARK(BM_AtomicIncfVar)->Threads(1)->Threads(4);

// Contended: all benchmark threads fight over ONE location.
void BM_LockUnlockContended(benchmark::State& state) {
  static obs::Recorder rec;
  static LockManager lm(rec);
  static sexpr::Ctx ctx;
  static auto* cell = ctx.heap.alloc<sexpr::Cons>(sexpr::Value::fixnum(0),
                                                  sexpr::Value::nil());
  const LocKey key{cell, ctx.symbols.intern("car")};
  for (auto _ : state) {
    lm.lock(key, true);
    lm.unlock(key, true);
  }
}
BENCHMARK(BM_LockUnlockContended)->Threads(1)->Threads(4)->Threads(8);

// Distinct locations per thread: sharding should keep this near the
// uncontended cost.
void BM_LockUnlockDistinctLocations(benchmark::State& state) {
  static obs::Recorder rec;
  static LockManager lm(rec);
  static sexpr::Ctx ctx;
  auto* cell = ctx.heap.alloc<sexpr::Cons>(sexpr::Value::fixnum(0),
                                           sexpr::Value::nil());
  const LocKey key{cell, ctx.symbols.intern("car")};
  for (auto _ : state) {
    lm.lock(key, true);
    lm.unlock(key, true);
  }
}
BENCHMARK(BM_LockUnlockDistinctLocations)->Threads(1)->Threads(4)->Threads(8);

// Contention sweep: T threads hammer one location through a
// LockManager; its recorder's aggregates quantify
// both §3.2.1 costs at once (price paid per acquisition + how often a
// thread had to wait and for how long).
void contention_sweep() {
  std::printf("\ncontention sweep (one shared location)\n");
  const std::uint64_t per_thread = 20000;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    sexpr::Ctx ctx;
    obs::Recorder rec;
    LockManager lm(rec);
    auto* cell = ctx.heap.alloc<sexpr::Cons>(sexpr::Value::fixnum(0),
                                             sexpr::Value::nil());
    const LocKey key{cell, ctx.symbols.intern("car")};

    // Time from a start barrier, once every thread is running, to the
    // last thread's finish: thread start and join are not lock costs.
    using Clock = std::chrono::steady_clock;
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::vector<Clock::time_point> done(threads);
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i) {
      pool.emplace_back([&, i] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire))
          std::this_thread::yield();
        for (std::uint64_t n = 0; n < per_thread; ++n) {
          lm.lock(key, true);
          lm.unlock(key, true);
        }
        done[i] = Clock::now();
      });
    }
    while (ready.load() < threads) std::this_thread::yield();
    const Clock::time_point t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();
    const double wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            *std::max_element(done.begin(), done.end()) - t0)
            .count());

    const std::uint64_t acq =
        rec.metrics.counter("lock.acquisitions").get();
    const std::uint64_t contended =
        rec.metrics.counter("lock.contended").get();
    const auto& waits = rec.metrics.histogram("lock.wait_ns");
    std::printf(
        "JSON {\"bench\":\"lock_overhead\",\"threads\":%u,"
        "\"acquisitions\":%llu,\"contended\":%llu,"
        "\"contended_frac\":%.4f,\"wait_ns_mean\":%.1f,"
        "\"wait_ns_p99\":%.1f,\"ns_per_acquisition\":%.1f}\n",
        threads, static_cast<unsigned long long>(acq),
        static_cast<unsigned long long>(contended),
        acq > 0 ? static_cast<double>(contended) /
                      static_cast<double>(acq)
                : 0.0,
        waits.mean(), waits.quantile(0.99),
        acq > 0 ? wall_ns / static_cast<double>(acq) : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  contention_sweep();
  return 0;
}
