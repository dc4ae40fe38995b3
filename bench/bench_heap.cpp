// Heap allocator A/B + GC pause distribution (DESIGN.md §9).
//
// Part 1 (A/B): cons-allocation throughput, the seed's mutexed-shard
// heap (copied below verbatim in spirit: one unique_ptr push under a
// per-shard mutex per allocation) vs the gc module's per-thread bump
// allocator. Each worker builds cons chains as fast as it can; the
// allocator IS the workload. The bump side runs with the collection
// threshold disabled so both sides pay allocation cost only.
//
// Like bench_queue's saturation projection, the serialized sections are
// compared directly: the shard heap serializes every allocation through
// a mutex'd vector push; the bump heap touches shared state only on
// block refill, once per ~kBlockSize/cell_size allocations.
//
// Part 1.5: quota-overhead column. The same single-thread allocation
// loop with the per-request memory accounting armed (DESIGN.md §14);
// the on/off ratio is a bench_check gate — governance may not cost
// the fast path more than 3%.
//
// Part 2: GC pause distribution. A fixed survivor set stays rooted
// while garbage cons chains churn through a low collection threshold;
// every pause is recorded via the pause callback and reported as
// min/p50/p95/max.
//
// Results go to BENCH_heap.json (one JSON object per line; the file is
// truncated on each run).
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "gc/gc.hpp"
#include "obs/request.hpp"
#include "sexpr/heap.hpp"
#include "sexpr/value.hpp"

using namespace curare;
using namespace curare::bench;

namespace {

// ---- Part 1: A/B allocator microbenchmark ---------------------------------

/// The seed heap's allocation path (pre-GC design): hash the thread id
/// to a shard, lock it, push a unique_ptr. Kept here as the baseline so
/// the comparison survives the real Heap's evolution.
class SeedShardHeap {
 public:
  sexpr::Value cons(sexpr::Value car, sexpr::Value cdr) {
    auto owned = std::make_unique<sexpr::Cons>(car, cdr);
    sexpr::Cons* raw = owned.get();
    Shard& s = shard_for_this_thread();
    {
      std::lock_guard<std::mutex> g(s.mu);
      s.objects.push_back(std::move(owned));
    }
    return sexpr::Value::object(raw);
  }

 private:
  static constexpr std::size_t kShards = 64;
  struct Shard {
    mutable std::mutex mu;
    std::vector<std::unique_ptr<sexpr::Obj>> objects;
  };
  Shard& shard_for_this_thread() {
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return shards_[h % kShards];
  }
  std::array<Shard, kShards> shards_;
};

/// The real heap with automatic collection disabled: pure bump
/// allocation, shared state touched only on block refill.
class BumpHeap {
 public:
  BumpHeap() { heap_.gc().set_threshold(0); }
  sexpr::Value cons(sexpr::Value car, sexpr::Value cdr) {
    return heap_.cons(car, cdr);
  }

 private:
  sexpr::Heap heap_;
};

/// One throughput run: `threads` workers split `total` cons allocations
/// evenly, each building chains of 64 then dropping them (the chain
/// keeps the compiler from eliding the stores; dropping it keeps the
/// working set out of cache effects). Returns wall-clock seconds.
template <typename H>
double run_alloc(std::size_t threads, std::size_t total) {
  H heap;
  const std::size_t per = total / threads;
  std::vector<std::thread> ws;
  ws.reserve(threads);
  const double secs = time_s([&] {
    for (std::size_t t = 0; t < threads; ++t) {
      ws.emplace_back([&heap, per] {
        sexpr::Value chain = sexpr::Value::nil();
        for (std::size_t i = 0; i < per; ++i) {
          chain = heap.cons(
              sexpr::Value::fixnum(static_cast<std::int64_t>(i)), chain);
          if ((i & 63) == 63) chain = sexpr::Value::nil();
        }
        g_spin_sink.fetch_add(chain.is_object() ? 1 : 0,
                              std::memory_order_relaxed);
      });
    }
    for (auto& w : ws) w.join();
  });
  return secs;
}

struct AbRow {
  const char* impl;
  std::size_t threads, conses;
  double secs, mcons;
};

template <typename H>
AbRow measure(const char* impl, std::size_t threads, std::size_t total,
              int reps) {
  double best = 1e9;
  for (int r = 0; r < reps; ++r)
    best = std::min(best, run_alloc<H>(threads, total));
  return AbRow{impl, threads, total, best,
               static_cast<double>(total) / best / 1e6};
}

void emit_json(std::FILE* js, const AbRow& r) {
  if (js == nullptr) return;
  std::fprintf(js,
               "{\"bench\":\"heap_ab\",\"impl\":\"%s\",\"threads\":%zu,"
               "\"conses\":%zu,\"secs\":%.6f,\"mcons\":%.3f,%s}\n",
               r.impl, r.threads, r.conses, r.secs, r.mcons,
               host_facts_json().c_str());
}

void run_ab(std::FILE* js) {
  const bool smoke = smoke_mode();
  const std::size_t total = smoke ? 40'000 : 1'000'000;
  const int reps = smoke ? 1 : 3;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  std::printf("A/B: cons allocation throughput, seed mutexed-shard heap "
              "vs per-thread bump, %u core(s)\n",
              cores);
  std::printf("conses=%zu per cell, best of %d; Mcons = million "
              "allocations/sec (bump: GC threshold 0)\n\n",
              total, reps);
  std::printf("%7s | %12s %12s %8s\n", "threads", "shard Mcons",
              "bump Mcons", "speedup");

  double shard_1t_ns = 0;
  double bump_1t_ns = 0;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}, std::size_t{8}}) {
    AbRow a = measure<SeedShardHeap>("shard", threads, total, reps);
    AbRow b = measure<BumpHeap>("bump", threads, total, reps);
    emit_json(js, a);
    emit_json(js, b);
    if (threads == 1) {
      shard_1t_ns = a.secs / static_cast<double>(a.conses) * 1e9;
      bump_1t_ns = b.secs / static_cast<double>(b.conses) * 1e9;
    }
    std::printf("%7zu | %12.2f %12.2f %7.2fx\n", threads, a.mcons,
                b.mcons, b.mcons / a.mcons);
  }
  std::printf("\nwall-clock caveat: with %u core(s) extra threads are "
              "time-sliced, so shard-mutex\nconvoys may not show; the "
              "serialized-section comparison below is load-independent."
              "\n\n",
              cores);

  // Serialized-section comparison. The shard heap's critical section is
  // the whole lock+push (its single-thread allocation cost bounds it
  // from above; malloc runs outside the lock, so measure the lock+push
  // pair directly on one uncontended shard). The bump heap serializes
  // only the refill, once per cells-per-block allocations.
  const std::size_t iters = smoke ? 50'000 : 2'000'000;
  std::mutex mu;
  std::vector<std::unique_ptr<sexpr::Obj>> vec;
  vec.reserve(iters);
  const double lock_secs = time_s([&] {
    for (std::size_t i = 0; i < iters; ++i) {
      std::lock_guard<std::mutex> g(mu);
      vec.emplace_back(nullptr);
    }
  });
  const double shard_serial_ns =
      lock_secs / static_cast<double>(iters) * 1e9;
  const std::size_t cell =
      (sizeof(gc::GcHeader) + sizeof(sexpr::Cons) + gc::kCellAlign - 1) &
      ~(gc::kCellAlign - 1);
  const double cells_per_block =
      static_cast<double>(gc::kBlockSize) / static_cast<double>(cell);
  const double bump_serial_ns = shard_serial_ns / cells_per_block;
  std::printf("serialized section per cons: shard lock+push %.1f ns vs "
              "bump refill %.3f ns amortized\n(one mutex acquisition per "
              "%.0f-cons block) → %.0fx less serialized work; "
              "single-thread\nfull alloc %.1f ns (shard) vs %.1f ns "
              "(bump).\n\n",
              shard_serial_ns, bump_serial_ns, cells_per_block,
              shard_serial_ns / bump_serial_ns, shard_1t_ns, bump_1t_ns);
  if (js != nullptr) {
    std::fprintf(js,
                 "{\"bench\":\"heap_model\",\"shard_serial_ns\":%.1f,"
                 "\"bump_serial_ns\":%.3f,\"cells_per_block\":%.0f,"
                 "\"shard_1t_ns\":%.1f,\"bump_1t_ns\":%.1f,%s}\n",
                 shard_serial_ns, bump_serial_ns, cells_per_block,
                 shard_1t_ns, bump_1t_ns, host_facts_json().c_str());
  }
}

// ---- Part 1.5: per-request accounting overhead ----------------------------

/// Single-thread cons throughput with the request-scoped memory
/// accounting armed: a RequestContext with an effectively unlimited
/// quota is installed, so every allocation pays charge_allocation's
/// load + fetch_add but never throws. Compared against the plain run
/// (no request in scope — the one-thread-local-load fast path).
double run_alloc_quota(std::size_t total) {
  BumpHeap heap;
  auto rc = std::make_shared<obs::RequestContext>();
  rc->mem_quota = UINT64_MAX / 2;  // armed, never breached
  const double secs = time_s([&] {
    std::thread w([&heap, &rc, total] {
      obs::RequestScope scope(rc);
      sexpr::Value chain = sexpr::Value::nil();
      for (std::size_t i = 0; i < total; ++i) {
        chain = heap.cons(
            sexpr::Value::fixnum(static_cast<std::int64_t>(i)), chain);
        if ((i & 63) == 63) chain = sexpr::Value::nil();
      }
      g_spin_sink.fetch_add(chain.is_object() ? 1 : 0,
                            std::memory_order_relaxed);
    });
    w.join();
  });
  return secs;
}

/// Quota-overhead column: the acceptance bar (DESIGN.md §14, enforced
/// by tools/bench_check.py) is on/off >= 0.97 — governance may not
/// cost the allocator fast path more than 3% single-threaded.
void run_quota_overhead(std::FILE* js) {
  const bool smoke = smoke_mode();
  const std::size_t total = smoke ? 40'000 : 1'000'000;
  // Best-of-5: the ratio of two separately-measured single-thread
  // runs is the noisiest number in this file, and it feeds a gate.
  const int reps = smoke ? 1 : 5;

  double off = 1e9, on = 1e9;
  for (int r = 0; r < reps; ++r) {
    off = std::min(off, run_alloc<BumpHeap>(1, total));
    on = std::min(on, run_alloc_quota(total));
  }
  const double mcons_off = static_cast<double>(total) / off / 1e6;
  const double mcons_on = static_cast<double>(total) / on / 1e6;
  const double ratio = mcons_on / mcons_off;
  std::printf("quota accounting overhead (1 thread, %zu conses, best of "
              "%d):\noff %.2f Mcons, on %.2f Mcons → ratio %.3f "
              "(acceptance: >= 0.97)\n\n",
              total, reps, mcons_off, mcons_on, ratio);
  if (js != nullptr) {
    std::fprintf(js,
                 "{\"bench\":\"heap_quota\",\"threads\":1,\"conses\":%zu,"
                 "\"mcons_off\":%.3f,\"mcons_on\":%.3f,"
                 "\"overhead_ratio\":%.4f,%s}\n",
                 total, mcons_off, mcons_on, ratio, host_facts_json().c_str());
  }
}

// ---- Part 2: GC pause distribution ----------------------------------------

void run_pause_distribution(std::FILE* js) {
  const bool smoke = smoke_mode();
  const std::size_t garbage = smoke ? 200'000 : 4'000'000;
  const std::size_t survivors = smoke ? 5'000 : 50'000;
  const std::uint64_t threshold = smoke ? 256 * 1024 : 4 * 1024 * 1024;

  sexpr::Heap heap;
  gc::GcHeap& gc = heap.gc();
  gc.set_threshold(threshold);

  std::mutex pauses_mu;
  std::vector<std::uint64_t> pauses;
  gc.set_pause_callback([&](const gc::GcPause& p) {
    std::lock_guard<std::mutex> g(pauses_mu);
    pauses.push_back(p.pause_ns);
  });

  // A rooted survivor chain gives marking real work each cycle.
  gc::RootScope keep(gc);
  {
    gc::MutatorScope ms(gc);
    sexpr::Value chain = sexpr::Value::nil();
    for (std::size_t i = 0; i < survivors; ++i)
      chain = heap.cons(sexpr::Value::fixnum(1), chain);
    keep.add(chain);
  }

  // Churn garbage chains; every 1024 conses is a quiescent point.
  for (std::size_t i = 0; i < garbage; i += 1024) {
    {
      gc::MutatorScope ms(gc);
      sexpr::Value chain = sexpr::Value::nil();
      for (std::size_t j = 0; j < 1024; ++j)
        chain = heap.cons(sexpr::Value::fixnum(0), chain);
      g_spin_sink.fetch_add(chain.is_object() ? 1 : 0,
                            std::memory_order_relaxed);
    }
    gc.maybe_collect();
  }
  gc.collect("bench-final");
  gc.set_pause_callback(nullptr);

  std::sort(pauses.begin(), pauses.end());
  const gc::GcStats st = gc.stats();
  auto pct = [&](double q) -> std::uint64_t {
    if (pauses.empty()) return 0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(pauses.size() - 1));
    return pauses[idx];
  };
  std::printf("GC pause distribution: %zu collections over %zu garbage "
              "conses (threshold %llu KiB,\n%zu-cons rooted survivor "
              "set)\n",
              pauses.size(), garbage,
              static_cast<unsigned long long>(threshold / 1024),
              survivors);
  std::printf("pause us: min %.1f  p50 %.1f  p95 %.1f  max %.1f | "
              "reclaimed %llu objects / %llu KiB total\n\n",
              static_cast<double>(pauses.empty() ? 0 : pauses.front()) /
                  1e3,
              static_cast<double>(pct(0.50)) / 1e3,
              static_cast<double>(pct(0.95)) / 1e3,
              static_cast<double>(pauses.empty() ? 0 : pauses.back()) /
                  1e3,
              static_cast<unsigned long long>(st.reclaimed_objects),
              static_cast<unsigned long long>(st.reclaimed_bytes / 1024));
  if (js != nullptr) {
    std::fprintf(
        js,
        "{\"bench\":\"gc_pause\",\"collections\":%zu,"
        "\"garbage_conses\":%zu,\"survivors\":%zu,"
        "\"threshold_bytes\":%llu,\"min_ns\":%llu,\"p50_ns\":%llu,"
        "\"p95_ns\":%llu,\"max_ns\":%llu,\"reclaimed_objects\":%llu,"
        "\"reclaimed_bytes\":%llu,%s}\n",
        pauses.size(), garbage, survivors,
        static_cast<unsigned long long>(threshold),
        static_cast<unsigned long long>(pauses.empty() ? 0
                                                       : pauses.front()),
        static_cast<unsigned long long>(pct(0.50)),
        static_cast<unsigned long long>(pct(0.95)),
        static_cast<unsigned long long>(pauses.empty() ? 0
                                                       : pauses.back()),
        static_cast<unsigned long long>(st.reclaimed_objects),
        static_cast<unsigned long long>(st.reclaimed_bytes),
        host_facts_json().c_str());
  }
}

}  // namespace

int main() {
  const char* path = std::getenv("CURARE_BENCH_HEAP_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_heap.json";
  std::FILE* js = std::fopen(path, "w");
  run_ab(js);
  run_quota_overhead(js);
  run_pause_distribution(js);
  if (js != nullptr) std::fclose(js);
  return 0;
}
