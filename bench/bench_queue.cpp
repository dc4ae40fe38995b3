// E7 (paper §4.1, Figure 9): the central task queue as a bottleneck.
//
// "This bottleneck will not adversely affect performance if the time
// spent executing an invocation is much longer than the time spent
// waiting for the queue."
//
// Part 1 (A/B): raw scheduler throughput of the SingleMutexTaskQueues
// baseline against the WorkStealingTaskQueues CriRun runs on, over two
// workload shapes. Every operation is a push+pop pair with no body
// work, so the scheduler IS the workload — the worst case the paper's
// condition warns about.
//
//  * handoff: `threads` live chains, each pop re-enqueues at the NEXT
//    site — uniform cross-site pressure with every server saturated.
//    Kept for history, but no real CRI run produces it: a transformed
//    body enqueues to its own call sites and the spawning server
//    usually consumes its own spawn.
//  * spawn_chain: producer-is-next-consumer — ⌈threads/2⌉ live chains
//    across `threads` servers, every pop re-enqueueing at the same
//    site. This is the shape §4.1 recursion actually generates (a
//    cdr-chain spawns one successor per invocation), in the paper's
//    saturation regime: more servers than spawnable work. Here the
//    schedulers' wake policies dominate — the mutex queue's
//    notify-on-every-push hands each chain to a sleeping server
//    through a futex, while owner-lane affinity plus the wake
//    throttle (no wake when the producer is the next consumer) keeps
//    a chain hot on one server.
//
// Results go to BENCH_scheduler.json (one JSON object per line) with a
// "workload" field; tools/bench_check.py gates the ws-vs-mutex ratio.
//
// Part 2: simulated parallel efficiency while sweeping the
// invocation-grain / dequeue-cost ratio, plus the real pool with spin
// bodies of varying grain (host-core limited).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_util.hpp"
#include "runtime/sim.hpp"
#include "runtime/task_queue.hpp"

using namespace curare;
using namespace curare::bench;

namespace {

// ---- Part 1: A/B scheduler microbenchmark ---------------------------------

enum class Shape { kHandoff, kSpawnChain };

/// The work-stealing queue takes a lane on every push and pop, as
/// CriRun's servers do: worker t owns lane t, and lane `threads` is the
/// main thread's, which seeds the handoff shape. The mutex queue has
/// no lanes.
template <typename Q>
constexpr bool kHasLanes = std::is_same_v<Q, runtime::WorkStealingTaskQueues>;

template <typename Q>
std::unique_ptr<Q> make_queue(std::size_t sites, std::size_t threads) {
  if constexpr (kHasLanes<Q>) {
    return std::make_unique<Q>(sites, threads + 1);
  } else {
    return std::make_unique<Q>(sites);
  }
}

template <typename Q>
void push(Q& q, std::size_t lane, std::size_t site, runtime::TaskArgs t) {
  if constexpr (kHasLanes<Q>) {
    q.push(lane, site, std::move(t));
  } else {
    q.push(site, std::move(t));
  }
}

template <typename Q>
std::optional<runtime::TaskArgs> pop(Q& q, std::size_t lane,
                                     std::size_t* site) {
  if constexpr (kHasLanes<Q>) {
    return q.pop(lane, site);
  } else {
    return q.pop(site);
  }
}

/// Live chains per shape: handoff saturates every server; spawn_chain
/// runs the paper's saturation regime — more servers than spawnable
/// work (§4.1: a recursion spawns one successor per invocation, so
/// chain parallelism is set by the program, not the server count).
std::size_t chains_for(Shape shape, std::size_t threads) {
  return shape == Shape::kHandoff ? threads
                                  : std::max<std::size_t>(1, threads / 2);
}

/// One run: `chains` live chains and a shared budget; every pop
/// decrements it and re-enqueues while at least `chains` operations
/// remain, so exactly `total_ops` tasks flow through the queue and the
/// last `chains` pops let their chains die (the final one closes the
/// queues). handoff seeds all chains at site 0 from the main thread
/// and hops sites; spawn_chain seeds chain t from worker t and stays
/// on its site. Returns wall-clock seconds.
template <typename Q>
double run_shape(Shape shape, std::size_t threads, std::size_t sites,
                 std::size_t total_ops) {
  auto qp = make_queue<Q>(sites, threads);
  Q& q = *qp;
  const std::size_t chains = chains_for(shape, threads);
  std::atomic<std::int64_t> budget{static_cast<std::int64_t>(total_ops)};
  if (shape == Shape::kHandoff) {
    for (std::size_t t = 0; t < chains; ++t)
      push(q, threads, 0, runtime::TaskArgs{sexpr::Value::fixnum(0)});
  }

  auto handle = [&](std::size_t lane, std::size_t site) {
    const std::int64_t left =
        budget.fetch_sub(1, std::memory_order_relaxed) - 1;
    if (left >= static_cast<std::int64_t>(chains)) {
      const std::size_t next =
          shape == Shape::kHandoff ? (site + 1) % sites : site;
      push(q, lane, next, runtime::TaskArgs{sexpr::Value::fixnum(left)});
    } else if (left == 0) {
      q.close();
    }
  };

  std::vector<std::thread> ws;
  ws.reserve(threads);
  const double secs = time_s([&] {
    for (std::size_t t = 0; t < threads; ++t) {
      ws.emplace_back([&, t] {
        if (shape == Shape::kSpawnChain && t < chains) {
          push(q, t, t % sites,
               runtime::TaskArgs{
                   sexpr::Value::fixnum(static_cast<std::int64_t>(t))});
        }
        std::size_t site = 0;
        while (pop(q, t, &site)) handle(t, site);
      });
    }
    for (auto& w : ws) w.join();
  });
  return secs;
}

struct AbRow {
  const char* impl;
  const char* workload;
  std::size_t threads, chains, sites, ops;
  double secs, mops;
};

template <typename Q>
AbRow measure(const char* impl, Shape shape, std::size_t threads,
              std::size_t sites, std::size_t total_ops, int reps) {
  double best = 1e9;
  for (int r = 0; r < reps; ++r)
    best = std::min(best, run_shape<Q>(shape, threads, sites, total_ops));
  return AbRow{impl,
               shape == Shape::kHandoff ? "handoff" : "spawn_chain",
               threads,
               chains_for(shape, threads),
               sites,
               total_ops,
               best,
               static_cast<double>(total_ops) / best / 1e6};
}

void emit_json(std::FILE* js, const AbRow& r) {
  if (js == nullptr) return;
  std::fprintf(js,
               "{\"bench\":\"queue_ab\",\"impl\":\"%s\","
               "\"workload\":\"%s\",\"threads\":%zu,\"chains\":%zu,"
               "\"sites\":%zu,\"ops\":%zu,\"secs\":%.6f,\"mops\":%.3f,"
               "%s}\n",
               r.impl, r.workload, r.threads, r.chains, r.sites, r.ops,
               r.secs, r.mops, host_facts_json().c_str());
}

void run_ab(std::FILE* js) {
  const bool smoke = smoke_mode();
  const std::size_t total_ops = smoke ? 4'000 : 400'000;
  const int reps = smoke ? 1 : 5;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  std::printf("A/B: scheduler throughput (no body work), %u core(s)\n",
              cores);
  std::printf("ops=%zu per cell, best of %d; Mops = million push+pop "
              "pairs/sec\n",
              total_ops, reps);

  double ws8_spawn = 0;  // acceptance cell: ws vs mutex, 8 thr, spawn
  double mutex8_spawn = 0;
  for (Shape shape : {Shape::kHandoff, Shape::kSpawnChain}) {
    const char* wname =
        shape == Shape::kHandoff ? "handoff" : "spawn_chain";
    std::printf("\nworkload: %s\n", wname);
    std::printf("%7s %6s | %11s %11s %8s\n", "threads", "sites",
                "mutex Mops", "ws Mops", "ws/mutex");
    for (std::size_t sites : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8}}) {
        const AbRow mx = measure<runtime::SingleMutexTaskQueues>(
            "mutex", shape, threads, sites, total_ops, reps);
        const AbRow ws = measure<runtime::WorkStealingTaskQueues>(
            "ws", shape, threads, sites, total_ops, reps);
        emit_json(js, mx);
        emit_json(js, ws);
        if (shape == Shape::kSpawnChain && threads == 8 && sites == 1) {
          mutex8_spawn = mx.mops;
          ws8_spawn = ws.mops;
        }
        std::printf("%7zu %6zu | %11.2f %11.2f %7.2fx\n", threads, sites,
                    mx.mops, ws.mops, ws.mops / mx.mops);
      }
    }
  }
  std::printf("\nacceptance: ws vs mutex at 8 threads "
              "(4 chains), spawn_chain,\n1 site:  %.2f vs %.2f Mops = "
              "%.2fx (bar: >= 1.5x; tools/bench_check.py gates\nit in "
              "CI)\n",
              ws8_spawn, mutex8_spawn, ws8_spawn / mutex8_spawn);
  std::printf("\nwall-clock caveat: with %u core(s) the threads above are "
              "time-sliced, so the\nmutex queue's lock is (almost) never "
              "contended — the convoy it forms on a real\nmultiprocessor "
              "does not show in these columns.\n\n",
              cores);
}

// ---- Part 2: grain sweep (original E7) ------------------------------------

double run_wallclock(Curare& cur, int grain, int depth,
                     std::size_t servers) {
  cur.interp().eval_program(
      "(defun grain$cri (n g)"
      "  (when (> n 0)"
      "    (%cri-enqueue 0 (- n 1) g)"
      "    (spin g)))");
  sexpr::Value fn = cur.interp().global("grain$cri");
  return time_s([&] {
    cur.runtime().run_cri(fn, 1, servers,
                          {sexpr::Value::fixnum(depth),
                           sexpr::Value::fixnum(grain)});
  });
}

void run_grain_sweep() {
  sexpr::Ctx ctx;
  Curare cur(ctx, 0);
  install_spin(cur.interp());

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t host_servers = std::min<std::size_t>(cores, 8);
  const std::size_t sim_servers = 16;
  const double dequeue_cost = 1.0;  // simulated queue service time

  std::printf("E7: central-queue bottleneck vs invocation grain "
              "(paper §4.1)\n");
  std::printf("simulated: S=%zu, dequeue cost 1 unit, head 1, tail = "
              "grain−1; host: S=%zu on %u core(s)\n\n",
              sim_servers, host_servers, cores);
  std::printf("%12s | %12s %12s | %8s %12s %12s\n", "grain/deq",
              "sim speedup", "sim eff", "depth", "host T(S)ms",
              "host eff");

  const long total_work = smoke_mode() ? 512L * 8 : 512L * 400;
  const int reps = smoke_mode() ? 1 : 2;
  for (int grain : {2, 8, 32, 128, 512}) {
    runtime::SimParams p;
    p.head_cost = 1;
    p.tail_cost = grain - 1;
    p.depth = 512;
    p.servers = sim_servers;
    p.dequeue_cost = dequeue_cost;
    const double sp = runtime::simulate_cri(p).speedup_vs_one(p);
    const double eff = sp / static_cast<double>(sim_servers);

    const int depth = static_cast<int>(total_work / grain);
    run_wallclock(cur, grain, depth, 1);  // warm-up
    double t1 = 1e9;
    double ts = 1e9;
    for (int rep = 0; rep < reps; ++rep) {
      t1 = std::min(t1, run_wallclock(cur, grain, depth, 1));
      ts = std::min(ts, run_wallclock(cur, grain, depth, host_servers));
    }
    std::printf("%12d | %12.2f %11.0f%% | %8d %12.2f %11.0f%%\n", grain,
                sp, 100 * eff, depth, ts * 1e3,
                100 * (t1 / ts) / static_cast<double>(host_servers));
  }
  std::printf("\nshape check: efficiency climbs with grain; at tiny "
              "grains the serialized\ndequeue dominates (sim speedup → "
              "grain/dequeue_cost), the paper's condition.\n");
}

}  // namespace

int main() {
  // Truncate the JSON-lines result file; bench_server_scaling appends.
  std::FILE* js = std::fopen(bench_json_path(), "w");
  run_ab(js);
  if (js != nullptr) std::fclose(js);
  run_grain_sweep();
  return 0;
}
