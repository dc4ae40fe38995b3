// E5 and E8 on one spin workload: a synthetic recursion whose body
// spins h units, enqueues its successor, then spins t units.
//
// E5 (paper §3.1, Figs 6–7): concurrency = (|H|+|T|)/|H|. The
// discrete-event CRI simulator (the 5–100 processor machine of §1.2
// that this host may lack) sweeps the head fraction h/(h+t) at fixed
// h+t; the simulated speedup must track the paper's bound
// min((h+t)/h, S). The same workload on the real thread-backed pool is
// meaningful only on a multi-core host (the run reports the core
// count; on one core wall-clock speedup is pinned at ~1 by physics,
// not by the model).
//
// E8 (paper §4.1, Figure 10): T(S) = (⌈d/S⌉−1)(h+t) + (S·h+t), optimum
// S* = sqrt(d(h+t)/h) clamped by c_f = (h+t)/h. Simulated T(S) against
// the closed-form model across a server sweep — the two coincide
// exactly at S = c_f and closely below it; beyond c_f extra servers are
// wasted (the clamp the paper prescribes). Secondary: wall-clock on the
// host pool.
//
// Besides the human-readable tables, each E8 sweep point emits one
// machine-readable JSON line (prefix "JSON ") with the measured
// CriStats aggregates, so plots/regressions can be driven from the
// bench output directly. The same records are appended to
// BENCH_scheduler.json (bench_queue truncates it; run that first).
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim.hpp"

using namespace curare;
using namespace curare::bench;

namespace {

double run_wallclock(Curare& cur, int h, int t, int depth,
                     std::size_t servers) {
  cur.interp().eval_program(
      "(defun scale$cri (n hh tt)"
      "  (when (> n 0)"
      "    (spin hh)"
      "    (%cri-enqueue 0 (- n 1) hh tt)"
      "    (spin tt)))");
  sexpr::Value fn = cur.interp().global("scale$cri");
  return time_s([&] {
    cur.runtime().run_cri(fn, 1, servers,
                          {sexpr::Value::fixnum(depth),
                           sexpr::Value::fixnum(h),
                           sexpr::Value::fixnum(t)});
  });
}

void run_head_fraction_sweep(Curare& cur, unsigned cores) {
  const int total_units = 400;
  const int depth = 256;
  const std::size_t sim_servers = 16;
  const std::size_t host_servers = std::min<std::size_t>(cores, 8);
  const int reps = smoke_mode() ? 1 : 3;

  std::printf("E5: concurrency model — speedup vs head fraction "
              "(paper §3.1)\n");
  std::printf("depth=%d, h+t=%d; simulated machine S=%zu; host has %u "
              "core(s), pool S=%zu\n\n",
              depth, total_units, sim_servers, cores, host_servers);
  std::printf("%10s %8s | %12s %10s | %12s %12s %10s\n", "head_frac",
              "h", "sim speedup", "bound", "host T(1)ms", "host T(S)ms",
              "host spd");

  for (double frac : {0.9, 0.5, 0.25, 0.125, 0.0625}) {
    const int h = std::max(1, static_cast<int>(total_units * frac));
    const int t = total_units - h;

    runtime::SimParams p;
    p.head_cost = h;
    p.tail_cost = t;
    p.depth = static_cast<std::size_t>(depth);
    p.servers = sim_servers;
    const double sim_speedup = runtime::simulate_cri(p).speedup_vs_one(p);
    const double bound = std::min(
        runtime::max_concurrency(h, t, std::nullopt),
        static_cast<double>(sim_servers));

    run_wallclock(cur, h, t, depth, 1);  // warm-up
    double t1 = 1e9;
    double ts = 1e9;
    for (int rep = 0; rep < reps; ++rep) {
      t1 = std::min(t1, run_wallclock(cur, h, t, depth, 1));
      ts = std::min(ts, run_wallclock(cur, h, t, depth, host_servers));
    }
    std::printf("%10.4f %8d | %12.2f %10.2f | %12.2f %12.2f %10.2f\n",
                static_cast<double>(h) / total_units, h, sim_speedup,
                bound, t1 * 1e3, ts * 1e3, t1 / ts);
  }
  std::printf(
      "\nshape check: simulated speedup rises as the head shrinks and "
      "hugs\nmin((h+t)/h, S) — the paper's concurrency bound. Host "
      "columns show the\nsame trend when cores are available.\n\n");
}

void run_server_sweep(Curare& cur, unsigned cores) {
  const int h = 20;
  const int t = 380;  // c_f = 20
  const int depth = 512;

  const double s_star = runtime::optimal_servers_continuous(depth, h, t);
  const double cf = runtime::max_concurrency(h, t, std::nullopt);
  std::printf("E8: server scaling vs the Figure 10 model\n");
  std::printf("d=%d, h=%d, t=%d  →  S* = %.1f, c_f = (h+t)/h = %.1f, "
              "choose min = %zu (host: %u core(s))\n\n",
              depth, h, t, s_star, cf,
              runtime::choose_servers(depth, h, t, std::nullopt, 1024),
              cores);
  std::printf("%6s %14s %14s %10s | %14s\n", "S", "model T(S)",
              "simulated", "ratio", "host ms");

  std::vector<std::size_t> sweep{1, 2, 4, 8, 12, 16, 20, 24, 32, 64};
  if (smoke_mode()) sweep = {1, 4, 16};
  const int reps = smoke_mode() ? 1 : 2;
  std::FILE* js = std::fopen(bench_json_path(), "a");
  run_wallclock(cur, h, t, depth, 1);  // warm-up

  double best_sim = 1e18;
  std::size_t best_s = 1;
  for (std::size_t s : sweep) {
    const double model =
        runtime::predicted_time(static_cast<double>(s), depth, h, t);
    runtime::SimParams p;
    p.head_cost = h;
    p.tail_cost = t;
    p.depth = static_cast<std::size_t>(depth);
    p.servers = s;
    const double sim = runtime::simulate_cri(p).total_time;
    if (sim < best_sim) {
      best_sim = sim;
      best_s = s;
    }
    double wall = 1e9;
    for (int rep = 0; rep < reps; ++rep)
      wall = std::min(wall,
                      run_wallclock(cur, h, t, depth,
                                    std::min<std::size_t>(s, 16)));
    std::printf("%6zu %14.0f %14.0f %10.3f | %14.2f\n", s, model, sim,
                sim / model, wall * 1e3);

    // Machine-readable record for this sweep point (stats are from the
    // last wall-clock rep; the recorder is on but the tracer is off).
    const runtime::CriStats& st = cur.runtime().last_cri_stats();
    const double inv = static_cast<double>(st.invocations);
    char rec[512];
    std::snprintf(
        rec, sizeof rec,
        "{\"bench\":\"server_scaling\",\"S\":%zu,\"d\":%d,"
        "\"h_units\":%d,\"t_units\":%d,\"model_T\":%.1f,\"sim_T\":%.1f,"
        "\"wall_ms\":%.3f,\"invocations\":%llu,"
        "\"head_ns_mean\":%.1f,\"tail_ns_mean\":%.1f,"
        "\"utilization\":%.4f,\"max_queue\":%llu,"
        "\"notify_suppressed\":%llu,\"sleeps\":%llu,%s}",
        s, depth, h, t, model, sim, wall * 1e3,
        static_cast<unsigned long long>(st.invocations),
        inv > 0 ? static_cast<double>(st.head_ns) / inv : 0.0,
        inv > 0 ? static_cast<double>(st.tail_ns) / inv : 0.0,
        st.utilization(),
        static_cast<unsigned long long>(st.max_queue_length),
        static_cast<unsigned long long>(st.queue.notify_suppressed),
        static_cast<unsigned long long>(st.queue.sleeps),
        host_facts_json().c_str());
    std::printf("JSON %s\n", rec);
    if (js != nullptr) std::fprintf(js, "%s\n", rec);
  }
  if (js != nullptr) std::fclose(js);

  std::printf("\nsimulated argmin: S = %zu (clamped optimum %zu, "
              "unclamped S* = %.1f)\n",
              best_s,
              runtime::choose_servers(depth, h, t, std::nullopt, 1024),
              s_star);
  std::printf("shape check: simulated T(S) matches the model for "
              "S ≤ c_f (exactly at c_f)\nand flattens beyond — the "
              "paper's instruction to use min(S*, c_f).\n");
}

}  // namespace

int main() {
  sexpr::Ctx ctx;
  Curare cur(ctx, 0);
  install_spin(cur.interp());
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  run_head_fraction_sweep(cur, cores);
  run_server_sweep(cur, cores);
  return 0;
}
