// E22: observability overhead (DESIGN.md §12).
//
// Two sweeps, three profiler modes each — off, 1-in-64 (the default
// sampling period), and 1-in-8 (the densest the profiler allows):
//
//   1. eval loop: a recursive countdown evaluated back-to-back in one
//      interpreter measures the pure hot-path cost of the sampling
//      gate and shadow stack;
//   2. serve: an in-process ServeDaemon with closed-loop TCP clients
//      measures the end-to-end throughput cost a served deployment
//      would see (the acceptance bar: 1-in-64 within 5% of off).
//
// Output: a human table and JSON-lines records in BENCH_obs.json
// (CURARE_BENCH_OBS_JSON overrides):
//
//   {"bench":"profiler_eval","mode":"off","evals_per_s":…,
//    "samples":…,"overhead_pct":…}
//   {"bench":"profiler_serve","mode":"p64","clients":C,
//    "throughput_rps":…,"samples":…,"overhead_pct":…}
//
// overhead_pct is relative to the same sweep's "off" row (0 for off).
// Each mode is measured `reps` times round-robin (off, p64, p8, off,
// …) and the best run kept: one serve point is only ~0.5 s of wall
// time, so a single cold pass confounds turbo/thermal drift with the
// profiler — interleaving spreads the drift across modes and taking
// the max filters scheduler noise. CURARE_BENCH_SMOKE=1 shrinks the
// counts (and reps) for CI.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "obs/profiler.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sexpr/ctx.hpp"

using namespace curare;
using namespace curare::bench;

namespace {

struct Mode {
  const char* name;
  unsigned period;  ///< 0 = profiler off
};

constexpr Mode kModes[] = {{"off", 0}, {"p64", 64}, {"p8", 8}};

void set_mode(const Mode& m) {
  auto& prof = obs::Profiler::instance();
  prof.set_enabled(false);
  prof.clear();
  if (m.period > 0) {
    prof.set_period(m.period);
    prof.set_enabled(true);
  }
}

constexpr const char* kDefineWorkload =
    "(defun bench-count (n acc) (if (< n 1) acc "
    "(bench-count (- n 1) (+ acc 1))))";

struct EvalResult {
  double wall_s = 0;
  double evals_per_s = 0;
  std::uint64_t samples = 0;
};

/// One interpreter, `iters` back-to-back evaluations of a recursive
/// countdown of depth `n` — every recursion step is one eval() call,
/// so the profiler gate sits directly on the measured path.
EvalResult run_eval_sweep(const Mode& m, int iters, int n) {
  sexpr::Ctx ctx;
  Curare cur(ctx);
  cur.interp().set_echo(false);
  cur.load_program(kDefineWorkload);
  const std::string src = "(bench-count " + std::to_string(n) + " 0)";
  set_mode(m);
  EvalResult r;
  r.wall_s = time_s([&] {
    for (int i = 0; i < iters; ++i) cur.interp().eval_program(src);
  });
  auto& prof = obs::Profiler::instance();
  r.samples = prof.samples();
  prof.set_enabled(false);
  // Eval steps per second: each countdown level costs a handful of
  // eval() calls (if/</-/+ and the recursive application); reporting
  // whole-workload evaluations keeps the unit stable across modes.
  r.evals_per_s = r.wall_s > 0
                      ? static_cast<double>(iters) / r.wall_s
                      : 0;
  return r;
}

struct ServeResult {
  double wall_s = 0;
  double throughput_rps = 0;
  std::uint64_t samples = 0;
  std::size_t errors = 0;
};

/// Closed-loop serve throughput (bench_serve's shape, plain evals
/// only): C clients, each firing `requests` workload evals.
ServeResult run_serve_sweep(const Mode& m, int clients,
                            std::size_t requests, int n) {
  sexpr::Ctx ctx;
  serve::ServeOptions opts;
  opts.max_inflight = static_cast<std::size_t>(clients);
  opts.queue_limit = static_cast<std::size_t>(clients) * 2;
  serve::ServeDaemon daemon(ctx, opts);
  std::string err;
  if (!daemon.start(&err)) {
    std::fprintf(stderr, "bench_obs: %s\n", err.c_str());
    std::exit(1);
  }
  const std::string eval_src =
      "(bench-count " + std::to_string(n) + " 0)";
  std::atomic<std::size_t> errors{0};
  set_mode(m);
  ServeResult r;
  r.wall_s = time_s([&] {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        serve::ClientConnection conn;
        if (!conn.connect("127.0.0.1", daemon.port())) {
          ++errors;
          return;
        }
        serve::Request def;
        def.op = "eval";
        def.program = kDefineWorkload;
        if (!conn.request(def)) {
          ++errors;
          return;
        }
        serve::Request req;
        req.op = "eval";
        req.program = eval_src;
        for (std::size_t i = 0; i < requests; ++i) {
          auto resp = conn.request(req);
          if (!resp || resp->status != "ok") ++errors;
        }
      });
    }
    for (auto& t : threads) t.join();
  });
  auto& prof = obs::Profiler::instance();
  r.samples = prof.samples();
  prof.set_enabled(false);
  daemon.shutdown();
  r.throughput_rps =
      r.wall_s > 0 ? static_cast<double>(clients) *
                         static_cast<double>(requests) / r.wall_s
                   : 0;
  r.errors = errors.load();
  if (r.errors != 0) {
    std::fprintf(stderr,
                 "bench_obs: %zu request error(s) — the serve sweep "
                 "must run clean to compare modes\n",
                 r.errors);
    std::exit(1);
  }
  return r;
}

double overhead_pct(double base, double now) {
  return base > 0 ? (base - now) / base * 100.0 : 0.0;
}

}  // namespace

int main() {
  const bool smoke = smoke_mode();
  const int eval_iters = smoke ? 200 : 4000;
  const int workload_n = smoke ? 100 : 400;
  const int clients = 4;
  const std::size_t requests = smoke ? 30 : 600;
  const int reps = smoke ? 1 : 3;
  constexpr std::size_t kNModes = sizeof kModes / sizeof kModes[0];

  const char* path = std::getenv("CURARE_BENCH_OBS_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_obs.json";
  std::FILE* js = std::fopen(path, "w");

  // Interleaved repetitions: round-robin over the modes, keep the
  // best run per mode (see the header comment on methodology).
  EvalResult eval_best[kNModes];
  ServeResult serve_best[kNModes];
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < kNModes; ++i) {
      const EvalResult r =
          run_eval_sweep(kModes[i], eval_iters, workload_n);
      if (r.evals_per_s > eval_best[i].evals_per_s) eval_best[i] = r;
    }
    for (std::size_t i = 0; i < kNModes; ++i) {
      const ServeResult r =
          run_serve_sweep(kModes[i], clients, requests, workload_n);
      if (r.throughput_rps > serve_best[i].throughput_rps)
        serve_best[i] = r;
    }
  }

  std::printf("== profiler overhead: eval loop (%d evals of "
              "bench-count %d, best of %d) ==\n",
              eval_iters, workload_n, reps);
  std::printf("%6s %10s %12s %10s %10s\n", "mode", "wall_s",
              "evals/s", "samples", "overhd_%");
  const double eval_base = eval_best[0].evals_per_s;
  for (std::size_t i = 0; i < kNModes; ++i) {
    const Mode& m = kModes[i];
    const EvalResult& r = eval_best[i];
    const double ov = m.period == 0
                          ? 0.0
                          : overhead_pct(eval_base, r.evals_per_s);
    std::printf("%6s %10.3f %12.0f %10llu %10.2f\n", m.name, r.wall_s,
                r.evals_per_s,
                static_cast<unsigned long long>(r.samples), ov);
    if (js != nullptr) {
      std::fprintf(js,
                   "{\"bench\":\"profiler_eval\",\"mode\":\"%s\","
                   "\"iters\":%d,\"workload_n\":%d,\"reps\":%d,"
                   "\"wall_s\":%.6f,"
                   "\"evals_per_s\":%.1f,\"samples\":%llu,"
                   "\"overhead_pct\":%.3f,%s}\n",
                   m.name, eval_iters, workload_n, reps, r.wall_s,
                   r.evals_per_s,
                   static_cast<unsigned long long>(r.samples), ov,
                   host_facts_json().c_str());
    }
  }

  std::printf("== profiler overhead: serve (%d clients, %zu "
              "req/client, best of %d) ==\n",
              clients, requests, reps);
  std::printf("%6s %10s %12s %10s %10s\n", "mode", "wall_s",
              "req/s", "samples", "overhd_%");
  const double serve_base = serve_best[0].throughput_rps;
  for (std::size_t i = 0; i < kNModes; ++i) {
    const Mode& m = kModes[i];
    const ServeResult& r = serve_best[i];
    const double ov = m.period == 0
                          ? 0.0
                          : overhead_pct(serve_base, r.throughput_rps);
    std::printf("%6s %10.3f %12.0f %10llu %10.2f\n", m.name, r.wall_s,
                r.throughput_rps,
                static_cast<unsigned long long>(r.samples), ov);
    if (js != nullptr) {
      std::fprintf(js,
                   "{\"bench\":\"profiler_serve\",\"mode\":\"%s\","
                   "\"clients\":%d,\"requests\":%zu,\"reps\":%d,"
                   "\"wall_s\":%.6f,"
                   "\"throughput_rps\":%.1f,\"samples\":%llu,"
                   "\"overhead_pct\":%.3f,%s}\n",
                   m.name, clients, requests, reps, r.wall_s,
                   r.throughput_rps,
                   static_cast<unsigned long long>(r.samples), ov,
                   host_facts_json().c_str());
    }
  }

  if (js != nullptr) std::fclose(js);
  std::printf("JSON %s\n", path);
  return 0;
}
