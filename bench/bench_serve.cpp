// E21: serving-layer load generator (DESIGN.md §11).
//
// An in-process ServeDaemon plus C closed-loop clients over real TCP:
// each client connects (getting its own isolated session), defines a
// small recursive workload, then fires eval requests back-to-back —
// the next request leaves only when the previous response arrived.
// Sweeping C maps the daemon's throughput curve and tail latency under
// multi-session contention: every session shares the heap, symbol
// table, future pool, and admission controller.
//
// Output: one human table line per client count, and a JSON-lines
// record per sweep point appended to BENCH_serve.json
// (CURARE_BENCH_SERVE_JSON overrides):
//
//   {"bench":"serve_load","clients":C,"requests":N,"wall_s":…,
//    "throughput_rps":…,"p50_ms":…,"p99_ms":…,"rejected":R}
//
// A second sweep repeats the load with resource governance armed and
// every 8th request a hostile allocation loop the per-request quota
// must clip ({"bench":"serve_runaway",…,"clipped":…} rows): the cost
// of governance under attack, visible in the same throughput units.
//
// CURARE_BENCH_SMOKE=1 shrinks the sweep for CI. CURARE_CHAOS=
// seed:rate[:kinds[:sites]] (FaultInjector::parse_spec) arms the
// deterministic fault injector for the whole run (the TSan CI job
// targets queue.push and task.run), in which case non-ok responses are
// counted, not fatal: the invariants under chaos are "no hang" and
// "every request gets a response".
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "curare/curare.hpp"
#include "lisp/interp.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/runtime.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sexpr/ctx.hpp"

using namespace curare;
using namespace curare::bench;

namespace {

struct SweepResult {
  int clients = 0;
  std::size_t requests = 0;
  double wall_s = 0;
  double throughput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t rejected = 0;  ///< non-ok responses (overload/chaos)
  std::size_t transport_errors = 0;
  /// Runaway-mix sweep only: requests clipped by the memory quota
  /// (expected, counted apart from rejections).
  std::size_t clipped = 0;
  /// Mean server-side breakdown components over the ok eval responses
  /// (each reply carries its request's measured split; see DESIGN §12).
  double mean_admission_ms = 0;
  double mean_eval_ms = 0;
};

/// The per-session workload: a recursive countdown the interpreter
/// actually walks, so each request costs real eval work (and polls
/// cancellation), not just socket round-trips.
constexpr const char* kDefineWorkload =
    "(defun bench-count (n acc) (if (< n 1) acc "
    "(bench-count (- n 1) (+ acc 1))))";

/// `runaway_mix` turns on resource governance (an 8 MiB per-request
/// quota) and makes every 8th request a hostile `(while t (cons 1 2))`
/// that the quota must clip — the sweep then measures what governance
/// and a steady trickle of runaways cost the well-behaved traffic.
SweepResult run_sweep(int clients, std::size_t requests_per_client,
                      int workload_n, bool chaos,
                      bool runaway_mix = false) {
  sexpr::Ctx ctx;
  serve::ServeOptions opts;
  opts.max_inflight = static_cast<std::size_t>(clients);
  opts.queue_limit = static_cast<std::size_t>(clients) * 2;
  if (runaway_mix) opts.mem_quota = 8ull << 20;
  serve::ServeDaemon daemon(ctx, opts);
  std::string err;
  if (!daemon.start(&err)) {
    std::fprintf(stderr, "bench_serve: %s\n", err.c_str());
    std::exit(1);
  }

  const std::string eval_src =
      "(bench-count " + std::to_string(workload_n) + " 0)";
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> transport_errors{0};
  std::atomic<std::size_t> clipped{0};
  std::atomic<std::uint64_t> bd_admission_ns{0};
  std::atomic<std::uint64_t> bd_eval_ns{0};
  std::atomic<std::uint64_t> bd_count{0};

  const double wall_s = time_s([&] {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::ClientConnection conn;
        if (!conn.connect("127.0.0.1", daemon.port())) {
          ++transport_errors;
          return;
        }
        // Session setup: define the workload, then restructure it so
        // the session owns a transformed bench-count$parallel entry.
        serve::Request def;
        def.op = "restructure";
        def.name = "bench-count";
        def.program = kDefineWorkload;
        if (!conn.request(def)) {
          ++transport_errors;
          return;
        }
        serve::Request plain;
        plain.op = "eval";
        plain.program = eval_src;
        // Every 4th request runs the transformed version under a CRI
        // pool — the shared task queue and server threads are part of
        // the serving story (and the chaos sites queue.push/task.run
        // only fire on this path).
        serve::Request cri;
        cri.op = "eval";
        cri.program = "(bench-count$parallel 2 " +
                      std::to_string(workload_n) + " 0)";
        serve::Request runaway;
        runaway.op = "eval";
        runaway.program = "(while t (cons 1 2))";
        auto& lat = latencies[static_cast<std::size_t>(c)];
        lat.reserve(requests_per_client);
        std::uint64_t adm_ns = 0, ev_ns = 0, bd_n = 0;
        for (std::size_t i = 0; i < requests_per_client; ++i) {
          const bool hostile = runaway_mix && i % 8 == 5;
          const serve::Request& req =
              hostile ? runaway : (i % 4 == 3) ? cri : plain;
          double ms = 0;
          const double s = time_s([&] {
            auto resp = conn.request(req);
            if (!resp) {
              ++transport_errors;
            } else if (hostile) {
              // The quota must convert the runaway into a structured
              // clip; anything else is a governance failure.
              if (resp->status == "resource-exhausted")
                ++clipped;
              else
                ++rejected;
            } else if (resp->status != "ok") {
              ++rejected;
            } else if (resp->metrics.is_object()) {
              const auto& m = resp->metrics.as_object();
              const auto it = m.find("breakdown");
              if (it != m.end() && it->second.is_object()) {
                const auto& b = it->second.as_object();
                auto ns = [&](const char* k) -> std::uint64_t {
                  const auto f = b.find(k);
                  return f == b.end()
                             ? 0
                             : static_cast<std::uint64_t>(
                                   f->second.as_number());
                };
                adm_ns += ns("admission_ns");
                ev_ns += ns("eval_ns");
                ++bd_n;
              }
            }
          });
          ms = s * 1e3;
          lat.push_back(ms);
        }
        bd_admission_ns += adm_ns;
        bd_eval_ns += ev_ns;
        bd_count += bd_n;
      });
    }
    for (auto& t : threads) t.join();
  });
  daemon.shutdown();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  auto pct = [&](double q) {
    if (all.empty()) return 0.0;
    const std::size_t i = std::min(
        all.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(all.size())));
    return all[i];
  };

  SweepResult r;
  r.clients = clients;
  r.requests = all.size();
  r.wall_s = wall_s;
  r.throughput_rps =
      wall_s > 0 ? static_cast<double>(all.size()) / wall_s : 0;
  r.p50_ms = pct(0.50);
  r.p99_ms = pct(0.99);
  r.rejected = rejected.load();
  r.transport_errors = transport_errors.load();
  r.clipped = clipped.load();
  if (const std::uint64_t n = bd_count.load(); n > 0) {
    r.mean_admission_ms =
        static_cast<double>(bd_admission_ns.load()) / (1e6 * n);
    r.mean_eval_ms = static_cast<double>(bd_eval_ns.load()) / (1e6 * n);
  }
  if (!chaos && (r.rejected != 0 || r.transport_errors != 0)) {
    std::fprintf(stderr,
                 "bench_serve: %zu rejected / %zu transport errors "
                 "without chaos — the daemon dropped load it had "
                 "capacity for\n",
                 r.rejected, r.transport_errors);
    std::exit(1);
  }
  return r;
}

/// A prelude big enough that evaluating it per session visibly hurts:
/// `defuns` recursive functions, a struct type, and a built data set.
/// The warm-start image replaces exactly this evaluation with a clone.
std::string make_heavy_prelude(int defuns, int data_n, int warm_n) {
  std::string p;
  for (int i = 0; i < defuns; ++i) {
    const std::string n = std::to_string(i);
    p += "(defun prelude-f" + n + " (n acc) (if (< n 1) acc "
         "(prelude-f" + n + " (- n 1) (+ acc " + n + "))))";
  }
  p += "(defstruct prelude-rec (pointers link) (data tag))";
  p += "(defun prelude-build (n) (if (< n 1) nil "
       "(cons (make-prelude-rec 'tag n) (prelude-build (- n 1)))))";
  p += "(setq prelude-data (prelude-build " + std::to_string(data_n) +
       "))";
  p += "(setq prelude-table (make-hash-table))";
  p += "(setf (gethash 'answer prelude-table) 42)";
  // Initialization compute: a long countdown whose result is one
  // fixnum. Evaluated per session it costs warm_n eval steps; in the
  // image it is a single immediate — the classic warm-start win.
  p += "(setq prelude-warm (prelude-f0 " + std::to_string(warm_n) +
       " 0))";
  return p;
}

struct ColdstartResult {
  int sessions = 0;
  double mean_setup_ms = 0;
};

/// The baseline the image replaces: build `sessions` serving-mode
/// drivers over one shared runtime, as a Session does, and have each
/// evaluate the prelude itself. Timed per driver: construction plus
/// load_program.
ColdstartResult run_prelude_coldstart(int sessions,
                                      const std::string& prelude) {
  sexpr::Ctx ctx;
  lisp::Interp host(ctx);
  runtime::Runtime rt(host);
  double total_s = 0;
  for (int s = 0; s < sessions; ++s) {
    std::unique_ptr<Curare> session;
    try {
      total_s += time_s([&] {
        session = std::make_unique<Curare>(ctx, rt);
        session->load_program(prelude);
        session->interp().take_output();
      });
      session->eval_program("(prelude-f0 3 0)");  // the prelude is live
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_serve: coldstart session failed (%s)\n",
                   e.what());
      std::exit(1);
    }
  }
  ColdstartResult r;
  r.sessions = sessions;
  r.mean_setup_ms = total_s * 1e3 / sessions;
  return r;
}

/// Open `sessions` connections against a daemon carrying the heavy
/// prelude and probe each once; the server-side session-setup
/// histogram (serve.session_setup_ns) then holds each session's image
/// clone plus driver construction.
ColdstartResult run_image_coldstart(int sessions,
                                    const std::string& prelude) {
  sexpr::Ctx ctx;
  serve::ServeOptions opts;
  opts.prelude_src = prelude;
  serve::ServeDaemon daemon(ctx, opts);
  std::string err;
  if (!daemon.start(&err)) {
    std::fprintf(stderr, "bench_serve: %s\n", err.c_str());
    std::exit(1);
  }
  for (int s = 0; s < sessions; ++s) {
    serve::ClientConnection conn;
    if (!conn.connect("127.0.0.1", daemon.port())) {
      std::fprintf(stderr, "bench_serve: coldstart connect failed\n");
      std::exit(1);
    }
    serve::Request probe;
    probe.op = "eval";
    probe.program = "(prelude-f0 3 0)";  // proves the prelude is live
    auto resp = conn.request(probe);
    if (!resp || resp->status != "ok") {
      std::fprintf(stderr,
                   "bench_serve: coldstart probe failed (%s)\n",
                   resp ? resp->error.c_str() : "transport");
      std::exit(1);
    }
  }
  ColdstartResult r;
  r.sessions = sessions;
  r.mean_setup_ms = daemon.runtime()
                        .obs()
                        .metrics.histogram("serve.session_setup_ns")
                        .mean() /
                    1e6;
  daemon.shutdown();
  return r;
}

struct CacheSweepResult {
  std::size_t miss_requests = 0;
  std::size_t hit_requests = 0;
  double miss_mean_ms = 0;  ///< breakdown restructure_ns, first session
  double hit_mean_ms = 0;   ///< breakdown restructure_ns, the rest
  std::uint64_t cache_hits = 0;
};

/// `sessions` connections each submit the same program and sweep-
/// restructure it. The first pays the full §4 analysis + §3.2/§5
/// transformation pipeline and seeds the cache; every later session
/// replays the cached answer. Each reply's restructure_ns breakdown
/// is the per-request cost this sweep compares.
CacheSweepResult run_cache_sweep(int sessions, int defuns) {
  sexpr::Ctx ctx;
  serve::ServeOptions opts;  // default: restructure cache enabled
  serve::ServeDaemon daemon(ctx, opts);
  std::string err;
  if (!daemon.start(&err)) {
    std::fprintf(stderr, "bench_serve: %s\n", err.c_str());
    std::exit(1);
  }
  // Tree-recursive struct walkers — the paper's CRI candidates, so a
  // miss pays the full conflict analysis and server-pool generation
  // that the cache exists to amortize.
  std::string program =
      "(defstruct cnode (pointers left right) (data weight))";
  for (int i = 0; i < defuns; ++i) {
    const std::string n = std::to_string(i);
    program += "(defun cache-f" + n + " (tr acc) (if (null tr) acc "
               "(cache-f" + n + " (left tr) "
               "(cache-f" + n + " (right tr) "
               "(+ acc (weight tr) "
               "(if (< (weight tr) " + n + ") "
               "(+ (weight tr) 1) (- (weight tr) 1)) "
               "(if (null (left tr)) "
               "(if (null (right tr)) 2 1) 0) " + n + ")))))";
  }

  CacheSweepResult r;
  std::uint64_t miss_ns = 0, hit_ns = 0;
  for (int s = 0; s < sessions; ++s) {
    serve::ClientConnection conn;
    if (!conn.connect("127.0.0.1", daemon.port())) {
      std::fprintf(stderr, "bench_serve: cache connect failed\n");
      std::exit(1);
    }
    serve::Request req;
    req.op = "restructure";  // no name → sweep every loaded defun
    req.program = program;
    auto resp = conn.request(req);
    if (!resp || resp->status != "ok") {
      std::fprintf(stderr, "bench_serve: cache sweep failed (%s)\n",
                   resp ? resp->error.c_str() : "transport");
      std::exit(1);
    }
    std::uint64_t restructure_ns = 0;
    if (resp->metrics.is_object()) {
      const auto& m = resp->metrics.as_object();
      const auto it = m.find("breakdown");
      if (it != m.end() && it->second.is_object()) {
        const auto& b = it->second.as_object();
        const auto f = b.find("restructure_ns");
        if (f != b.end())
          restructure_ns =
              static_cast<std::uint64_t>(f->second.as_number());
      }
    }
    if (s == 0) {
      miss_ns += restructure_ns;
      ++r.miss_requests;
    } else {
      hit_ns += restructure_ns;
      ++r.hit_requests;
    }
  }
  r.cache_hits = daemon.restructure_cache()->hits();
  if (r.miss_requests > 0)
    r.miss_mean_ms = static_cast<double>(miss_ns) /
                     (1e6 * static_cast<double>(r.miss_requests));
  if (r.hit_requests > 0)
    r.hit_mean_ms = static_cast<double>(hit_ns) /
                    (1e6 * static_cast<double>(r.hit_requests));
  daemon.shutdown();
  return r;
}

}  // namespace

int main() {
  const char* chaos_spec = std::getenv("CURARE_CHAOS");
  const bool chaos = chaos_spec != nullptr;
  if (chaos) {
    using runtime::FaultInjector;
    const auto spec = FaultInjector::parse_spec(chaos_spec);
    if (!spec) {
      std::fprintf(stderr,
                   "bench_serve: bad CURARE_CHAOS spec '%s' "
                   "(want seed:rate[:kinds[:sites]])\n",
                   chaos_spec);
      return 1;
    }
    FaultInjector::instance().configure(spec->seed, spec->rate,
                                        spec->kinds, spec->sites);
  }
  const bool smoke = smoke_mode();

  const std::vector<int> sweep =
      smoke ? std::vector<int>{1, 4, 8}
            : std::vector<int>{1, 2, 4, 8, 16};
  const std::size_t requests = smoke ? 40 : 300;
  const int workload_n = smoke ? 100 : 400;

  const char* path = std::getenv("CURARE_BENCH_SERVE_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_serve.json";
  std::FILE* js = std::fopen(path, "w");

  std::printf("== serve load (closed loop, %zu req/client, workload "
              "bench-count %d) ==\n",
              requests, workload_n);
  std::printf("%8s %9s %8s %12s %9s %9s %9s %9s %9s\n", "clients",
              "requests", "wall_s", "throughput", "p50_ms", "p99_ms",
              "adm_ms", "eval_ms", "rejected");
  for (const int c : sweep) {
    const SweepResult r = run_sweep(c, requests, workload_n, chaos);
    std::printf("%8d %9zu %8.3f %10.0f/s %9.3f %9.3f %9.3f %9.3f %9zu\n",
                r.clients, r.requests, r.wall_s, r.throughput_rps,
                r.p50_ms, r.p99_ms, r.mean_admission_ms, r.mean_eval_ms,
                r.rejected);
    if (js != nullptr) {
      std::fprintf(js,
                   "{\"bench\":\"serve_load\",\"clients\":%d,"
                   "\"requests\":%zu,\"wall_s\":%.6f,"
                   "\"throughput_rps\":%.1f,\"p50_ms\":%.4f,"
                   "\"p99_ms\":%.4f,\"mean_admission_ms\":%.4f,"
                   "\"mean_eval_ms\":%.4f,\"rejected\":%zu}\n",
                   r.clients, r.requests, r.wall_s, r.throughput_rps,
                   r.p50_ms, r.p99_ms, r.mean_admission_ms,
                   r.mean_eval_ms, r.rejected);
    }
  }
  // Runaway mix (DESIGN.md §14): same closed loop, but with an 8 MiB
  // per-request quota armed and every 8th request a hostile allocation
  // loop the quota clips. The throughput of the remaining well-behaved
  // traffic is the price of governance under attack.
  std::printf("\n== runaway mix (quota 8 MiB, every 8th request "
              "hostile) ==\n");
  std::printf("%8s %9s %8s %12s %9s %9s %9s %9s\n", "clients",
              "requests", "wall_s", "throughput", "p50_ms", "p99_ms",
              "clipped", "rejected");
  for (const int c : sweep) {
    const SweepResult r =
        run_sweep(c, requests, workload_n, chaos, /*runaway_mix=*/true);
    std::printf("%8d %9zu %8.3f %10.0f/s %9.3f %9.3f %9zu %9zu\n",
                r.clients, r.requests, r.wall_s, r.throughput_rps,
                r.p50_ms, r.p99_ms, r.clipped, r.rejected);
    if (!chaos && r.clipped == 0) {
      std::fprintf(stderr,
                   "bench_serve: runaway mix saw no quota clips — "
                   "governance is not engaging\n");
      return 1;
    }
    if (js != nullptr) {
      std::fprintf(js,
                   "{\"bench\":\"serve_runaway\",\"clients\":%d,"
                   "\"requests\":%zu,\"wall_s\":%.6f,"
                   "\"throughput_rps\":%.1f,\"p50_ms\":%.4f,"
                   "\"p99_ms\":%.4f,\"clipped\":%zu,\"rejected\":%zu}\n",
                   r.clients, r.requests, r.wall_s, r.throughput_rps,
                   r.p50_ms, r.p99_ms, r.clipped, r.rejected);
    }
  }
  // Cold start A/B (DESIGN.md §15): the same heavy prelude evaluated by
  // each session's own driver vs. cloned from the daemon's image.
  // The acceptance bar is image >= 5x faster session setup.
  const int cs_sessions = smoke ? 8 : 24;
  const int cs_defuns = smoke ? 24 : 80;
  const int cs_data = smoke ? 120 : 400;
  const int cs_warm = smoke ? 20000 : 60000;
  const std::string prelude =
      make_heavy_prelude(cs_defuns, cs_data, cs_warm);
  std::printf("\n== cold start (prelude: %d defuns + %d-record data "
              "set, %d sessions) ==\n",
              cs_defuns, cs_data, cs_sessions);
  std::printf("%10s %10s %14s\n", "mode", "sessions", "setup_ms");
  const ColdstartResult cold = run_prelude_coldstart(cs_sessions, prelude);
  const ColdstartResult warm = run_image_coldstart(cs_sessions, prelude);
  std::printf("%10s %10d %14.3f\n", "prelude", cold.sessions,
              cold.mean_setup_ms);
  std::printf("%10s %10d %14.3f   (%.1fx faster)\n", "image",
              warm.sessions, warm.mean_setup_ms,
              warm.mean_setup_ms > 0
                  ? cold.mean_setup_ms / warm.mean_setup_ms
                  : 0.0);
  if (js != nullptr) {
    std::fprintf(js,
                 "{\"bench\":\"serve_coldstart\",\"mode\":\"prelude\","
                 "\"sessions\":%d,\"mean_setup_ms\":%.4f}\n",
                 cold.sessions, cold.mean_setup_ms);
    std::fprintf(js,
                 "{\"bench\":\"serve_coldstart\",\"mode\":\"image\","
                 "\"sessions\":%d,\"mean_setup_ms\":%.4f}\n",
                 warm.sessions, warm.mean_setup_ms);
  }

  // Restructure cache: the first sweep pays analysis + transformation,
  // later sessions replay the cached answer. Acceptance bar: hits cost
  // >= 10x less restructure_ns than the miss.
  const int cache_sessions = smoke ? 8 : 16;
  const int cache_defuns = smoke ? 8 : 12;
  const CacheSweepResult cache =
      run_cache_sweep(cache_sessions, cache_defuns);
  std::printf("\n== restructure cache (%d defuns swept by %d "
              "sessions) ==\n",
              cache_defuns, cache_sessions);
  std::printf("%10s %10s %17s\n", "mode", "requests", "restructure_ms");
  std::printf("%10s %10zu %17.3f\n", "miss", cache.miss_requests,
              cache.miss_mean_ms);
  std::printf("%10s %10zu %17.3f   (%.1fx cheaper, %llu cache hits)\n",
              "hit", cache.hit_requests, cache.hit_mean_ms,
              cache.hit_mean_ms > 0
                  ? cache.miss_mean_ms / cache.hit_mean_ms
                  : 0.0,
              static_cast<unsigned long long>(cache.cache_hits));
  if (!chaos && cache.cache_hits == 0) {
    std::fprintf(stderr,
                 "bench_serve: repeated sweeps produced no cache hits "
                 "— the restructure cache is not engaging\n");
    return 1;
  }
  if (js != nullptr) {
    std::fprintf(js,
                 "{\"bench\":\"serve_restructure_cache\","
                 "\"mode\":\"miss\",\"requests\":%zu,"
                 "\"mean_restructure_ms\":%.4f}\n",
                 cache.miss_requests, cache.miss_mean_ms);
    std::fprintf(js,
                 "{\"bench\":\"serve_restructure_cache\","
                 "\"mode\":\"hit\",\"requests\":%zu,"
                 "\"mean_restructure_ms\":%.4f}\n",
                 cache.hit_requests, cache.hit_mean_ms);
  }
  if (js != nullptr) std::fclose(js);
  std::printf("JSON %s\n", path);
  return 0;
}
