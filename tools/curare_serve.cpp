// curare_serve — the multi-session serving daemon.
//
//   curare_serve [opts]
//
// Listens on a local TCP socket and serves the length-prefixed JSON
// protocol (src/serve/protocol.hpp): each connection gets its own
// session — an isolated interpreter and top-level environment — over
// the shared heap, lock manager, future pool, and metrics. Use
// curare_client to talk to it.
//
// Options (every value flag also accepts --flag=value):
//   --port N            listen port (default 0 = kernel-assigned;
//                       the bound port is printed on stdout)
//   --port-file PATH    also write the bound port to PATH (for
//                       scripts that must not parse stdout)
//   --host ADDR         bind address (default 127.0.0.1)
//   --max-inflight N    concurrent executing requests (default 8)
//   --queue-limit N     waiting requests before "overloaded" (default 32)
//   --deadline-ms N     default per-request deadline when the request
//                       carries none (default 0 = unlimited)
//   --drain-grace-ms N  how long SIGTERM waits for in-flight requests
//                       before cancelling them (default 2000)
//   --stall-ms N        per-CRI-run watchdog window (default 0 = off)
//   --lock-budget-ms N  cap any single blocked lock acquisition
//   --workers N         future-pool threads (default hw concurrency)
//   --mem-quota N       per-request GC-allocation quota in bytes
//                       (k/m/g suffixes accepted; 0 = unlimited);
//                       a crossing request answers
//                       status="resource-exhausted" and only that
//                       request dies
//   --heap-soft N       heap soft watermark: above it, eval and
//                       restructure admissions shed with
//                       status="overloaded" + retry_after_ms while
//                       GC urgency is raised
//   --heap-hard N       heap hard watermark: above it, in-flight
//                       allocations fail with resource-exhausted
//                       instead of reaching the OS OOM killer
//   --fuel N            per-request eval-step budget (tree steps /
//                       VM instructions; 0 = unlimited)
//   --result-cap N      cap on a reply's result+output bytes
//   --retry-after-ms N  backoff hint stamped on overloaded responses
//                       (default 100)
//   --chaos SEED:RATE[:KINDS[:SITES]]  arm the fault injector
//                       (grammar: FaultInjector::parse_spec; e.g.
//                       1:0.01::queue.push,task.run)
//   --prelude PATH      program file every session starts from: it
//                       is evaluated once into a template session and
//                       captured as an image that new connections
//                       clone (warm start, DESIGN.md §15)
//   --image-save PATH   persist the captured session image so a
//                       restarted daemon can skip prelude evaluation
//   --image-load PATH   start from a saved image instead of
//                       evaluating --prelude (corrupt or
//                       version-skewed files fail startup loudly)
//   --restructure-cache N  restructure-cache entry bound
//                       (default 1024; 0 disables the cache)
//   --stats             print the metrics report on exit
//   --trace             enable the tracer: requests' spans stay in the
//                       per-thread rings and the `trace` op can export
//                       one request's lane as Chrome trace JSON
//   --profile[=N]       arm the sampling eval profiler (1-in-N eval
//                       steps, default 64); the report rides `stats`
//
// Exit: 0 after a graceful SIGTERM/SIGINT drain; 1 on socket errors;
// 2 on a bad command line (the shared table in serve/exit_codes.hpp).
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include <unistd.h>

#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/resource.hpp"
#include "serve/exit_codes.hpp"
#include "serve/server.hpp"
#include "sexpr/ctx.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

extern "C" void on_signal(int) {
  const char byte = 1;
  // Best-effort: if the pipe is full a drain is already pending.
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: curare_serve [--port N] [--port-file PATH] [--host ADDR]\n"
      "                    [--max-inflight N] [--queue-limit N]\n"
      "                    [--deadline-ms N] [--drain-grace-ms N]\n"
      "                    [--stall-ms N] [--lock-budget-ms N]\n"
      "                    [--workers N]\n"
      "                    [--mem-quota N] [--heap-soft N] [--heap-hard N]\n"
      "                    [--fuel N] [--result-cap N] [--retry-after-ms N]\n"
      "                    [--chaos SEED:RATE[:KINDS[:SITES]]]\n"
      "                    [--prelude PATH] [--image-save PATH]\n"
      "                    [--image-load PATH]\n"
      "                    [--restructure-cache N]\n"
      "                    [--stats] [--trace] [--profile[=N]]\n");
  return curare::serve::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  curare::serve::ServeOptions opts;
  std::string port_file;
  bool stats = false;
  bool trace = false;
  std::int64_t profile_period = 0;  // 0 = profiler off
  std::int64_t stall_ms = 0;
  std::int64_t lock_budget_ms = 0;
  std::optional<curare::runtime::FaultInjector::Spec> chaos;

  // Value flags accept both "--flag VALUE" and "--flag=VALUE".
  auto take_value = [&](int& i, const std::string& arg,
                        const std::string& flag,
                        std::string& out) -> bool {
    if (arg.rfind(flag + "=", 0) == 0) {
      out = arg.substr(flag.size() + 1);
      return true;
    }
    if (arg != flag) return false;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", flag.c_str());
      std::exit(curare::serve::kExitUsage);
    }
    out = argv[++i];
    return true;
  };
  auto parse_nonneg = [](const std::string& flag, const std::string& text,
                         std::int64_t& out) {
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || v < 0) {
      std::fprintf(stderr, "%s: bad value '%s'\n", flag.c_str(),
                   text.c_str());
      std::exit(curare::serve::kExitUsage);
    }
    out = v;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    std::int64_t n = 0;
    if (take_value(i, arg, "--port", v)) {
      parse_nonneg("--port", v, n);
      opts.port = static_cast<int>(n);
    } else if (take_value(i, arg, "--port-file", v)) {
      port_file = v;
    } else if (take_value(i, arg, "--host", v)) {
      opts.host = v;
    } else if (take_value(i, arg, "--max-inflight", v)) {
      parse_nonneg("--max-inflight", v, n);
      opts.max_inflight = static_cast<std::size_t>(n);
    } else if (take_value(i, arg, "--queue-limit", v)) {
      parse_nonneg("--queue-limit", v, n);
      opts.queue_limit = static_cast<std::size_t>(n);
    } else if (take_value(i, arg, "--deadline-ms", v)) {
      parse_nonneg("--deadline-ms", v, opts.default_deadline_ms);
    } else if (take_value(i, arg, "--drain-grace-ms", v)) {
      parse_nonneg("--drain-grace-ms", v, opts.drain_grace_ms);
    } else if (take_value(i, arg, "--stall-ms", v)) {
      parse_nonneg("--stall-ms", v, stall_ms);
    } else if (take_value(i, arg, "--lock-budget-ms", v)) {
      parse_nonneg("--lock-budget-ms", v, lock_budget_ms);
    } else if (take_value(i, arg, "--workers", v)) {
      parse_nonneg("--workers", v, n);
      opts.workers = static_cast<std::size_t>(n);
    } else if (take_value(i, arg, "--mem-quota", v)) {
      if (!curare::runtime::parse_bytes(v, opts.mem_quota)) {
        std::fprintf(stderr, "--mem-quota: bad byte count '%s'\n",
                     v.c_str());
        return curare::serve::kExitUsage;
      }
    } else if (take_value(i, arg, "--heap-soft", v)) {
      if (!curare::runtime::parse_bytes(v, opts.heap_soft)) {
        std::fprintf(stderr, "--heap-soft: bad byte count '%s'\n",
                     v.c_str());
        return curare::serve::kExitUsage;
      }
    } else if (take_value(i, arg, "--heap-hard", v)) {
      if (!curare::runtime::parse_bytes(v, opts.heap_hard)) {
        std::fprintf(stderr, "--heap-hard: bad byte count '%s'\n",
                     v.c_str());
        return curare::serve::kExitUsage;
      }
    } else if (take_value(i, arg, "--fuel", v)) {
      parse_nonneg("--fuel", v, n);
      opts.fuel = static_cast<std::uint64_t>(n);
    } else if (take_value(i, arg, "--result-cap", v)) {
      std::uint64_t cap = 0;
      if (!curare::runtime::parse_bytes(v, cap)) {
        std::fprintf(stderr, "--result-cap: bad byte count '%s'\n",
                     v.c_str());
        return curare::serve::kExitUsage;
      }
      opts.result_cap = static_cast<std::size_t>(cap);
    } else if (take_value(i, arg, "--retry-after-ms", v)) {
      parse_nonneg("--retry-after-ms", v, opts.retry_after_ms);
    } else if (take_value(i, arg, "--prelude", v)) {
      std::ifstream in(v, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "--prelude: cannot read '%s'\n", v.c_str());
        return curare::serve::kExitUsage;
      }
      opts.prelude_src.assign(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
    } else if (take_value(i, arg, "--image-save", v)) {
      opts.image_save = v;
    } else if (take_value(i, arg, "--image-load", v)) {
      opts.image_load = v;
    } else if (take_value(i, arg, "--restructure-cache", v)) {
      parse_nonneg("--restructure-cache", v, n);
      opts.restructure_cache_cap = static_cast<std::size_t>(n);
    } else if (take_value(i, arg, "--chaos", v)) {
      chaos = curare::runtime::FaultInjector::parse_spec(v);
      if (!chaos) {
        std::fprintf(stderr,
                     "--chaos wants SEED:RATE[:KINDS[:SITES]] with "
                     "RATE in (0,1]\n");
        return curare::serve::kExitUsage;
      }
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--profile") {
      profile_period = curare::obs::Profiler::kDefaultPeriod;
    } else if (arg.rfind("--profile=", 0) == 0) {
      parse_nonneg("--profile", arg.substr(10), profile_period);
      if (profile_period == 0) {
        std::fprintf(stderr, "--profile: period must be >= 1\n");
        return curare::serve::kExitUsage;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return curare::serve::kExitError;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);  // torn clients are routine

  curare::sexpr::Ctx ctx;
  curare::serve::ServeDaemon daemon(ctx, opts);
  daemon.runtime().set_stall_ms(stall_ms);
  daemon.runtime().locks().set_wait_budget_ms(lock_budget_ms);
  if (chaos) {
    curare::runtime::FaultInjector::instance().configure(
        chaos->seed, chaos->rate, chaos->kinds, chaos->sites);
  }
  if (trace) daemon.runtime().obs().tracer.set_enabled(true);
  if (profile_period > 0) {
    auto& prof = curare::obs::Profiler::instance();
    prof.set_period(static_cast<unsigned>(profile_period));
    prof.set_enabled(true);
  }

  std::string err;
  if (!daemon.start(&err)) {
    std::fprintf(stderr, "curare_serve: %s\n", err.c_str());
    return curare::serve::kExitError;
  }
  std::printf("curare_serve: listening on %s:%d\n", opts.host.c_str(),
              daemon.port());
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << daemon.port() << "\n";
    if (!pf) {
      std::fprintf(stderr, "curare_serve: cannot write %s\n",
                   port_file.c_str());
      daemon.shutdown();
      return curare::serve::kExitError;
    }
  }

  // Park until a signal lands (self-pipe: the handler only writes).
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("curare_serve: draining\n");
  std::fflush(stdout);
  daemon.shutdown();
  if (stats) {
    std::printf("%s",
                curare::obs::full_report(daemon.runtime().obs()).c_str());
  }
  std::printf("curare_serve: drained, exiting\n");
  return curare::serve::kExitOk;
}
