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
//   --stall-ms N        abort a CRI run in which no task completes for
//                       N ms, checked by the request thread joining
//                       the run (default 0 = off)
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
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include "args.hpp"
#include "obs/recorder.hpp"
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
      "                    [--stall-ms N]\n"
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
  curare::tools::RuntimeFlags rt;

  curare::tools::Args args(argc, argv);
  while (args.next()) {
    if (rt.parse(args) || args.port("--port", opts.port, 0) ||
        args.value("--port-file", port_file) ||
        args.value("--host", opts.host) ||
        args.count("--max-inflight", opts.max_inflight) ||
        args.count("--queue-limit", opts.queue_limit) ||
        args.count("--drain-grace-ms", opts.drain_grace_ms) ||
        args.bytes("--result-cap", opts.result_cap) ||
        args.count("--retry-after-ms", opts.retry_after_ms) ||
        args.value("--image-save", opts.image_save) ||
        args.value("--image-load", opts.image_load) ||
        args.count("--restructure-cache", opts.restructure_cache_cap))
      continue;
    std::string v;
    if (args.value("--prelude", v)) {
      std::ifstream in(v, std::ios::binary);
      if (!in) {
        curare::tools::usage_error("--prelude: cannot read '%s'\n",
                                   v.c_str());
      }
      opts.prelude_src.assign(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
    } else if (args.flag("--stats")) {
      stats = true;
    } else if (args.flag("--trace")) {
      trace = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", args.arg().c_str());
      return usage();
    }
  }
  opts.default_deadline_ms = rt.deadline_ms;
  opts.mem_quota = rt.mem_quota;
  opts.fuel = rt.fuel;
  opts.heap_soft = rt.heap_soft;
  opts.heap_hard = rt.heap_hard;

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return curare::serve::kExitError;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);  // torn clients are routine

  curare::sexpr::Ctx ctx;
  curare::serve::ServeDaemon daemon(ctx, opts);
  rt.apply(daemon.runtime());
  if (trace) daemon.runtime().obs().tracer.set_enabled(true);

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
