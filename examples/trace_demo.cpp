// Observability demo: run one recursion under the CRI server pool at
// several server counts with the tracer on, then
//
//   * write a Chrome trace-event JSON (trace_demo.json — open it in
//     Perfetto or chrome://tracing: per-server task spans, enqueue
//     instants, lock acquire/release, idle gaps);
//   * print the metrics registry (lock wait/contention, queue depths,
//     head vs tail time, busy/idle);
//   * print the measured-vs-predicted T(S) table from the §4.1 model
//     with the h and t the instrumentation actually measured.
//
// Self-checking (exits nonzero on failure) so it doubles as a smoke
// test: invocation counts must be exact, events must come from at
// least two server threads, and the exported JSON must be non-trivial.
#include <cstdio>
#include <fstream>
#include <string>

#include "curare/curare.hpp"
#include "obs/recorder.hpp"
#include "sexpr/reader.hpp"

using namespace curare;

namespace {

int fail(const char* what) {
  std::fprintf(stderr, "trace_demo FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main() {
  sexpr::Ctx ctx;
  Curare cur(ctx, 2);
  obs::Recorder& rec = cur.runtime().obs();
  rec.tracer.set_enabled(true);

  // A busy-work builtin so head/tail sizes are controllable (the
  // paper's h and t), same idea as the benches' `spin`.
  cur.interp().define_builtin(
      "spin", 1, 1, [](lisp::Interp&, std::span<const sexpr::Value> a) {
        volatile std::uint64_t acc = 0;
        for (std::int64_t i = 0; i < lisp::as_int(a[0]) * 64; ++i)
          acc += static_cast<std::uint64_t>(i) * 2654435761u;
        return sexpr::Value::nil();
      });

  // Hand-transformed server body: count down `n`, small head (the
  // enqueue side) and a larger tail — plus a lock-guarded shared
  // counter so the lock instrumentation has something to record.
  cur.interp().eval_program(
      "(setq total 0)"
      "(defun demo$cri (n)"
      "  (when (> n 0)"
      "    (spin 5)"
      "    (%cri-enqueue 0 (- n 1))"
      "    (spin 60)"
      "    (%locked-update-var 'total (lambda (%old) (+ %old 1)))))");
  sexpr::Value fn = cur.interp().global("demo$cri");

  // Deep enough that one run outlives the work-stealing scheduler's
  // first sleep slice (~1 ms): an idle server's desperate round can
  // only migrate the chain once it has slept that long, so a run
  // shorter than the slice legitimately stays on one server.
  const int depth = 4000;
  for (std::size_t servers : {1u, 2u, 4u}) {
    cur.interp().eval_program("(setq total 0)");
    runtime::CriStats stats = cur.runtime().run_cri(
        fn, 1, servers, {sexpr::Value::fixnum(depth)}, "demo$cri");
    if (stats.invocations != static_cast<std::uint64_t>(depth) + 1)
      return fail("invocation count != depth + 1");
    if (cur.interp().eval_program("total").as_fixnum() != depth)
      return fail("lock-guarded counter lost updates");
    if (stats.busy_ns.size() != servers)
      return fail("per-server busy vector has wrong size");
    if (stats.head_ns == 0 || stats.wall_ns == 0)
      return fail("measured head/wall time missing");
  }

  // The S=4 run must actually have spread work across servers. A
  // single-site queue holds at most ~1 pending task, and the
  // work-stealing scheduler deliberately leaves a consuming owner's
  // single in-flight task alone until a sleeper's desperate round —
  // so on a heavily loaded host one server can still win every
  // dequeue race; retry a few times before calling that a failure.
  auto active_servers = [&] {
    std::size_t active = 0;
    for (std::uint64_t n : cur.runtime().last_cri_stats().tasks_per_server)
      active += (n > 0);
    return active;
  };
  std::size_t active = active_servers();
  for (int attempt = 0; attempt < 10 && active < 2; ++attempt) {
    cur.interp().eval_program("(setq total 0)");
    cur.runtime().run_cri(fn, 1, 4, {sexpr::Value::fixnum(depth)},
                          "demo$cri");
    active = active_servers();
  }
  if (active < 2) return fail("work never left the first server");

  if (rec.tracer.thread_count() < 2)
    return fail("trace has events from fewer than 2 threads");
  if (rec.tracer.events_recorded() == 0) return fail("trace is empty");

  const std::string json = rec.tracer.chrome_trace_json();
  if (json.size() < 200 || json.find("\"cri-task\"") == std::string::npos ||
      json.find("\"lock-acquire\"") == std::string::npos)
    return fail("trace JSON lacks expected events");
  std::ofstream out("trace_demo.json");
  out << json;
  out.close();

  std::printf("wrote trace_demo.json (%zu events, %zu threads, "
              "%llu dropped)\n\n",
              rec.tracer.events_recorded(), rec.tracer.thread_count(),
              static_cast<unsigned long long>(rec.tracer.dropped()));
  std::printf("%s", obs::full_report(rec).c_str());
  std::printf("\ntrace_demo OK\n");
  return 0;
}
