// Shared helpers for the experiment benchmarks.
//
// The experiments need controllable invocation bodies: `spin` is a
// native busy-loop builtin with a calibrated per-unit cost, so a Lisp
// function's head/tail sizes (the paper's h and t) can be dialed in
// microseconds. All benches build their workloads through here.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "curare/curare.hpp"
#include "lisp/interp.hpp"
#include "sexpr/reader.hpp"

namespace curare::bench {

/// Busy-work sink: prevents the spin loop from being optimized away.
inline std::atomic<std::uint64_t> g_spin_sink{0};

/// Register (spin n): n units of busy work, each ~a few nanoseconds.
inline void install_spin(lisp::Interp& in) {
  in.define_builtin("spin", 1, 1,
                    [](lisp::Interp&, std::span<const sexpr::Value> a) {
                      const std::int64_t n = lisp::as_int(a[0]);
                      std::uint64_t acc = 0;
                      for (std::int64_t i = 0; i < n * 64; ++i)
                        acc += static_cast<std::uint64_t>(i) * 2654435761u;
                      g_spin_sink.fetch_add(acc,
                                            std::memory_order_relaxed);
                      return sexpr::Value::nil();
                    });
}

/// Build the source text of a fixnum list (1 2 … n).
inline std::string list_src(int n) {
  std::string s = "(";
  for (int i = 1; i <= n; ++i) s += std::to_string(i) + " ";
  s += ")";
  return s;
}

/// Build a countdown-only workload list of length n filled with `fill`.
inline std::string fill_list_src(int n, const std::string& fill) {
  std::string s = "(";
  for (int i = 0; i < n; ++i) s += fill + " ";
  s += ")";
  return s;
}

/// Wall-clock seconds of a callable.
template <typename F>
double time_s(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// CI smoke mode: CURARE_BENCH_SMOKE=1 shrinks iteration counts so the
/// harness just proves it runs, not that the numbers are stable.
inline bool smoke_mode() {
  const char* e = std::getenv("CURARE_BENCH_SMOKE");
  return e != nullptr && *e != '\0' && std::string_view(e) != "0";
}

/// Host facts for a JSON record, without braces:
/// `"cores":N,"build_type":"…"`. tools/bench_check.py refuses to
/// drift-compare records whose core counts differ.
inline std::string host_facts_json() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return "\"cores\":" + std::to_string(cores) +
         ",\"build_type\":\"" CURARE_BUILD_TYPE "\"";
}

/// Where machine-readable results go (JSON lines, one object per
/// record). bench_queue truncates it; later benches append.
inline const char* bench_json_path() {
  const char* e = std::getenv("CURARE_BENCH_JSON");
  return (e != nullptr && *e != '\0') ? e : "BENCH_scheduler.json";
}

}  // namespace curare::bench
