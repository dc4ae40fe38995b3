// One serving session = one connection's isolated Lisp world.
//
// A Session owns a Curare driver constructed in shared-runtime mode:
// its own Interp and global Env (top-level defines in one session are
// invisible to every other), while the process-wide Runtime supplies
// the LockManager, FuturePool, Watchdog, and metrics — and the single
// sexpr::Ctx supplies the heap and symbol table, so GC and interning
// are shared across all sessions. The Interp constructor registers the
// session's environment chain as a GC root source, so session state
// survives collections triggered by any thread.
//
// handle() is the whole request state machine: it never throws — every
// failure mode (Lisp error, stall, deadline, reader error) becomes a
// structured Response. The caller installs the request's CancelState
// as the thread's current token *before* calling handle(), so the
// interpreter's eval polling and any CRI run chained under it observe
// the request deadline.
#pragma once

#include <cstdint>
#include <string>

#include "curare/curare.hpp"
#include "image/image.hpp"
#include "image/restructure_cache.hpp"
#include "runtime/resilience.hpp"
#include "serve/protocol.hpp"

namespace curare::serve {

class Session {
 public:
  /// Warm start: when `image` is non-null the session clones its world
  /// from it (bulk allocation + fixup) instead of evaluating anything.
  /// `cache` (may be null) is the process-wide restructure cache
  /// consulted by the restructure op.
  Session(std::uint64_t id, sexpr::Ctx& ctx,
          runtime::Runtime& shared_runtime,
          const image::SessionImage* image = nullptr,
          image::RestructureCache* cache = nullptr);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::uint64_t id() const { return id_; }
  std::uint64_t requests_handled() const { return requests_; }

  /// Cap on a reply's result+output bytes (0 = unlimited). An ok
  /// response that exceeds it is converted into a structured
  /// `resource-exhausted` failure — a reply must not balloon the
  /// session either (DESIGN.md §14).
  void set_result_cap(std::size_t bytes) { result_cap_ = bytes; }

  /// Execute one request. Pre: the caller has installed `tok` via
  /// CancelScope on this thread (handle only reads it to classify
  /// deadline vs. stall). Never throws.
  Response handle(const Request& req, runtime::CancelState* tok);

 private:
  Response do_eval(const Request& req);
  Response do_restructure(const Request& req);
  Response do_stats();
  Response do_metrics(const Request& req);
  Response do_trace(const Request& req);

  const std::uint64_t id_;
  Curare driver_;
  image::RestructureCache* cache_ = nullptr;
  std::size_t result_cap_ = 0;
  std::uint64_t requests_ = 0;
  /// rid of the previous request on this session — the default lane
  /// the `trace` op exports (the trace request has its own rid).
  std::uint64_t last_rid_ = 0;
};

}  // namespace curare::serve
