// Low-overhead event tracer for the concurrent runtime.
//
// Every thread that emits gets its own fixed-capacity ring buffer of
// 48-byte events, so a hot server loop never contends with other
// emitters (the only possible contention is with an exporter draining
// the rings, which happens after the run). When the ring wraps, the
// oldest events are overwritten and counted in dropped() — a trace is a
// window onto the tail of the execution, never a stall. A Counter can
// be attached (set_drop_counter) to surface wraps as the
// `obs.trace.dropped` metric, so a truncated export is diagnosable
// from the stats report alone.
//
// Every event is stamped with the emitting thread's current request id
// (obs/request.hpp, 0 outside any request), so one request's spans can
// be cut out of the shared rings after the fact — that is the serve
// layer's `trace` op.
//
// The tracer is runtime-toggleable: emit() returns immediately while
// disabled, so instrumented code stays unconditionally wired.
//
// export: write_chrome_trace() produces the Chrome trace-event JSON
// format (the "traceEvents" array form), loadable in Perfetto or
// chrome://tracing. Span events use ph:"X" (complete events with
// microsecond ts/dur); point events use ph:"i" (instants).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace curare::obs {

enum class EventKind : std::uint8_t {
  kTaskRun,         // X  one CRI invocation    a0=server, a1=invocation#
  kTaskEnqueue,     // i  %cri-enqueue          a0=site,   a1=queue depth
  kServerIdle,      // X  server blocked in pop a0=server
  kLockWait,        // X  blocked acquiring     a0=key,    a1=exclusive
  kLockAcquire,     // i  lock granted          a0=key,    a1=exclusive
  kLockRelease,     // i  lock released         a0=key,    a1=exclusive
  kFutureSpawn,     // i  future created        a0=future#
  kFutureRun,       // X  future body executed  a0=future#
  kFutureTouchWait, // X  touch blocked         a1=tasks helped while waiting
  kEarlyFinish,     // i  %cri-finish delivered
  kGcPause,         // X  stop-the-world collection  a0=reclaimed objs, a1=bytes
};

/// Human name used in the exported trace.
const char* event_name(EventKind k);

struct TraceEvent {
  std::uint64_t ts_ns = 0;   ///< start, relative to the tracer's epoch
  std::uint64_t dur_ns = 0;  ///< 0 for instant events
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t rid = 0;     ///< request id active on the emitting thread
  EventKind kind = EventKind::kTaskRun;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity_per_thread = 1u << 16);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Nanoseconds since the tracer's construction (steady clock).
  std::uint64_t now_ns() const;

  /// Record an event; no-op while disabled. Timestamps are caller-
  /// provided so spans can be stamped with their measured start.
  void emit(EventKind k, std::uint64_t ts_ns, std::uint64_t dur_ns,
            std::uint64_t a0 = 0, std::uint64_t a1 = 0);

  /// Instant event stamped now.
  void instant(EventKind k, std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
    if (!enabled()) return;
    emit(k, now_ns(), 0, a0, a1);
  }

  /// Span from `start_ns` (a prior now_ns() reading) until now.
  void span(EventKind k, std::uint64_t start_ns, std::uint64_t a0 = 0,
            std::uint64_t a1 = 0) {
    if (!enabled()) return;
    const std::uint64_t end = now_ns();
    emit(k, start_ns, end > start_ns ? end - start_ns : 0, a0, a1);
  }

  /// Label the calling thread in the exported trace ("cri-server-3").
  void name_thread(const std::string& name);

  std::size_t capacity_per_thread() const { return capacity_; }
  /// Threads that have emitted (or named themselves) so far.
  std::size_t thread_count() const;
  /// Events currently held across all rings.
  std::size_t events_recorded() const;
  /// Events overwritten by ring wrap-around, across all threads.
  std::uint64_t dropped() const;
  /// Count every future wrap-overwrite into `c` as well (typically the
  /// `obs.trace.dropped` registry counter); nullptr detaches.
  void set_drop_counter(Counter* c) {
    drop_counter_.store(c, std::memory_order_release);
  }
  /// Forget all recorded events (rings stay registered).
  void clear();

  /// Chrome trace-event JSON ({"traceEvents":[...]}), ts/dur in µs.
  /// With `rid_filter` nonzero, only events stamped with that request
  /// id are exported — one request's lane out of the shared rings.
  void write_chrome_trace(std::ostream& os,
                          std::uint64_t rid_filter = 0) const;
  std::string chrome_trace_json(std::uint64_t rid_filter = 0) const;

 private:
  struct ThreadBuf {
    mutable std::mutex mu;  ///< uncontended except against an exporter
    std::vector<TraceEvent> ring;  ///< sized lazily on first emit
    std::uint64_t head = 0;  ///< total events ever emitted on the thread
    std::uint32_t tid = 0;
    std::string name;
  };

  ThreadBuf* local_buf();

  const std::size_t capacity_;
  const std::uint64_t id_;  ///< globally unique; guards stale TLS slots
  std::atomic<bool> enabled_{false};
  std::atomic<Counter*> drop_counter_{nullptr};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuf>> bufs_;
};

}  // namespace curare::obs
