// The multi-session serving daemon.
//
// One ServeDaemon per process: it listens on a local TCP socket,
// spawns a thread per connection, and gives each connection a Session
// (own Interp + global Env) over the shared process infrastructure —
// one sexpr::Ctx (heap + symbols), one runtime::Runtime (lock manager,
// future pool, recorder). Request flow per frame:
//
//   read_frame → parse → mint CancelState (+deadline_ms)
//     → AdmissionTicket (bounded in-flight + bounded wait queue;
//        reject "overloaded" when both are full)
//     → CancelScope installs the token on this thread
//     → Session::handle (eval / restructure / stats / ping)
//     → write_frame(response)
//
// The request token chains into any CRI run the program starts
// (Runtime::run_cri_in reads current_cancel()), so a deadline or a
// drain cancels exactly that session's run; the daemon and every other
// session keep going.
//
// Graceful drain (SIGTERM → shutdown()):
//   1. stop accepting: the listen socket is shut down;
//   2. the admission controller closes — queued requests answer
//      "server draining", new frames on open connections too;
//   3. in-flight requests get drain_grace_ms to finish, then their
//      tokens are cancelled ("server draining") — they answer with a
//      structured stall response, not a dropped connection;
//   4. idle connections are shut down read-side so their reader
//      threads wake, all threads are joined, stats are flushed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "curare/curare.hpp"
#include "image/image.hpp"
#include "image/restructure_cache.hpp"
#include "lisp/interp.hpp"
#include "runtime/runtime.hpp"
#include "sexpr/ctx.hpp"
#include "serve/admission.hpp"

namespace curare::serve {

struct ServeOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read the bound one via port()
  std::size_t max_inflight = 8;
  std::size_t queue_limit = 32;
  /// Applied when a request carries no deadline_ms (0 = none).
  std::int64_t default_deadline_ms = 0;
  /// How long shutdown() waits for in-flight requests before
  /// cancelling their tokens.
  std::int64_t drain_grace_ms = 2000;

  // Resource governance (DESIGN.md §14); 0 disables each bound.
  /// Per-request GC-allocation quota in bytes; crossing it answers
  /// status="resource-exhausted" for exactly that request.
  std::uint64_t mem_quota = 0;
  /// Heap soft watermark: above it, eval/restructure admissions shed
  /// with "overloaded" + retry_after_ms and GC urgency is raised.
  std::uint64_t heap_soft = 0;
  /// Heap hard watermark: above it, in-flight allocations fail with
  /// ResourceExhausted instead of growing toward the OS OOM killer.
  std::uint64_t heap_hard = 0;
  /// Per-request eval fuel (tree steps / VM instructions).
  std::uint64_t fuel = 0;
  /// Cap on a reply's result+output bytes.
  std::size_t result_cap = 0;
  /// Backoff hint stamped on overloaded responses.
  std::int64_t retry_after_ms = 100;

  // Warm start (DESIGN.md §15).
  /// Program text evaluated once into a template session whose
  /// captured image every new session clones (the tool reads
  /// --prelude <file> into this).
  std::string prelude_src;
  /// Load the session image from this blob instead of evaluating the
  /// prelude; start() fails on a corrupt/version-skewed file.
  /// Takes precedence over prelude_src.
  std::string image_load;
  /// After building (or loading) an image, persist it here so a daemon
  /// restart skips prelude evaluation entirely.
  std::string image_save;
  /// Restructure-cache entry bound; 0 disables the cache.
  std::size_t restructure_cache_cap = 1024;
};

class ServeDaemon {
 public:
  ServeDaemon(sexpr::Ctx& ctx, ServeOptions opts);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Bind + listen + start the accept thread. False (with *err filled)
  /// on any socket failure; the daemon is then inert.
  bool start(std::string* err = nullptr);

  /// Construct and start() as one step. Every set-up failure comes back
  /// as nullptr with *err filled, the way a connection's session set-up
  /// failure comes back as a structured reply: a socket error, a bad
  /// image, or an allocation failure (a heap hard watermark, an injected
  /// gc.alloc fault) while building the host interpreter. The process
  /// keeps running and the shared heap stays usable.
  static std::unique_ptr<ServeDaemon> open(sexpr::Ctx& ctx,
                                           ServeOptions opts,
                                           std::string* err = nullptr);

  /// The bound port (valid after start()).
  int port() const { return port_; }

  /// Graceful drain as documented above. Idempotent; blocks until all
  /// connection threads have exited.
  void shutdown();

  /// Block until shutdown() has been called (from any thread) and the
  /// daemon has fully drained.
  void join();

  runtime::Runtime& runtime() { return runtime_; }

  /// The warm-start image sessions clone from (null when neither a
  /// prelude nor an image file was given).
  const image::SessionImage* session_image() const { return image_.get(); }
  image::RestructureCache* restructure_cache() {
    return restructure_cache_.get();
  }

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
    /// The in-flight request's token, if any (drain cancels it).
    std::shared_ptr<runtime::CancelState> active;
    std::mutex mu;  ///< guards `active` and the fd close/-1 teardown
  };

  void accept_loop();
  void serve_connection(Conn* conn, std::uint64_t session_id);
  void reap_finished();
  /// Build/load/save the session image per the warm-start options.
  /// Returns false (with *err filled) on a bad image file.
  bool prepare_image(std::string* err);

  sexpr::Ctx& ctx_;
  ServeOptions opts_;
  /// The runtime needs a host interpreter at construction; sessions
  /// never evaluate through it.
  lisp::Interp host_interp_;
  runtime::Runtime runtime_;
  AdmissionController admission_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> conn_ids_{0};

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;

  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  bool started_ = false;
  bool stopped_ = false;   ///< shutdown() entered
  bool drained_ = false;   ///< shutdown() finished; join() returns

  obs::Gauge& sessions_g_;
  obs::Counter& requests_c_;
  obs::Histogram& request_ns_h_;
  /// Admissions shed because the heap soft watermark was exceeded.
  obs::Counter& heap_shed_c_;
  /// used_bytes_estimate() sampled at each request's completion.
  obs::Gauge& heap_used_g_;
  /// Sampled at request start/end: the delta is the process-wide GC
  /// pause time overlapping the request (pauses stop every session's
  /// world, whoever triggered the collection).
  obs::Histogram& gc_pause_h_;
  /// Session construction wall time — image clone plus interpreter
  /// setup. This is the start-up number the warm-start work
  /// advertises (DESIGN.md §15).
  obs::Histogram& session_setup_ns_h_;

  std::unique_ptr<image::SessionImage> image_;
  std::unique_ptr<image::RestructureCache> restructure_cache_;
};

}  // namespace curare::serve
