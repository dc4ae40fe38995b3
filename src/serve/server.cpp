#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "gc/gc.hpp"
#include "obs/request.hpp"
#include "serve/exit_codes.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace curare::serve {

ServeDaemon::ServeDaemon(sexpr::Ctx& ctx, ServeOptions opts)
    : ctx_(ctx),
      opts_(std::move(opts)),
      host_interp_(ctx),
      runtime_(host_interp_),
      admission_(opts_.max_inflight, opts_.queue_limit,
                 runtime_.obs().metrics),
      sessions_g_(runtime_.obs().metrics.gauge("serve.sessions")),
      requests_c_(runtime_.obs().metrics.counter("serve.requests")),
      request_ns_h_(
          runtime_.obs().metrics.histogram("serve.request_ns")),
      heap_shed_c_(
          runtime_.obs().metrics.counter("resource.shed.heap_soft")),
      heap_used_g_(
          runtime_.obs().metrics.gauge("resource.heap_used_bytes")),
      gc_pause_h_(
          runtime_.obs().metrics.histogram("cri.gc.pause_ns")),
      session_setup_ns_h_(
          runtime_.obs().metrics.histogram("serve.session_setup_ns")) {
  // The watermarks govern the shared heap, so they are daemon-wide
  // state armed once here (tests construct daemons directly; the
  // curare_serve tool only fills ServeOptions).
  ctx_.heap.gc().set_heap_limits(opts_.heap_soft, opts_.heap_hard);
  if (opts_.restructure_cache_cap > 0) {
    restructure_cache_ = std::make_unique<image::RestructureCache>(
        ctx_.heap.gc(), opts_.restructure_cache_cap);
    restructure_cache_->attach_metrics(runtime_.obs().metrics);
  }
}

bool ServeDaemon::prepare_image(std::string* err) {
  try {
    if (!opts_.image_load.empty()) {
      image_ = std::make_unique<image::SessionImage>(
          image::SessionImage::load_file(opts_.image_load));
    } else if (!opts_.prelude_src.empty()) {
      // Build the template session once, capture it, and let it die —
      // the blob holds no pointers into the template's heap objects,
      // which is exactly the relocatability the clone path relies on.
      Curare templ(ctx_, runtime_);
      templ.load_program(opts_.prelude_src);
      templ.interp().take_output();  // prelude prints stay out of replies
      image_ = std::make_unique<image::SessionImage>(
          image::SessionImage::capture(templ));
    }
    if (image_ && !opts_.image_save.empty())
      image_->save_file(opts_.image_save);
  } catch (const std::exception& e) {
    if (err != nullptr)
      *err = std::string("warm-start image: ") + e.what();
    image_.reset();
    return false;
  }
  return true;
}

ServeDaemon::~ServeDaemon() { shutdown(); }

std::unique_ptr<ServeDaemon> ServeDaemon::open(sexpr::Ctx& ctx,
                                               ServeOptions opts,
                                               std::string* err) {
  try {
    auto daemon = std::make_unique<ServeDaemon>(ctx, std::move(opts));
    if (daemon->start(err)) return daemon;
  } catch (const std::exception& e) {
    if (err != nullptr)
      *err = std::string("daemon set-up failed: ") + e.what();
  }
  return nullptr;
}

bool ServeDaemon::start(std::string* err) {
  // htons would silently truncate an out-of-range port to another one.
  if (opts_.port < 0 || opts_.port > 65535) {
    if (err != nullptr)
      *err = "port " + std::to_string(opts_.port) + " outside 0-65535";
    return false;
  }
  // Warm-start preparation before the socket exists: a daemon pointed
  // at a corrupt or version-skewed image must fail loudly at startup,
  // not serve sessions from half a heap.
  if (!prepare_image(err)) return false;

  auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton " + opts_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 64) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &blen) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
  {
    std::lock_guard<std::mutex> g(lifecycle_mu_);
    started_ = true;
  }
  return true;
}

void ServeDaemon::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown() shut the listen socket down; any other error on a
      // listening socket is equally terminal for the accept loop.
      break;
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    const std::uint64_t id =
        conn_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> g(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread =
        std::thread([this, raw, id] { serve_connection(raw, id); });
    reap_finished();
  }
}

void ServeDaemon::reap_finished() {
  std::vector<std::unique_ptr<Conn>> dead;
  {
    std::lock_guard<std::mutex> g(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        dead.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& c : dead) {
    if (c->thread.joinable()) c->thread.join();
  }
}

void ServeDaemon::serve_connection(Conn* conn, std::uint64_t session_id) {
  sessions_g_.add(1);
  try {
    // The Session's Interp registers with the GC and its destructor
    // drains the shared future pool, so scope it tighter than the
    // connection bookkeeping below. Construction is the session's
    // start-up cost — the image clone — charged to the session-setup
    // histogram the warm-start work is judged by.
    const auto t_setup0 = std::chrono::steady_clock::now();
    Session session(session_id, ctx_, runtime_, image_.get(),
                    restructure_cache_.get());
    session_setup_ns_h_.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t_setup0)
            .count()));
    session.set_result_cap(opts_.result_cap);
    std::string payload;
    // A reply's own socket write can't be part of the breakdown it
    // carries, so each response reports the *previous* reply's write
    // time on this connection (0 for the first).
    std::uint64_t last_reply_ns = 0;
    while (read_frame(conn->fd, payload)) {
      Response resp;
      std::optional<Request> req;
      if (auto parsed = Json::parse(payload)) {
        req = Request::from_json(*parsed);
      }
      if (!req) {
        resp = Response::fail(kStatusError,
                              "malformed request (want a JSON object "
                              "with an \"op\" field)");
        if (!write_frame(conn->fd, resp.to_json().dump())) break;
        continue;
      }

      // Mint this request's observability identity: a process-unique
      // rid (stamps tracer spans) plus the client's request_id (or a
      // generated one) echoed in the reply.
      auto rctx = std::make_shared<obs::RequestContext>();
      rctx->rid = obs::RequestContext::next_rid();
      rctx->request_id = !req->request_id.empty()
                             ? req->request_id
                             : "r-" + std::to_string(rctx->rid);
      // Fresh budgets per request: a clipped request never taxes its
      // session's next one. Every thread that captures this context
      // (CRI servers, future workers) draws down the same counters.
      rctx->mem_quota = opts_.mem_quota;
      rctx->fuel_limit = opts_.fuel;

      auto tok = std::make_shared<runtime::CancelState>();
      const std::int64_t deadline = req->deadline_ms > 0
                                        ? req->deadline_ms
                                        : opts_.default_deadline_ms;
      if (deadline > 0) tok->set_deadline_ms(deadline);
      {
        std::lock_guard<std::mutex> g(conn->mu);
        conn->active = tok;
      }

      const auto t0 = std::chrono::steady_clock::now();
      const std::uint64_t gc_pause0 = gc_pause_h_.sum();
      {
        // Scope covers admission too: queue wait is the first
        // breakdown component. CriRun/FuturePool capture the context
        // from this thread, so spans on their threads carry the rid.
        obs::RequestScope req_scope(rctx);
        gc::GcHeap& gc = ctx_.heap.gc();
        const bool allocating_op =
            req->op == "eval" || req->op == "restructure";
        if (allocating_op && gc.above_soft_watermark()) {
          // Heap pressure: shed before admission so the heap gets a
          // chance to recede — a collection is armed (urgency), the
          // client gets a structured hint instead of an OOM-killed
          // daemon, and cheap ops (ping, stats, metrics) still pass
          // so operators can observe the pressure.
          gc.request_collection();
          heap_shed_c_.add();
          resp = Response::fail(
              kStatusOverloaded,
              "server overloaded: heap soft watermark (" +
                  std::to_string(gc.used_bytes_estimate()) +
                  " byte(s) in use, soft limit " +
                  std::to_string(gc.soft_limit()) + ")");
          resp.retry_after_ms = opts_.retry_after_ms;
        } else {
          AdmissionTicket ticket(admission_, tok.get());
          switch (ticket.outcome()) {
            case AdmissionController::Outcome::kAdmitted: {
              runtime::CancelScope scope(tok.get());
              resp = session.handle(*req, tok.get());
              break;
            }
            case AdmissionController::Outcome::kOverloaded:
              resp = Response::fail(kStatusOverloaded,
                                    "server overloaded: admission queue "
                                    "full");
              resp.retry_after_ms = opts_.retry_after_ms;
              break;
            case AdmissionController::Outcome::kDeadline:
              resp = Response::fail(kStatusDeadline,
                                    "deadline exceeded while queued for "
                                    "admission");
              break;
            case AdmissionController::Outcome::kShutdown:
              resp = Response::fail(kStatusError, "server draining");
              break;
          }
        }
      }
      {
        std::lock_guard<std::mutex> g(conn->mu);
        conn->active.reset();
      }
      requests_c_.add();
      heap_used_g_.set(
          static_cast<std::int64_t>(ctx_.heap.gc().used_bytes_estimate()));
      const std::uint64_t wall_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      request_ns_h_.observe(wall_ns);

      if (!resp.metrics.is_object()) resp.metrics = Json(JsonObject{});
      JsonObject& m = resp.metrics.as_object();
      m["inflight"] =
          static_cast<std::int64_t>(admission_.inflight());
      m["queued"] = static_cast<std::int64_t>(admission_.queued());
      m["request_id"] = rctx->request_id;
      m["rid"] = rctx->rid;
      if (req->op == "eval" || req->op == "restructure") {
        const obs::Breakdown& bd = rctx->bd;
        auto ld = [](const std::atomic<std::uint64_t>& v) {
          return Json(v.load(std::memory_order_relaxed));
        };
        JsonObject b;
        b["admission_ns"] = ld(bd.admission_ns);
        b["parse_ns"] = ld(bd.parse_ns);
        b["eval_ns"] = ld(bd.eval_ns);
        b["restructure_ns"] = ld(bd.restructure_ns);
        b["lock_wait_ns"] = ld(bd.lock_wait_ns);
        b["gc_pause_ns"] = Json(gc_pause_h_.sum() - gc_pause0);
        b["reply_ns"] = Json(last_reply_ns);
        b["wall_ns"] = Json(wall_ns);
        m["breakdown"] = Json(std::move(b));
      }
      const auto t_reply0 = std::chrono::steady_clock::now();
      if (!write_frame(conn->fd, resp.to_json().dump())) break;
      last_reply_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t_reply0)
              .count());
    }
  } catch (const std::exception& e) {
    // Session setup itself can allocate (the interpreter's prelude
    // conses go through gc.alloc like any other), so an allocation
    // failure — a heap hard watermark, or the chaos injector proving
    // the path — can surface before the request loop's own catch
    // ladder exists. It costs this connection, never the daemon: send
    // a structured last word (best effort; the peer may already be
    // gone) and fall through to the normal teardown below.
    const Response resp = Response::fail(
        kStatusError, std::string("session setup failed: ") + e.what());
    write_frame(conn->fd, resp.to_json().dump());
  }
  sessions_g_.add(-1);
  {
    // Under the conn mutex: shutdown() reads fd to wake idle readers,
    // and closing outside the lock would let it act on a recycled
    // descriptor.
    std::lock_guard<std::mutex> g(conn->mu);
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true, std::memory_order_release);
}

void ServeDaemon::shutdown() {
  {
    std::lock_guard<std::mutex> g(lifecycle_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting: wake the accept thread out of accept(2).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Queued requests bounce with "server draining".
  admission_.close();

  // 3. Give in-flight requests the grace window, then cancel.
  const auto grace_end =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(opts_.drain_grace_ms);
  while (!admission_.idle() &&
         std::chrono::steady_clock::now() < grace_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!admission_.idle()) {
    std::lock_guard<std::mutex> g(conns_mu_);
    for (auto& c : conns_) {
      std::lock_guard<std::mutex> cg(c->mu);
      if (c->active) c->active->cancel("server draining");
    }
  }

  // 4. Wake idle readers: a read-side shutdown makes their blocked
  //    read return 0 without tearing a response that is mid-write.
  {
    std::lock_guard<std::mutex> g(conns_mu_);
    for (auto& c : conns_) {
      std::lock_guard<std::mutex> cg(c->mu);
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
    }
  }

  // 5. Join everything (threads close their own fds on exit).
  std::vector<std::unique_ptr<Conn>> all;
  {
    std::lock_guard<std::mutex> g(conns_mu_);
    all.swap(conns_);
  }
  for (auto& c : all) {
    if (c->thread.joinable()) c->thread.join();
  }

  {
    std::lock_guard<std::mutex> g(lifecycle_mu_);
    drained_ = true;
  }
  lifecycle_cv_.notify_all();
}

void ServeDaemon::join() {
  std::unique_lock<std::mutex> g(lifecycle_mu_);
  lifecycle_cv_.wait(g, [this] { return drained_; });
}

}  // namespace curare::serve
