// In-process daemon tests: real TCP, real threads, one ServeDaemon per
// test. These are the serving layer's acceptance criteria — session
// isolation across ≥8 concurrent connections, structured deadline
// failures that don't take the daemon down, admission rejections, and
// graceful drain.
#include "serve/server.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/fault_injector.hpp"
#include "serve/client.hpp"
#include "serve/exit_codes.hpp"
#include "sexpr/ctx.hpp"

namespace serve = curare::serve;

namespace {

/// Reusable latch: all `expected` threads block in arrive_and_wait
/// until the last one arrives (std::barrier without the C++20 dance).
class Latch {
 public:
  explicit Latch(int expected) : expected_(expected) {}
  void arrive_and_wait() {
    std::unique_lock<std::mutex> g(mu_);
    if (++arrived_ >= expected_) {
      cv_.notify_all();
      return;
    }
    cv_.wait(g, [this] { return arrived_ >= expected_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int expected_;
  int arrived_ = 0;
};

struct DaemonFixture {
  curare::sexpr::Ctx ctx;
  serve::ServeDaemon daemon;

  explicit DaemonFixture(serve::ServeOptions opts = {})
      : daemon(ctx, std::move(opts)) {
    std::string err;
    EXPECT_TRUE(daemon.start(&err)) << err;
  }
  ~DaemonFixture() { daemon.shutdown(); }

  serve::ClientConnection connect() {
    serve::ClientConnection c;
    std::string err;
    EXPECT_TRUE(c.connect("127.0.0.1", daemon.port(), &err)) << err;
    return c;
  }
};

serve::Request eval_req(std::string program,
                        std::int64_t deadline_ms = 0) {
  serve::Request r;
  r.op = "eval";
  r.program = std::move(program);
  r.deadline_ms = deadline_ms;
  return r;
}

}  // namespace

TEST(Serve, EvalRoundTrip) {
  DaemonFixture f;
  auto conn = f.connect();
  auto resp = conn.request(eval_req("(+ 40 2)"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "ok");
  EXPECT_EQ(resp->result, "42");
  EXPECT_GE(resp->metrics.get_int("wall_us", -1), 0);
}

TEST(Serve, CapturesPrintedOutput) {
  DaemonFixture f;
  auto conn = f.connect();
  auto resp = conn.request(eval_req("(print (list 1 2)) 7"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "ok");
  EXPECT_EQ(resp->result, "7");
  EXPECT_NE(resp->output.find("(1 2)"), std::string::npos)
      << resp->output;
}

TEST(Serve, EightConcurrentSessionsAreIsolated) {
  serve::ServeOptions opts;
  opts.max_inflight = 16;
  DaemonFixture f(opts);

  constexpr int kSessions = 8;
  Latch all_connected(kSessions);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto conn = f.connect();
      // Hold all 8 connections open at once before any state lands,
      // so the sessions are genuinely concurrent, not sequential.
      all_connected.arrive_and_wait();
      const std::string mine = std::to_string(1000 + i);
      auto def = conn.request(
          eval_req("(setq session-x " + mine + ") session-x"));
      if (!def || def->status != "ok" || def->result != mine) {
        ++failures;
        return;
      }
      // Read back through a *separate* request on the same session —
      // must still be this session's value, whatever the other seven
      // sessions wrote to the same global name.
      auto readback = conn.request(eval_req("session-x"));
      if (!readback || readback->status != "ok" ||
          readback->result != mine) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Serve, TopLevelsDoNotLeakAcrossSessions) {
  DaemonFixture f;
  auto a = f.connect();
  auto b = f.connect();
  auto def = a.request(eval_req("(setq only-in-a 1) only-in-a"));
  ASSERT_TRUE(def.has_value());
  EXPECT_EQ(def->status, "ok");
  auto leak = b.request(eval_req("only-in-a"));
  ASSERT_TRUE(leak.has_value());
  EXPECT_EQ(leak->status, "error");
  EXPECT_NE(leak->error.find("unbound"), std::string::npos)
      << leak->error;
}

TEST(Serve, DeadlineKillsOnlyThatRequest) {
  DaemonFixture f;
  auto victim = f.connect();
  auto bystander = f.connect();

  // A bystander evaluating concurrently with the doomed request.
  std::thread by([&] {
    for (int i = 0; i < 5; ++i) {
      auto r = bystander.request(eval_req("(+ 1 2)"));
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->status, "ok");
    }
  });

  auto doomed = victim.request(eval_req(
      "(defun spin-forever (n) (spin-forever (+ n 1))) "
      "(spin-forever 0)",
      /*deadline_ms=*/250));
  by.join();
  ASSERT_TRUE(doomed.has_value());
  EXPECT_EQ(doomed->status, "deadline");
  EXPECT_NE(doomed->error.find("deadline exceeded"), std::string::npos)
      << doomed->error;

  // The victim's own connection (and session) survives its dead run.
  auto after = victim.request(eval_req("(* 6 7)"));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, "ok");
  EXPECT_EQ(after->result, "42");
}

TEST(Serve, OverloadedRejectionWhenSaturated) {
  serve::ServeOptions opts;
  opts.max_inflight = 1;
  opts.queue_limit = 0;  // reject instead of queueing
  DaemonFixture f(opts);

  auto hog = f.connect();
  auto bounced = f.connect();

  std::thread hogger([&] {
    // Occupies the single slot until its deadline fires.
    auto r = hog.request(eval_req(
        "(defun spin-forever (n) (spin-forever (+ n 1))) "
        "(spin-forever 0)",
        /*deadline_ms=*/1000));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, "deadline");
  });

  // Wait until the hog actually holds the slot — otherwise a bounce
  // request could take it first and the hog would be the one bounced —
  // then expect a bounce.
  const curare::obs::Gauge& inflight =
      f.daemon.runtime().obs().metrics.gauge("serve.inflight");
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (inflight.get() != 1 && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(inflight.get(), 1) << "the hog never took the slot";
  bool saw_overload = false;
  for (int i = 0; i < 200 && !saw_overload; ++i) {
    auto r = bounced.request(eval_req("(+ 1 1)"));
    ASSERT_TRUE(r.has_value());
    if (r->status == "overloaded") {
      saw_overload = true;
    } else {
      EXPECT_EQ(r->status, "ok");  // raced ahead of the hog
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  hogger.join();
  EXPECT_TRUE(saw_overload);
  EXPECT_EQ(serve::status_exit_code("overloaded"),
            serve::kExitOverloaded);

  // Slot free again: the same connection that was bounced now runs.
  auto ok = bounced.request(eval_req("(+ 2 2)"));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, "ok");
}

TEST(Serve, StatsOpReportsServeMetrics) {
  DaemonFixture f;
  auto conn = f.connect();
  ASSERT_TRUE(conn.request(eval_req("(+ 1 2)")).has_value());
  // A defun is a top-level form the VM hands to the tree-walker; the
  // call of the function it defines runs on bytecode.
  ASSERT_TRUE(
      conn.request(eval_req("(defun sq (x) (* x x)) (sq 3)")).has_value());
  serve::Request req;
  req.op = "stats";
  auto resp = conn.request(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "ok");
  EXPECT_NE(resp->result.find("measured vs predicted"),
            std::string::npos);
  EXPECT_NE(resp->result.find("serve.requests"), std::string::npos)
      << resp->result;
  EXPECT_NE(resp->result.find("serve.admitted"), std::string::npos);
  // The session's engine counters: a hot fallback would show here.
  EXPECT_EQ(resp->result.find("vm.compiled_entries = 0\n"),
            std::string::npos)
      << resp->result;
  EXPECT_EQ(resp->result.find("vm.fallback_entries = 0\n"),
            std::string::npos)
      << resp->result;
  EXPECT_NE(resp->result.find("vm.compiled_entries = "), std::string::npos);
  EXPECT_NE(resp->result.find("vm.fallback_entries = "), std::string::npos);
}

TEST(Serve, MalformedFramesGetProtocolErrors) {
  DaemonFixture f;
  auto conn = f.connect();
  serve::Request bad;
  bad.op = "no-such-op";
  auto resp = conn.request(bad);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "error");
  EXPECT_NE(resp->error.find("unknown op"), std::string::npos);
  // The connection survives a protocol error.
  auto ok = conn.request(eval_req("(+ 1 2)"));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, "ok");
}

TEST(Serve, GracefulDrainCancelsInFlight) {
  serve::ServeOptions opts;
  opts.drain_grace_ms = 100;
  DaemonFixture f(opts);
  auto conn = f.connect();

  // An unbounded request (no deadline): only the drain can end it.
  std::thread victim([&] {
    auto r = conn.request(eval_req(
        "(defun spin-forever (n) (spin-forever (+ n 1))) "
        "(spin-forever 0)"));
    // Either a structured stall response ("server draining") or a torn
    // connection if the write raced the socket teardown — both are
    // clean ends; a hang here is the failure mode this test exists for.
    if (r.has_value()) {
      EXPECT_EQ(r->status, "stall");
      EXPECT_NE(r->error.find("server draining"), std::string::npos)
          << r->error;
    }
  });

  // Give the request time to start executing, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  f.daemon.shutdown();
  victim.join();
  f.daemon.join();  // must have fully drained

  // A fresh connection must be refused (listen socket is gone).
  serve::ClientConnection late;
  std::string err;
  EXPECT_FALSE(late.connect("127.0.0.1", f.daemon.port(), &err));
}

TEST(Serve, StartRejectsAPortOutsideTheTcpRange) {
  // htons would truncate 70000 to 4464 and bind that port instead.
  curare::sexpr::Ctx ctx;
  for (int port : {-1, 65536, 70000}) {
    serve::ServeOptions opts;
    opts.port = port;
    serve::ServeDaemon daemon(ctx, opts);
    std::string err;
    EXPECT_FALSE(daemon.start(&err)) << "port " << port;
    EXPECT_NE(err.find("outside 0-65535"), std::string::npos) << err;
    EXPECT_EQ(daemon.port(), 0);
  }
}

TEST(Serve, ConnectRejectsAPortOutsideTheTcpRange) {
  for (int port : {-1, 0, 65536, 70000}) {
    serve::ClientConnection c;
    std::string err;
    EXPECT_FALSE(c.connect("127.0.0.1", port, &err)) << "port " << port;
    EXPECT_NE(err.find("outside 1-65535"), std::string::npos) << err;
    EXPECT_FALSE(c.connected());
  }
}

TEST(Serve, RestructureOpTransformsARecursiveDefun) {
  DaemonFixture f;
  auto conn = f.connect();
  serve::Request req;
  req.op = "restructure";
  req.name = "count-up";
  req.program =
      "(defun count-up (n acc) (if (< n 1) acc "
      "(count-up (- n 1) (+ acc 1))))";
  auto resp = conn.request(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "ok");
  EXPECT_NE(resp->result.find("count-up"), std::string::npos)
      << resp->result;
  // Restructure replies carry a breakdown too, with the transform
  // phase attributed to restructure_ns.
  const curare::serve::Json& bd = resp->metrics.get("breakdown");
  ASSERT_TRUE(bd.is_object()) << resp->metrics.dump();
  EXPECT_GT(bd.get_int("restructure_ns", -1), 0);
}

TEST(Serve, RequestIdIsEchoedOrMinted) {
  DaemonFixture f;
  auto conn = f.connect();
  serve::Request req = eval_req("(+ 1 2)");
  req.request_id = "my-req-007";
  auto resp = conn.request(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "ok");
  EXPECT_EQ(resp->metrics.get_string("request_id", ""), "my-req-007");
  const std::int64_t rid = resp->metrics.get_int("rid", 0);
  EXPECT_GT(rid, 0);

  // Without a client id the server mints one from the rid.
  auto anon = conn.request(eval_req("(+ 2 3)"));
  ASSERT_TRUE(anon.has_value());
  const std::int64_t rid2 = anon->metrics.get_int("rid", 0);
  EXPECT_GT(rid2, rid);  // rids are process-unique and monotone
  EXPECT_EQ(anon->metrics.get_string("request_id", ""),
            "r-" + std::to_string(rid2));
}

TEST(Serve, BreakdownComponentsSumNearWallTime) {
  DaemonFixture f;
  auto conn = f.connect();
  // A compute-heavy request (tens of ms of pure eval), so the phases
  // the breakdown tracks dominate the wall clock and fixed per-request
  // overhead (dispatch, JSON assembly) stays inside the 10% tolerance.
  auto resp = conn.request(eval_req(
      "(defun burn (n acc) (if (< n 1) acc (burn (- n 1) (+ acc n)))) "
      "(burn 120000 0)"));
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->status, "ok") << resp->error;
  const curare::serve::Json& bd = resp->metrics.get("breakdown");
  ASSERT_TRUE(bd.is_object()) << resp->metrics.dump();
  const std::int64_t wall = bd.get_int("wall_ns", 0);
  const std::int64_t parse = bd.get_int("parse_ns", -1);
  const std::int64_t eval = bd.get_int("eval_ns", -1);
  const std::int64_t admission = bd.get_int("admission_ns", -1);
  const std::int64_t restructure = bd.get_int("restructure_ns", -1);
  ASSERT_GT(wall, 0);
  EXPECT_GE(parse, 0);
  EXPECT_GT(eval, 0);
  EXPECT_GE(admission, 0);
  EXPECT_EQ(restructure, 0);  // plain eval has no transform phase
  // The disjoint phases must account for the request's wall time:
  // within 10% in either direction (lock_wait/gc_pause overlap eval,
  // so they are deliberately left out of the sum).
  const double sum =
      static_cast<double>(admission + parse + eval + restructure);
  EXPECT_GT(sum, 0.9 * static_cast<double>(wall))
      << "admission=" << admission << " parse=" << parse
      << " eval=" << eval << " wall=" << wall;
  EXPECT_LT(sum, 1.1 * static_cast<double>(wall));
}

TEST(Serve, MetricsOpExposesPromAndJson) {
  DaemonFixture f;
  auto conn = f.connect();
  ASSERT_TRUE(conn.request(eval_req("(+ 1 2)")).has_value());

  serve::Request prom;
  prom.op = "metrics";  // prom is the default format
  auto p = conn.request(prom);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->status, "ok");
  EXPECT_NE(p->result.find("# TYPE curare_serve_requests counter"),
            std::string::npos)
      << p->result;
  EXPECT_NE(p->result.find("curare_serve_request_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(p->result.find("curare_obs_trace_dropped"),
            std::string::npos);

  serve::Request json;
  json.op = "metrics";
  json.format = "json";
  auto j = conn.request(json);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->status, "ok");
  auto parsed = curare::serve::Json::parse(j->result);
  ASSERT_TRUE(parsed.has_value()) << j->result;
  EXPECT_NE(j->result.find("serve.requests"), std::string::npos);

  serve::Request bad;
  bad.op = "metrics";
  bad.format = "xml";
  auto b = conn.request(bad);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->status, "error");
  EXPECT_NE(b->error.find("unknown format"), std::string::npos);
}

TEST(Serve, TraceOpNeedsTheTracer) {
  DaemonFixture f;
  auto conn = f.connect();
  serve::Request req;
  req.op = "trace";
  auto resp = conn.request(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "error");
  EXPECT_NE(resp->error.find("--trace"), std::string::npos)
      << resp->error;
}

TEST(Serve, TraceOpExportsExactlyOneRequestsLane) {
  DaemonFixture f;
  f.daemon.runtime().obs().tracer.set_enabled(true);
  auto conn = f.connect();

  // Spans come from the runtime layers (CRI runs, futures, locks), so
  // drive the transformed workload through the shared pool.
  serve::Request def;
  def.op = "restructure";
  def.name = "count-up";
  def.program =
      "(defun count-up (n acc) (if (< n 1) acc "
      "(count-up (- n 1) (+ acc 1))))";
  auto defined = conn.request(def);
  ASSERT_TRUE(defined.has_value());
  ASSERT_EQ(defined->status, "ok") << defined->error;

  auto ran = conn.request(eval_req("(count-up$parallel 2 200 0)"));
  ASSERT_TRUE(ran.has_value());
  ASSERT_EQ(ran->status, "ok") << ran->error;
  const std::int64_t rid = ran->metrics.get_int("rid", 0);
  ASSERT_GT(rid, 0);

  // Default lane: the session's previous request (the trace op itself
  // runs under a newer rid).
  serve::Request trace;
  trace.op = "trace";
  auto lane = conn.request(trace);
  ASSERT_TRUE(lane.has_value());
  ASSERT_EQ(lane->status, "ok") << lane->error;
  auto parsed = curare::serve::Json::parse(lane->result);
  ASSERT_TRUE(parsed.has_value()) << lane->result;
  // rid is the last arg in each event, so the closing brace anchors
  // the match (rid 5 must not match inside rid 50).
  const std::string rid_key = "\"rid\":" + std::to_string(rid) + "}";
  EXPECT_NE(lane->result.find(rid_key), std::string::npos)
      << lane->result;
  // Every event in the export belongs to that lane: as many rid args
  // as events (one "rid": per event, all with the requested value).
  std::size_t any = 0, mine = 0;
  for (std::size_t pos = lane->result.find("\"rid\":");
       pos != std::string::npos;
       pos = lane->result.find("\"rid\":", pos + 1))
    ++any;
  for (std::size_t pos = lane->result.find(rid_key);
       pos != std::string::npos;
       pos = lane->result.find(rid_key, pos + 1))
    ++mine;
  EXPECT_GT(any, 0u);
  EXPECT_EQ(any, mine) << lane->result;

  // An explicit rid selects the same lane.
  serve::Request by_rid;
  by_rid.op = "trace";
  by_rid.rid = rid;
  auto same = conn.request(by_rid);
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(same->status, "ok");
  EXPECT_NE(same->result.find(rid_key), std::string::npos);
}

TEST(Serve, ConcurrentSessionsKeepObservabilityApart) {
  serve::ServeOptions opts;
  opts.max_inflight = 8;
  DaemonFixture f(opts);
  f.daemon.runtime().obs().tracer.set_enabled(true);

  constexpr int kSessions = 2;
  Latch both_ready(kSessions);
  struct PerSession {
    std::int64_t rid = 0;
    std::string request_id;
    std::int64_t eval_ns = -1;
    bool ok = false;
  };
  PerSession out[kSessions];
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto conn = f.connect();
      serve::Request def;
      def.op = "restructure";
      def.name = "count-up";
      def.program =
          "(defun count-up (n acc) (if (< n 1) acc "
          "(count-up (- n 1) (+ acc 1))))";
      if (auto d = conn.request(def); !d || d->status != "ok") return;
      both_ready.arrive_and_wait();
      // Both requests are in flight at once: each runs a CRI workload
      // of a different size under its own request identity.
      serve::Request req = eval_req(
          "(count-up$parallel 2 " + std::to_string(200 + 200 * i) +
          " 0)");
      req.request_id = "session-" + std::to_string(i);
      auto resp = conn.request(req);
      if (!resp || resp->status != "ok") return;
      PerSession& mine = out[i];
      mine.rid = resp->metrics.get_int("rid", 0);
      mine.request_id = resp->metrics.get_string("request_id", "");
      mine.eval_ns = resp->metrics.get("breakdown").get_int("eval_ns", -1);
      mine.ok = true;
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(out[0].ok);
  ASSERT_TRUE(out[1].ok);
  // Identities never bleed across concurrent sessions: distinct rids,
  // each reply carrying its own client-chosen id and a breakdown
  // measured for that request alone.
  EXPECT_NE(out[0].rid, out[1].rid);
  EXPECT_EQ(out[0].request_id, "session-0");
  EXPECT_EQ(out[1].request_id, "session-1");
  EXPECT_GT(out[0].eval_ns, 0);
  EXPECT_GT(out[1].eval_ns, 0);

  // Span isolation: each rid's trace lane contains only its own
  // events, even though both CRI runs shared the future pool.
  auto conn = f.connect();
  for (int i = 0; i < kSessions; ++i) {
    serve::Request trace;
    trace.op = "trace";
    trace.rid = out[i].rid;
    auto lane = conn.request(trace);
    ASSERT_TRUE(lane.has_value());
    ASSERT_EQ(lane->status, "ok") << lane->error;
    EXPECT_NE(lane->result.find(
                  "\"rid\":" + std::to_string(out[i].rid) + "}"),
              std::string::npos);
    EXPECT_EQ(lane->result.find(
                  "\"rid\":" +
                  std::to_string(out[(i + 1) % kSessions].rid) + "}"),
              std::string::npos)
        << "lane " << out[i].rid << " contains events from "
        << out[(i + 1) % kSessions].rid;
  }
}

// ---------------------------------------------------------------------------
// Resource governance (DESIGN.md §14): per-request quotas and fuel,
// heap watermarks, result caps, and the gc.alloc fault site — all
// observed end to end through the wire protocol. The acceptance bar is
// the runaway canary: a hostile program is clipped with a structured
// status while every other session keeps serving.
// ---------------------------------------------------------------------------

TEST(ServeResource, RunawayAllocationClippedWhileBystanderServes) {
  serve::ServeOptions opts;
  opts.max_inflight = 8;
  opts.mem_quota = 4ull << 20;  // 4 MiB per request
  DaemonFixture f(opts);

  auto victim = f.connect();
  auto bystander = f.connect();

  // The bystander evaluates concurrently with the runaway request.
  std::thread by([&] {
    for (int i = 0; i < 10; ++i) {
      auto r = bystander.request(eval_req("(+ 1 2)"));
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->status, "ok") << r->error;
    }
  });

  auto clipped = victim.request(eval_req("(while t (cons 1 2))"));
  by.join();
  ASSERT_TRUE(clipped.has_value());
  EXPECT_EQ(clipped->status, "resource-exhausted");
  EXPECT_NE(clipped->error.find("memory quota"), std::string::npos)
      << clipped->error;
  EXPECT_EQ(serve::status_exit_code(clipped->status),
            serve::kExitResourceExhausted);

  // The budget dies with the request: the victim's own session keeps
  // serving, with a fresh quota per request.
  auto after = victim.request(eval_req("(* 6 7)"));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, "ok");
  EXPECT_EQ(after->result, "42");

  // The clip is visible to operators: the quota counter moved.
  serve::Request m;
  m.op = "metrics";
  auto prom = victim.request(m);
  ASSERT_TRUE(prom.has_value());
  ASSERT_EQ(prom->status, "ok");
  EXPECT_NE(prom->result.find("curare_resource_exhausted_quota 1"),
            std::string::npos)
      << prom->result;
}

TEST(ServeResource, FuelClipsPureLoopOnBothEngines) {
  // `(while t 1)` never allocates, so the memory quota cannot stop it;
  // fuel rides the shared eval tick, which both engines pass through.
  // The VM compiles the bare loop; the `lambda` makes it refuse the
  // second form, which then runs on the tree-walker.
  for (const char* src : {"(while t 1)", "(progn (lambda ()) (while t 1))"}) {
    serve::ServeOptions opts;
    opts.fuel = 200000;
    DaemonFixture f(opts);
    auto conn = f.connect();

    auto clipped = conn.request(eval_req(src));
    ASSERT_TRUE(clipped.has_value());
    EXPECT_EQ(clipped->status, "resource-exhausted") << src;
    EXPECT_NE(clipped->error.find("fuel exhausted"), std::string::npos)
        << clipped->error;

    // Fresh budget per request: a cheap program still completes.
    auto ok = conn.request(eval_req("(+ 40 2)"));
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->status, "ok");
    EXPECT_EQ(ok->result, "42");
  }
}

TEST(ServeResource, HeapSoftShedCarriesRetryAfterHint) {
  serve::ServeOptions opts;
  opts.heap_soft = 1;  // daemon startup already grew past one byte
  opts.retry_after_ms = 123;
  DaemonFixture f(opts);
  auto conn = f.connect();

  // Allocating ops shed with the structured overload + backoff hint...
  auto shed = conn.request(eval_req("(+ 1 2)"));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, "overloaded");
  EXPECT_NE(shed->error.find("soft watermark"), std::string::npos)
      << shed->error;
  EXPECT_EQ(shed->retry_after_ms, 123);

  // ...while observability ops pass, so an operator can still see the
  // pressure they are being asked to diagnose.
  serve::Request ping;
  ping.op = "ping";
  auto pong = conn.request(ping);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->status, "ok");

  serve::Request m;
  m.op = "metrics";
  auto prom = conn.request(m);
  ASSERT_TRUE(prom.has_value());
  ASSERT_EQ(prom->status, "ok");
  EXPECT_NE(prom->result.find("curare_resource_shed_heap_soft"),
            std::string::npos);
}

TEST(ServeResource, HeapHardWatermarkFailsTheAllocatingRequest) {
  serve::ServeOptions opts;
  opts.heap_hard = 1ull << 20;  // far below what a runaway needs
  DaemonFixture f(opts);
  auto conn = f.connect();

  auto failed = conn.request(eval_req("(while t (cons 1 2))"));
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->status, "resource-exhausted");
  EXPECT_NE(failed->error.find("hard watermark"), std::string::npos)
      << failed->error;
}

TEST(ServeResource, ResultCapConvertsOversizedReplies) {
  serve::ServeOptions opts;
  opts.result_cap = 64;
  DaemonFixture f(opts);
  auto conn = f.connect();

  std::string big = "(list";
  for (int i = 0; i < 40; ++i) big += " " + std::to_string(100 + i);
  big += ")";
  auto capped = conn.request(eval_req(big));
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(capped->status, "resource-exhausted");
  EXPECT_NE(capped->error.find("result"), std::string::npos)
      << capped->error;
  EXPECT_TRUE(capped->result.empty()) << "the oversized payload must "
                                         "not ride the error reply";

  auto small = conn.request(eval_req("(+ 1 2)"));
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->status, "ok");
  EXPECT_EQ(small->result, "3");
}

TEST(ServeResource, EightSessionsIsolatedWhileOneRunsAway) {
  // The 8-session isolation suite, with a hostile twist: one session
  // burns its quota on a runaway cons loop while the other seven do
  // the setq/readback dance. The clip must not perturb anyone's
  // session state — including the runaway's own.
  serve::ServeOptions opts;
  opts.max_inflight = 16;
  opts.mem_quota = 2ull << 20;
  DaemonFixture f(opts);

  constexpr int kSessions = 8;
  Latch all_connected(kSessions);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::atomic<int> clips{0};
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto conn = f.connect();
      all_connected.arrive_and_wait();
      if (i == 0) {
        auto r = conn.request(eval_req("(while t (cons 1 2))"));
        if (r && r->status == "resource-exhausted") ++clips;
      }
      const std::string mine = std::to_string(1000 + i);
      auto def = conn.request(
          eval_req("(setq session-x " + mine + ") session-x"));
      if (!def || def->status != "ok" || def->result != mine) {
        ++failures;
        return;
      }
      auto readback = conn.request(eval_req("session-x"));
      if (!readback || readback->status != "ok" ||
          readback->result != mine) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(clips.load(), 1) << "the runaway must have been clipped";
}

TEST(ServeResource, GcAllocFaultDuringDaemonSetUpIsAStartError) {
  // Building the daemon's host interpreter allocates; every allocation
  // throws here. The failure must come back from open() as an error
  // string, and the heap must still host a working daemon afterwards.
  struct InjectorGuard {
    ~InjectorGuard() {
      curare::runtime::FaultInjector::instance().disable();
    }
  } guard;
  using FI = curare::runtime::FaultInjector;
  curare::sexpr::Ctx ctx;

  FI::instance().configure(
      0xA110C, 1.0, FI::kThrow,
      1u << static_cast<unsigned>(FI::Site::kGcAlloc));
  std::string err;
  auto failed = serve::ServeDaemon::open(ctx, {}, &err);
  FI::instance().disable();
  EXPECT_EQ(failed, nullptr);
  EXPECT_NE(err.find("daemon set-up failed"), std::string::npos) << err;
  EXPECT_NE(err.find("fault injected at gc.alloc"), std::string::npos)
      << err;

  auto daemon = serve::ServeDaemon::open(ctx, {}, &err);
  ASSERT_NE(daemon, nullptr) << err;
  serve::ClientConnection conn;
  ASSERT_TRUE(conn.connect("127.0.0.1", daemon->port()));
  auto resp = conn.request(eval_req("(+ 40 2)"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "ok");
  EXPECT_EQ(resp->result, "42");
  daemon->shutdown();
}

TEST(ServeResource, GcAllocChaosYieldsStructuredErrorsSessionsSurvive) {
  // The quota's throw path shares its unwind with the gc.alloc fault
  // site; here the injector drives that path at random mid-request
  // points across 8 concurrent sessions. Every reply must be a
  // structured frame (ok or error), and every session must still
  // serve once the chaos stops.
  struct InjectorGuard {
    ~InjectorGuard() {
      curare::runtime::FaultInjector::instance().disable();
    }
  } guard;
  using FI = curare::runtime::FaultInjector;

  serve::ServeOptions opts;
  opts.max_inflight = 16;
  DaemonFixture f(opts);

  constexpr int kSessions = 8;
  std::vector<serve::ClientConnection> conns;
  for (int i = 0; i < kSessions; ++i) {
    conns.push_back(f.connect());
    auto warm = conns.back().request(eval_req("(+ 1 1)"));
    ASSERT_TRUE(warm.has_value());
    ASSERT_EQ(warm->status, "ok");
  }

  FI::instance().configure(
      0xA110C, 0.02, FI::kThrow,
      1u << static_cast<unsigned>(FI::Site::kGcAlloc));

  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      for (int r = 0; r < 25; ++r) {
        auto resp = conns[i].request(eval_req(
            "(defun build (n) (if (> n 0) (cons n (build (- n 1))) "
            "nil)) (build 60) 7"));
        if (!resp) {
          ++bad;  // torn connection: the failure mode under test
          return;
        }
        if (resp->status != "ok" &&
            !(resp->status == "error" &&
              resp->error.find("fault injected") != std::string::npos)) {
          ++bad;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  FI::instance().disable();

  EXPECT_EQ(bad.load(), 0)
      << "every reply is a structured ok or fault-injected error";
  EXPECT_GT(FI::instance().stats(FI::Site::kGcAlloc).throws, 0u)
      << "the storm must actually have fired";

  // Chaos over: all eight sessions answer correctly again.
  for (int i = 0; i < kSessions; ++i) {
    auto after = conns[i].request(eval_req("(* 6 7)"));
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->status, "ok") << after->error;
    EXPECT_EQ(after->result, "42");
  }
}

TEST(ServeResource, GcAllocChaosAtSessionSetupCostsOnlyThatConnection) {
  // The test above warms its connections before the storm starts, so
  // it never exercises the other place gc.alloc can throw: inside
  // Session construction itself, where the interpreter's prelude
  // allocates before the request loop's catch ladder exists. A fault
  // there must cost exactly that connection — a structured last word,
  // then teardown — never the daemon (a real heap hard watermark
  // takes the same path).
  struct InjectorGuard {
    ~InjectorGuard() {
      curare::runtime::FaultInjector::instance().disable();
    }
  } guard;
  using FI = curare::runtime::FaultInjector;

  DaemonFixture f;

  // Every allocation faults: each cold connection's session setup
  // dies deterministically at its first prelude cons.
  FI::instance().configure(
      0x5E55, 1.0, FI::kThrow,
      1u << static_cast<unsigned>(FI::Site::kGcAlloc));

  int structured = 0;
  for (int i = 0; i < 6; ++i) {
    auto conn = f.connect();
    auto resp = conn.request(eval_req("(+ 1 2)"));
    if (!resp) continue;  // close raced the error frame: tolerated
    EXPECT_EQ(resp->status, "error");
    EXPECT_NE(resp->error.find("session setup failed"), std::string::npos)
        << resp->error;
    EXPECT_NE(resp->error.find("fault injected"), std::string::npos)
        << resp->error;
    ++structured;
  }
  EXPECT_GT(structured, 0)
      << "at least one setup failure must surface as a structured frame";
  EXPECT_GT(FI::instance().stats(FI::Site::kGcAlloc).throws, 0u);
  FI::instance().disable();

  // The daemon took six setup faults and is still fully alive.
  auto conn = f.connect();
  auto after = conn.request(eval_req("(* 6 7)"));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, "ok") << after->error;
  EXPECT_EQ(after->result, "42");
}

TEST(ServeResource, RetryPolicyIsDeterministicAndHonorsHints) {
  serve::RetryPolicy a(3, 100, 42);
  serve::RetryPolicy b(3, 100, 42);
  serve::RetryPolicy other(3, 100, 43);

  bool any_diff = false;
  for (unsigned attempt = 0; attempt < 6; ++attempt) {
    const std::int64_t base = 100ll << attempt;
    const std::int64_t d = a.delay_ms(attempt, 0);
    // Same seed → the exact same schedule, call after call.
    EXPECT_EQ(d, b.delay_ms(attempt, 0));
    EXPECT_EQ(d, a.delay_ms(attempt, 0));
    // Exponential base with bounded jitter: [base, 1.5 * base].
    EXPECT_GE(d, base);
    EXPECT_LE(d, base + base / 2);
    if (d != other.delay_ms(attempt, 0)) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "different seeds must decorrelate a fleet";

  // A server hint replaces the doubling for that attempt: the daemon
  // knows when pressure recedes better than a blind backoff.
  const std::int64_t hinted = a.delay_ms(5, 40);
  EXPECT_GE(hinted, 40);
  EXPECT_LE(hinted, 60);

  // Degenerate configs stay sane: zero backoff yields zero delay.
  serve::RetryPolicy zero(1, 0, 7);
  EXPECT_EQ(zero.delay_ms(0, 0), 0);
  // Deep attempts clamp the shift instead of overflowing.
  EXPECT_GT(serve::RetryPolicy(40, 100, 7).delay_ms(39, 0), 0);
}
