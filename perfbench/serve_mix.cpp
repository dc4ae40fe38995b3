// Workload serve_mix: one operation is one request from one of
// C = min(4, nproc) closed-loop clients (each sends its next request
// only after the reply) to an in-process ServeDaemon whose sessions
// clone a prelude image.
//
// The request mix is an assumption: the repository holds no recorded
// serving traffic. Its one basis is bench_serve, whose clients send one
// CRI eval ($parallel at S=2) for every three plain evals. Here each
// client's cyclic list of 200 requests has exact shares:
//   40% plain VM evals (work loop of 200–2000 steps): the eval path;
//   20% list-allocating evals (a list of 50–400 cells): heap and GC;
//   25% short CRI evals (a restructured tally at S=2 over 50–200 cells):
//       bench_serve's one in four, CRI servers competing with evals;
//   15% restructure requests drawn from 12 corpus programs (corpus.hpp):
//       the analysis path and the restructure cache.
// Only the first C/2 clients (at least one) send CRI evals, so at most
// nproc CRI servers run at once; the others send plain evals instead
// (65%). The seed draws each size one per stratum of its range, the
// programs, and the order of each cycle.
//
// Every kSegmentsPerDaemon one-second segments of the measurement get a
// fresh daemon (the first one is started by set-up): a new heap, image,
// restructure cache and runtime, one session per client cloned from the
// image and warmed with one request of each kind. The collector keeps
// its default threshold; the list evals allocate enough for a daemon to
// reach it about once in its life.
// Sessions live as long as their daemon, for two reasons. On this code,
// closing a session while the collector runs leaves other sessions
// calling freed builtins. And a session keeps every form it was sent,
// so one that lived for the whole run would grow the heap and the
// collector's root set without bound. The restructure programs all
// define f and h0…h10 and carry no declaration forms, so after a
// client's first pass over its cycle its session's program state
// repeats and the restructure cache answers from its entries: misses
// first, hits after.
//
// Checks: every eval reply against the value its generator computed; a
// restructure reply against its template's verdict ("transformed 1 of
// 1" or "0 of 1").
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "corpus.hpp"
#include "curare/curare.hpp"
#include "gc_tally.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sexpr/printer.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

constexpr int kRequestsPerClient = 200;
constexpr int kRestructurePrograms = 12;
/// One-second segments a daemon serves before the next replaces it: long
/// enough for the collector, at its default threshold, to run about once
/// per daemon, short enough that the sessions' growth barely shows. The
/// schedule turns tracing on and off in pairs of segments to match.
constexpr std::size_t kSegmentsPerDaemon = 2;

constexpr const char* kPrelude = R"lisp(
(defun work (k)
  (let ((i 0) (a 0))
    (while (< i k) (setq a (+ a i)) (setq i (+ i 1)))
    a))
(defun iota (n)
  (let ((r nil))
    (while (> n 0) (setq r (cons n r)) (setq n (- n 1)))
    r))
(defun sum-list (l)
  (let ((s 0))
    (while l (setq s (+ s (car l))) (setq l (cdr l)))
    s))
(setq ptotal 0)
(defun ptally (l) (when l (ptally (cdr l)) (setq ptotal (+ ptotal (car l)))))
)lisp";

enum Kind { kPlain, kList, kCri, kRestructure, kKinds };

struct Req {
  Kind kind;
  curare::serve::Request req;
  std::string expect;  ///< eval: the printed result; restructure: a line
};

/// Sums over one client's replies, in nanoseconds.
struct Breakdown {
  static constexpr int kParts = 7;
  static constexpr const char* kKeys[kParts] = {
      "admission_ns", "parse_ns",     "eval_ns", "restructure_ns",
      "lock_wait_ns", "gc_pause_ns", "reply_ns"};
  static constexpr const char* kLayers[kParts] = {
      "serve.admission", "serve.parse",    "serve.eval", "serve.restructure",
      "serve.lock_wait", "serve.gc_pause", "serve.reply"};

  double n = 0;
  double parts[kParts] = {};
  double unattributed = 0;
  double connects = 0, connect_ns = 0;

  void add(const Breakdown& o) {
    n += o.n;
    for (int i = 0; i < kParts; ++i) parts[i] += o.parts[i];
    unattributed += o.unattributed;
    connects += o.connects;
    connect_ns += o.connect_ns;
  }
};

struct ClientOut {
  Measured m;
  Breakdown bd;
};

/// One daemon — its own heap, image, restructure cache and runtime —
/// with one open session per client.
struct Instance {
  std::unique_ptr<curare::sexpr::Ctx> ctx;
  std::unique_ptr<curare::serve::ServeDaemon> daemon;
  std::vector<curare::serve::ClientConnection> conns;

  ~Instance() {
    conns.clear();
    if (daemon) daemon->shutdown();
  }
};

class ServeMix final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    clients_ = static_cast<int>(std::min(4u, cores));
    cri_servers_ = std::min(2u, cores);
    prelude_ = kPrelude + restructured_ptally();
    cursor_.assign(static_cast<std::size_t>(clients_), 0);

    Rng rng(seed);
    std::vector<Program> programs;
    for (Program& p : make_corpus(rng, 2 * kTemplates))
      if (!p.declares) programs.push_back(std::move(p));
    programs.resize(kRestructurePrograms);
    for (int c = 0; c < clients_; ++c) {
      const bool cri = c < std::max(1, clients_ / 2);
      const int shares[kKinds] = {cri ? 40 : 65, 20, cri ? 25 : 0, 15};
      // Sizes (and programs) one per stratum of their range, so every
      // seed's cycle costs about the same.
      static constexpr std::int64_t kLo[kKinds] = {200, 50, 50, 0};
      static constexpr std::int64_t kHi[kKinds] = {
          2000, 400, 200, kRestructurePrograms - 1};
      std::vector<Req> reqs;
      for (int k = 0; k < kKinds; ++k)
        for (std::int64_t n : stratified(
                 rng, shares[k] * kRequestsPerClient / 100, kLo[k], kHi[k]))
          reqs.push_back(make_request(static_cast<Kind>(k), n, programs));
      rng.shuffle(reqs);
      mix_.push_back(std::move(reqs));
    }
    next_ = start_instance();
  }

  void run(const Schedule& sched, std::vector<Measured>& out) override {
    std::unique_ptr<Instance> inst;
    for (std::size_t seg = 0; seg < sched.segments(); ++seg) {
      if (seg % kSegmentsPerDaemon == 0) {
        inst.reset();
        inst = next_ ? std::move(next_) : start_instance();
        // Every session of the instance was cloned by now.
        const curare::obs::Histogram& clone =
            inst->daemon->runtime().obs().metrics.histogram("image.clone_ns");
        clone_ns_ += static_cast<double>(clone.sum());
        clones_ += static_cast<double>(clone.count());
      }
      const Counters c0 = counters(*inst);
      std::vector<ClientOut> outs(static_cast<std::size_t>(clients_));
      const std::uint64_t t0 = now_ns();
      const auto clients = static_cast<std::size_t>(clients_);
      parallel_for(clients + 1, [&](std::size_t c) {
        if (c < clients) {
          client(c, sched, seg, *inst, outs[c]);
          return;
        }
        // One more thread watches the collector: one pause per
        // collection seen (collections closer together than a poll are
        // averaged).
        curare::gc::GcHeap& gc = inst->ctx->heap.gc();
        curare::gc::GcStats g = gc.stats();
        while (now_ns() < sched.end(seg)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          const curare::gc::GcStats h = gc.stats();
          gc_.add(g, h);
          g = h;
        }
      });
      out[seg].busy_s = (now_ns() - t0) / 1e9;
      for (const ClientOut& o : outs) {
        out[seg].samples.insert(out[seg].samples.end(), o.m.samples.begin(),
                                o.m.samples.end());
        bd_.add(o.bd);
      }
      const Counters c1 = counters(*inst);
      for (std::size_t i = 0; i < c1.v.size(); ++i)
        totals_.v[i] += c1.v[i] - c0.v[i];
    }
  }

  void layer_metrics(MetricTable& m) override {
    const auto& t = totals_.v;
    const double runs = t[kCriRuns];
    m.set("runtime.utilization", per(t[kBusy], t[kBusy] + t[kIdle]),
          "ratio");
    m.set("runtime.idle_ms", per(t[kIdle] / 1e6, runs), "ms");
    m.set("runtime.sleeps", per(t[kSleeps], runs), "count");
    m.set("runtime.notify_suppressed", per(t[kSuppressed], runs), "count");
    m.set("runtime.steals", per(t[kSteals], runs), "count");
    m.set("runtime.head_us_mean", per(t[kHead] / 1e3, t[kInvocations]),
          "us");
    m.set("runtime.tail_us_mean", per(t[kTail] / 1e3, t[kInvocations]),
          "us");
    m.set("runtime.model_error_pct",
          t[kPredictedNs] > 0 ? (t[kWallNs] / t[kPredictedNs] - 1.0) * 100
                              : 0,
          "%");
    const double n = bd_.n;
    m.set("lock.wait_ms", per(t[kLockWait] / 1e6, n), "ms");
    m.set("lock.contended", per(t[kContended], n), "count");
    gc_.metrics(m);
    static constexpr const char* kNames[Breakdown::kParts] = {
        "serve.admission_ms", "serve.parse_ms",     "serve.eval_ms",
        "serve.restructure_ms", "serve.lock_wait_ms", "serve.gc_pause_ms",
        "serve.reply_ms"};
    for (int i = 0; i < Breakdown::kParts; ++i)
      m.set(kNames[i], per(bd_.parts[i] / 1e6, n), "ms");
    m.set("serve.unattributed_ms", per(bd_.unattributed / 1e6, n), "ms");
    m.set("serve.connect_ms", per(bd_.connect_ns / 1e6, bd_.connects), "ms");
    m.set("image.clone_ms", per(clone_ns_ / 1e6, clones_), "ms");
    m.set("image.cache_hit_ratio",
          per(t[kCacheHit], t[kCacheHit] + t[kCacheMiss]), "ratio");
  }

 private:
  /// Daemon-side counters of one instance, read before and after its
  /// segment.
  enum Counter {
    kBusy, kIdle, kHead, kTail, kInvocations, kCriRuns, kWallNs,
    kPredictedNs, kSleeps, kSuppressed, kSteals, kLockWait, kContended,
    kCacheHit, kCacheMiss, kCounters
  };
  struct Counters {
    std::vector<double> v = std::vector<double>(kCounters, 0.0);
  };

  static Counters counters(Instance& inst) {
    curare::obs::Recorder& rec = inst.daemon->runtime().obs();
    Counters c;
    auto get = [&](const char* name) {
      return static_cast<double>(rec.metrics.counter(name).get());
    };
    c.v[kBusy] = get("cri.busy_ns");
    c.v[kIdle] = get("cri.idle_ns");
    c.v[kHead] = get("cri.head_ns");
    c.v[kTail] = get("cri.tail_ns");
    c.v[kInvocations] = get("cri.invocations");
    for (const auto& row : rec.speedup.rows()) {
      c.v[kCriRuns] += 1;
      c.v[kWallNs] += static_cast<double>(row.run.wall_ns);
      c.v[kPredictedNs] += row.predicted_ns;
    }
    c.v[kSleeps] = get("cri.queue.sleeps");
    c.v[kSuppressed] = get("cri.queue.notify_suppressed");
    c.v[kSteals] = get("cri.queue.steals");
    c.v[kLockWait] =
        static_cast<double>(rec.metrics.histogram("lock.wait_ns").sum());
    c.v[kContended] = get("lock.contended");
    c.v[kCacheHit] = get("restructure.cache.hit");
    c.v[kCacheMiss] = get("restructure.cache.miss");
    return c;
  }

  /// A fresh daemon with every client's session open. Each session has
  /// sent one request of each kind its client uses, so the image clone
  /// and the first compiles are done before the clients start.
  std::unique_ptr<Instance> start_instance() {
    auto inst = std::make_unique<Instance>();
    inst->ctx = std::make_unique<curare::sexpr::Ctx>();
    curare::serve::ServeOptions opts;
    opts.max_inflight = static_cast<std::size_t>(clients_);
    opts.queue_limit = static_cast<std::size_t>(clients_) * 4;
    opts.prelude_src = prelude_;
    inst->daemon =
        std::make_unique<curare::serve::ServeDaemon>(*inst->ctx, opts);
    std::string err;
    if (!inst->daemon->start(&err))
      throw std::runtime_error("serve_mix: daemon start failed: " + err);
    inst->conns.resize(static_cast<std::size_t>(clients_));
    for (int c = 0; c < clients_; ++c) {
      curare::serve::ClientConnection& conn =
          inst->conns[static_cast<std::size_t>(c)];
      const std::uint64_t t0 = now_ns();
      if (!conn.connect("127.0.0.1", inst->daemon->port(), &err))
        throw std::runtime_error("serve_mix: connect failed: " + err);
      bd_.connects += 1;
      bd_.connect_ns += static_cast<double>(now_ns() - t0);
      bool seen[kKinds] = {};
      for (const Req& r : mix_[static_cast<std::size_t>(c)]) {
        if (seen[r.kind]) continue;
        seen[r.kind] = true;
        const auto resp = conn.request(r.req);
        if (!resp || resp->status != "ok")
          throw std::runtime_error("serve_mix: warm-up " + r.req.op +
                                   " failed");
      }
    }
    return inst;
  }

  /// The prelude's CRI entry point, produced by restructuring ptally
  /// once in a throwaway driver.
  static std::string restructured_ptally() {
    curare::sexpr::Ctx ctx;
    curare::Curare cur(ctx, 1);
    cur.load_program(kPrelude);
    const curare::TransformPlan plan = cur.transform("ptally");
    if (!plan.ok)
      throw std::runtime_error("serve_mix: ptally was not restructured: " +
                               plan.failure);
    curare::gc::MutatorScope ms(ctx.heap.gc());
    std::string s;
    for (curare::Value f : plan.forms) s += curare::sexpr::write_str(f) + "\n";
    return s;
  }

  /// A request of kind `k` with size `n` (for a restructure request,
  /// the index of its program).
  Req make_request(Kind k, std::int64_t n,
                   const std::vector<Program>& programs) const {
    Req r;
    r.kind = k;
    r.req.op = "eval";
    switch (k) {
      case kPlain:
        r.req.program = "(work " + std::to_string(n) + ")";
        r.expect = std::to_string(n * (n - 1) / 2);
        break;
      case kList:
        r.req.program = "(sum-list (iota " + std::to_string(n) + "))";
        r.expect = std::to_string(n * (n + 1) / 2);
        break;
      case kCri:
        r.req.program = "(setq ptotal 0) (ptally$parallel " +
                        std::to_string(cri_servers_) + " (iota " +
                        std::to_string(n) + ")) ptotal";
        r.expect = std::to_string(n * (n + 1) / 2);
        break;
      default: {
        const Program& p = programs[static_cast<std::size_t>(n)];
        r.req.op = "restructure";
        r.req.program = p.text;
        r.req.name = p.fn;
        r.expect = p.expect.ok ? "transformed 1 of 1 function(s)"
                               : "transformed 0 of 1 function(s)";
        break;
      }
    }
    return r;
  }

  /// Closed loop on the client's session until the segment ends; the
  /// cycle position carries over from segment to segment.
  void client(std::size_t c, const Schedule& sched, std::size_t seg,
              Instance& inst, ClientOut& o) {
    const std::vector<Req>& mix = mix_[c];
    std::size_t& cursor = cursor_[c];
    curare::serve::ClientConnection& conn = inst.conns[c];
    for (std::uint64_t now = now_ns(); now < sched.end(seg); now = now_ns()) {
      sched.begin_op(now);
      const Req& r = mix[cursor++ % mix.size()];
      const std::uint64_t op = next_op_.fetch_add(1) + 1;
      spans::Span op_span("serve.op", op);
      const std::uint64_t t0 = now_ns();
      std::optional<curare::serve::Response> resp;
      {
        spans::Span s("serve.request", op);
        resp = conn.request(r.req);
        const double wall = static_cast<double>(now_ns() - t0);
        if (resp) account(resp->metrics.get("breakdown"), wall, o.bd, s);
      }
      const bool ok = resp && resp->status == "ok" &&
                      (r.kind == kRestructure
                           ? resp->result.find(r.expect) != std::string::npos
                           : resp->result == r.expect);
      if (!ok) report(r, resp);
      o.m.samples.push_back(Sample{now_ns() - t0, ok});
    }
  }

  static void account(const curare::serve::Json& b, double wall,
                      Breakdown& bd, spans::Span& s) {
    if (!b.is_object()) return;
    double sum = 0;
    for (int i = 0; i < Breakdown::kParts; ++i) {
      const double ns = b.get(Breakdown::kKeys[i]).as_number(0);
      bd.parts[i] += ns;
      sum += ns;
      s.attribute(Breakdown::kLayers[i], static_cast<std::uint64_t>(ns));
    }
    bd.n += 1;
    bd.unattributed += std::max(0.0, wall - sum);
  }

  void report(const Req& r,
              const std::optional<curare::serve::Response>& resp) {
    std::lock_guard<std::mutex> g(log_mu_);
    if (mismatches_++ >= 3) return;
    std::fprintf(stderr,
                 "serve_mix: %s request failed: %.200s\n  status %s, "
                 "result '%.200s', error '%.200s', expected '%s'\n",
                 r.req.op.c_str(), r.req.program.c_str(),
                 resp ? resp->status.c_str() : "transport",
                 resp ? resp->result.c_str() : "",
                 resp ? resp->error.c_str() : "", r.expect.c_str());
  }

  int clients_ = 1;
  unsigned cri_servers_ = 1;
  std::string prelude_;
  std::vector<std::vector<Req>> mix_;
  std::vector<std::size_t> cursor_;  ///< per client, across segments
  std::unique_ptr<Instance> next_;   ///< started by set-up for segment 0
  std::atomic<std::uint64_t> next_op_{0};
  std::mutex log_mu_;
  int mismatches_ = 0;  // guarded by log_mu_

  Counters totals_;
  Breakdown bd_;
  GcTally gc_;
  double clone_ns_ = 0, clones_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix() {
  return std::make_unique<ServeMix>();
}

}  // namespace perfbench
