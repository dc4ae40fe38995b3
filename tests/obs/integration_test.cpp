// End-to-end observability: a real CRI run under a Runtime with the
// tracer on must produce metrics and a speedup-report row that are
// consistent with the run's own CriStats, and lock contention must be
// visible in the lock aggregates.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "lisp/interp.hpp"
#include "obs/recorder.hpp"
#include "runtime/runtime.hpp"
#include "sexpr/reader.hpp"

namespace curare::runtime {
namespace {

using sexpr::Value;

class ObsIntegrationTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  lisp::Interp in{ctx};
  Runtime rt{in, 2};

  void SetUp() override {
    rt.install();
    rt.obs().tracer.set_enabled(true);
  }
};

TEST_F(ObsIntegrationTest, CriRunAggregatesMatchStats) {
  in.eval_program(
      "(setq hits 0)"
      "(defun walk$cri (l)"
      "  (when l"
      "    (%locked-update-var 'hits (lambda (%old) (+ %old 1)))"
      "    (%cri-enqueue 0 (cdr l))))");
  std::string list = "(";
  for (int i = 0; i < 300; ++i) list += "x ";
  list += ")";
  CriStats stats = rt.run_cri(in.global("walk$cri"), 1, 4,
                              {sexpr::read_one(ctx, list)});

  EXPECT_EQ(stats.invocations, 301u);
  EXPECT_EQ(stats.enqueues, 300u);
  EXPECT_GT(stats.wall_ns, 0u);
  ASSERT_EQ(stats.busy_ns.size(), 4u);
  ASSERT_EQ(stats.idle_ns.size(), 4u);
  ASSERT_EQ(stats.tasks_per_server.size(), 4u);

  // Tasks are conserved across servers.
  std::uint64_t tasks = 0;
  for (std::uint64_t n : stats.tasks_per_server) tasks += n;
  EXPECT_EQ(tasks, stats.invocations);

  // Head+tail is measured inside the busy spans.
  EXPECT_GT(stats.head_ns, 0u);
  EXPECT_LE(stats.head_ns + stats.tail_ns, stats.busy_ns_total());
  // Each server's busy+idle is bounded by the wall time it lived.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LE(stats.busy_ns[i], stats.wall_ns);
  }
  EXPECT_GT(stats.utilization(), 0.0);
  EXPECT_LE(stats.utilization(), 1.0);

  obs::Recorder& rec = rt.obs();
  // Metrics mirror the stats.
  EXPECT_EQ(rec.metrics.counter("cri.invocations").get(),
            stats.invocations);
  EXPECT_EQ(rec.metrics.counter("cri.enqueues").get(), stats.enqueues);
  EXPECT_EQ(rec.metrics.counter("cri.head_ns").get(), stats.head_ns);
  EXPECT_EQ(rec.metrics.counter("cri.busy_ns").get(),
            stats.busy_ns_total());
  EXPECT_EQ(rec.metrics.histogram("cri.queue_depth").count(),
            stats.enqueues);

  // Every %locked-update-var takes the variable's lock once.
  EXPECT_EQ(rec.metrics.counter("lock.acquisitions").get(), 300u);
  // Contended acquisitions, if any, all recorded a wait time.
  EXPECT_EQ(rec.metrics.counter("lock.contended").get(),
            rec.metrics.histogram("lock.wait_ns").count());

  // One speedup-report row, consistent with the stats.
  const auto runs = rec.speedup.runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].label, "walk$cri");
  EXPECT_EQ(runs[0].servers, 4u);
  EXPECT_EQ(runs[0].invocations, stats.invocations);
  EXPECT_EQ(runs[0].wall_ns, stats.wall_ns);
  EXPECT_EQ(runs[0].head_ns, stats.head_ns);

  // The trace saw server threads and task events.
  EXPECT_GE(rt.obs().tracer.thread_count(), 2u);
  const std::string json = rec.tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"cri-task\""), std::string::npos);
  EXPECT_NE(json.find("\"cri-enqueue\""), std::string::npos);
  EXPECT_NE(json.find("\"lock-acquire\""), std::string::npos);
  EXPECT_NE(json.find("cri-server-0"), std::string::npos);
}

TEST_F(ObsIntegrationTest, TracerOffStillCollectsMetrics) {
  rt.obs().tracer.set_enabled(false);
  in.eval_program("(defun g$cri (l) (when l (%cri-enqueue 0 (cdr l))))");
  CriStats stats = rt.run_cri(in.global("g$cri"), 1, 2,
                              {sexpr::read_one(ctx, "(1 2 3 4)")});
  EXPECT_EQ(stats.invocations, 5u);
  EXPECT_GT(stats.wall_ns, 0u);
  EXPECT_EQ(rt.obs().tracer.events_recorded(), 0u);
  EXPECT_EQ(rt.obs().metrics.counter("cri.invocations").get(), 5u);
}

TEST_F(ObsIntegrationTest, EarlyFinishEmitsEvent) {
  in.eval_program(
      "(defun find$cri (l)"
      "  (when l"
      "    (if (eq (car l) 'needle) (%cri-finish (car l))"
      "      (%cri-enqueue 0 (cdr l)))))");
  CriStats stats =
      rt.run_cri(in.global("find$cri"), 1, 2,
                 {sexpr::read_one(ctx, "(a b needle c d)")});
  EXPECT_TRUE(stats.finished_early);
  EXPECT_NE(rt.obs().tracer.chrome_trace_json().find("early-finish"),
            std::string::npos);
}

TEST_F(ObsIntegrationTest, FullReportMentionsEverySection) {
  in.eval_program("(defun r$cri (l) (when l (%cri-enqueue 0 (cdr l))))");
  rt.run_cri(in.global("r$cri"), 1, 2, {sexpr::read_one(ctx, "(1 2)")});
  const std::string rep = obs::full_report(rt.obs());
  EXPECT_NE(rep.find("measured vs predicted"), std::string::npos);
  EXPECT_NE(rep.find("r$cri"), std::string::npos);
  EXPECT_NE(rep.find("cri.invocations"), std::string::npos);
  EXPECT_NE(rep.find("trace:"), std::string::npos);
}

TEST_F(ObsIntegrationTest, FutureWaitMetricsProveBlockingWait) {
  // A future that takes real time: the toucher must block (not help —
  // the queue is empty once this task is picked up) and the wait-time
  // histogram must record roughly that long.
  in.define_builtin("slow", 0, 0,
                    [](lisp::Interp&, std::span<const Value>) {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(50));
                      return Value::fixnum(7);
                    });
  Value v = in.eval_program("(touch (spawn (lambda () (slow))))");
  EXPECT_EQ(v.as_fixnum(), 7);
  obs::Recorder& rec = rt.obs();
  EXPECT_EQ(rec.metrics.counter("future.spawned").get(), 1u);
  EXPECT_GE(rec.metrics.counter("future.touches").get(), 1u);
  ASSERT_EQ(rec.metrics.counter("future.touch_waits").get(), 1u);
  ASSERT_EQ(rec.metrics.histogram("future.wait_ns").count(), 1u);
  // Blocked for a large share of the 50ms sleep (generous slack: the
  // interpreter spends a few ms between the spawn and the touch, and a
  // loaded test host adds more). The lower bound proves the touch
  // really waited for completion rather than returning early.
  EXPECT_GE(rec.metrics.histogram("future.wait_ns").sum(), 20'000'000u);
  EXPECT_NE(rec.tracer.chrome_trace_json().find("future-touch-wait"),
            std::string::npos);
}

}  // namespace
}  // namespace curare::runtime
