// Global bindings under concurrency: several threads assign, read,
// redefine and insert globals through both engines at once. Reads and
// writes of existing bindings take no lock (lisp/env.hpp), so this is
// the case that must stay exact — and race-free under TSan.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "gc/gc.hpp"
#include "lisp/interp.hpp"
#include "vm/vm.hpp"

namespace curare::vm {
namespace {

using sexpr::Value;

TEST(GlobalEnvConcurrency, SetqDefunAndInsertsStayExactOnBothEngines) {
  constexpr int kThreads = 4;
  constexpr int kIters = 150;
  constexpr int kStride = 100000;  // shared = thread * kStride + iteration
  sexpr::Ctx ctx;
  // Collections run mid-test, so the collector's walk of the global
  // frame overlaps inserts from the other threads.
  ctx.heap.gc().set_threshold(256 * 1024);
  lisp::Interp in(ctx);
  Vm vm(in);
  in.eval_program("(setq shared 0) (defun shared-fn () 7)");
  for (int t = 0; t < kThreads; ++t) {
    const std::string T = std::to_string(t);
    in.eval_program("(setq priv-" + T + " 0) (defun own-" + T + " () -1)");
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string T = std::to_string(t);
      const std::string other = std::to_string((t + 1) % kThreads);
      for (int i = 0; i < kIters; ++i) {
        const std::string I = std::to_string(i);
        // Alternate engines per iteration and per thread, so both run
        // against the same frame at every moment.
        const bool on_vm = (i + t) % 2 == 0;
        auto eval = [&](const std::string& src) {
          return on_vm ? vm.eval_program(src) : in.eval_program(src);
        };
        // A private global: this thread is its only writer.
        eval("(setq priv-" + T + " (+ priv-" + T + " 1))");
        // A shared global every thread writes: a read returns some
        // writer's whole value, never a torn or foreign one.
        eval("(setq shared " + std::to_string(t * kStride + i) + ")");
        const Value s = eval("shared");
        ASSERT_TRUE(s.is_fixnum());
        EXPECT_LT(s.as_fixnum() % kStride, kIters);
        EXPECT_LT(s.as_fixnum() / kStride, kThreads);
        // Redefinitions: this thread's own function, and one every
        // thread redefines to the same body.
        eval("(defun own-" + T + " () " + I + ")");
        EXPECT_EQ(eval("(own-" + T + ")").as_fixnum(), i);
        eval("(defun shared-fn () 7)");
        EXPECT_EQ(eval("(shared-fn)").as_fixnum(), 7);
        // A brand-new name per iteration: inserts grow the index while
        // the other threads probe it.
        eval("(setq fresh-" + T + "-" + I + " " + I + ")");
        EXPECT_EQ(eval("fresh-" + T + "-" + I).as_fixnum(), i);
        // Another thread's private global, read while it is written.
        const Value o = eval("priv-" + other);
        ASSERT_TRUE(o.is_fixnum());
        EXPECT_LE(o.as_fixnum(), kIters);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const std::string T = std::to_string(t);
    EXPECT_EQ(in.eval_program("priv-" + T).as_fixnum(), kIters);
    EXPECT_EQ(vm.eval_program("(own-" + T + ")").as_fixnum(), kIters - 1);
    for (int i = 0; i < kIters; ++i) {
      EXPECT_EQ(in.eval_program("fresh-" + T + "-" + std::to_string(i))
                    .as_fixnum(),
                i);
    }
  }
  const Value s = in.eval_program("shared");
  EXPECT_EQ(s.as_fixnum() % kStride, kIters - 1)
      << "the last write of some thread wins";
}

}  // namespace
}  // namespace curare::vm
