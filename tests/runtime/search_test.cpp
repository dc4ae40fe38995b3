// Any-result parallel search (§3.2.3's third class) and the ordered
// multi-site queue behaviour (§4.1).
#include <gtest/gtest.h>

#include "runtime/runtime.hpp"
#include "runtime/task_queue.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"

namespace curare::runtime {
namespace {

using sexpr::Value;

class SearchTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  lisp::Interp in{ctx};
  Runtime rt{in, 4};

  void SetUp() override { rt.install(); }
};

TEST_F(SearchTest, FinishDeliversResultAndStopsEarly) {
  // Search a list for any even number; %cri-finish short-circuits.
  in.eval_program(
      "(defun find-even$cri (l)"
      "  (when l"
      "    (if (evenp (car l))"
      "        (%cri-finish (car l))"
      "        (%cri-enqueue 0 (cdr l)))))");
  Value fn = in.global("find-even$cri");
  CriStats stats =
      rt.run_cri(fn, 1, 3, {sexpr::read_one(ctx, "(1 3 5 8 9 11 13)")});
  EXPECT_TRUE(stats.finished_early);
  EXPECT_EQ(stats.result.as_fixnum(), 8);
  EXPECT_LT(stats.invocations, 8u)
      << "servers must stop before walking the whole list";
}

TEST_F(SearchTest, NoMatchRunsToCompletion) {
  in.eval_program(
      "(defun find-even$cri (l)"
      "  (when l"
      "    (if (evenp (car l))"
      "        (%cri-finish (car l))"
      "        (%cri-enqueue 0 (cdr l)))))");
  Value fn = in.global("find-even$cri");
  CriStats stats =
      rt.run_cri(fn, 1, 3, {sexpr::read_one(ctx, "(1 3 5 7)")});
  EXPECT_FALSE(stats.finished_early);
  EXPECT_TRUE(stats.result.is_nil());
}

TEST_F(SearchTest, FirstFinishWins) {
  // Tree search with two call sites: several servers may match at once;
  // exactly one result must come back and it must satisfy the predicate.
  in.eval_program(
      "(defun find-fix$cri (x)"
      "  (cond ((numberp x) (%cri-finish x))"
      "        ((consp x)"
      "         (%cri-enqueue 0 (car x))"
      "         (%cri-enqueue 1 (cdr x)))))");
  Value fn = in.global("find-fix$cri");
  CriStats stats = rt.run_cri(
      fn, 2, 4, {sexpr::read_one(ctx, "((a (b 1)) (2 c) (d (3)))")});
  EXPECT_TRUE(stats.finished_early);
  EXPECT_TRUE(stats.result.is_fixnum());
  const std::int64_t v = stats.result.as_fixnum();
  EXPECT_TRUE(v == 1 || v == 2 || v == 3) << v;
}

TEST_F(SearchTest, CriRunBuiltinReturnsSearchResult) {
  EXPECT_EQ(sexpr::write_str(in.eval_program(
                "(defun pick$cri (l)"
                "  (when l"
                "    (if (eq (car l) 'hit)"
                "        (%cri-finish 'found)"
                "        (%cri-enqueue 0 (cdr l)))))"
                "(%cri-run pick$cri 1 2 '(a b hit c))")),
            "found");
}

TEST_F(SearchTest, FinishOutsidePoolThrows) {
  EXPECT_THROW(in.eval_program("(%cri-finish 1)"), sexpr::LispError);
}

TEST_F(SearchTest, FinishWithNoValueDeliversNil) {
  in.eval_program(
      "(defun stop$cri (l) (%cri-finish))");
  CriStats stats =
      rt.run_cri(in.global("stop$cri"), 1, 2, {Value::nil()});
  EXPECT_TRUE(stats.finished_early);
  EXPECT_TRUE(stats.result.is_nil());
}

// ---- ordered multi-site queues (§4.1) ----------------------------------
//
// One lane, the shape of an S=1 run: lane 0 is the only server's.

TEST(OrderedQueues, LowerSiteDrainsFirst) {
  OrderedTaskQueues q(3, 1);
  q.push(0, 2, {Value::fixnum(22)});
  q.push(0, 0, {Value::fixnum(1)});
  q.push(0, 1, {Value::fixnum(11)});
  q.push(0, 0, {Value::fixnum(2)});
  EXPECT_EQ((*q.pop(0))[0].as_fixnum(), 1);
  EXPECT_EQ((*q.pop(0))[0].as_fixnum(), 2);
  EXPECT_EQ((*q.pop(0))[0].as_fixnum(), 11);
  EXPECT_EQ((*q.pop(0))[0].as_fixnum(), 22);
}

TEST(OrderedQueues, CloseWakesWithEmpty) {
  OrderedTaskQueues q(1, 1);
  q.close();
  EXPECT_FALSE(q.pop(0).has_value());
  EXPECT_TRUE(q.closed());
}

TEST(OrderedQueues, DrainsRemainingAfterClose) {
  OrderedTaskQueues q(1, 1);
  q.push(0, 0, {Value::fixnum(1)});
  q.close();
  // Items already enqueued are still served before the kill token.
  EXPECT_TRUE(q.pop(0).has_value());
  EXPECT_FALSE(q.pop(0).has_value());
}

TEST(OrderedQueues, BadSiteThrows) {
  OrderedTaskQueues q(2, 1);
  EXPECT_THROW(q.push(0, 5, {}), sexpr::LispError);
}

TEST(OrderedQueues, MaxLengthHighWaterMark) {
  OrderedTaskQueues q(2, 1);
  q.push(0, 0, {});
  q.push(0, 1, {});
  q.push(0, 1, {});
  (void)q.pop(0);
  q.push(0, 0, {});
  EXPECT_EQ(q.max_length(), 3u);
}

}  // namespace
}  // namespace curare::runtime
