// Property-based tests: randomly generated recursive list programs are
// pushed through the entire pipeline. Invariants:
//
//   P1  the analyzer never crashes and never reports a conflict for a
//       function with no writes;
//   P2  whenever the transformation succeeds, the parallel run under
//       several servers produces the same final structure as the
//       one-server run (conflict serializability w.r.t. the invocation
//       order — the paper's §3.1.1 criterion);
//   P3  transformation failures always carry §6 feedback text;
//   P4  head/tail sizes are consistent (every statement in exactly one
//       side, sizes positive for nonempty bodies);
//   P5  when the plan used no device (lock, delay, reorder), the value
//       returned at S=1 and at S=4 is the untransformed program's
//       (oracle.hpp). With a device, a captured tail value can depend on
//       the order of updates, so P2's final-state check is the bar.
//
// P2 and P5 run the restructured code through %cri-run (forced_cri.hpp):
// once a function is measured, its f$parallel entry may run the original
// defun instead (§4.1), and these properties are about the restructured
// code at S=1 and S=4.
//
// The generator composes bodies from a fixed grammar of reads, writes at
// bounded depths, counter updates, and a cdr-stepping recursive call —
// the shape family of the paper's Figures 3–5.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "curare/curare.hpp"
#include "forced_cri.hpp"
#include "oracle.hpp"
#include "sexpr/equal.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"

namespace curare {
namespace {

class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  /// A random traversal body statement.
  std::string statement() {
    switch (rng_() % 6) {
      case 0: return "(print (car l))";
      case 1: {
        const int k = static_cast<int>(rng_() % 3);
        return "(setf (nth " + std::to_string(k) +
               " l) (+ 1 (car l)))";
      }
      case 2: return "(incf gen-counter)";
      case 3: return "(setq gen-acc (+ gen-acc (car l)))";
      case 4: return "(print (length l))";
      default: {
        const int k = 1 + static_cast<int>(rng_() % 2);
        return "(setf (nth " + std::to_string(k) + " l) (car l))";
      }
    }
  }

  std::string function(const std::string& name) {
    std::ostringstream out;
    out << "(setq gen-counter 0) (setq gen-acc 0)";
    // Guard by the deepest write the statement grammar can produce
    // (nth 2), so no statement ever setfs past the end of the list.
    out << "(defun " << name << " (l) (when (nthcdr 3 l) ";
    const int pre = 1 + static_cast<int>(rng_() % 2);
    for (int i = 0; i < pre; ++i) out << statement() << " ";
    out << "(" << name << " (cdr l))";
    if (rng_() % 2 == 0) out << " " << statement();
    out << "))";
    return out.str();
  }

 private:
  std::mt19937_64 rng_;
};

std::string fixnum_list(int n) {
  std::string s = "(";
  for (int i = 1; i <= n; ++i) s += std::to_string(i) + " ";
  return s + ")";
}

class PropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySweep, PipelineInvariantsHold) {
  ProgramGen gen(GetParam());
  const std::string program = gen.function("gf");

  sexpr::Ctx ctx;
  Curare cur(ctx, 4);
  cur.load_program(program);

  // P1: analysis terminates; read-only functions are conflict-free.
  AnalysisReport report = cur.analyze("gf");
  bool has_write = false;
  for (const auto& r : report.info.refs) has_write |= r.is_write;
  for (const auto& v : report.info.var_refs) has_write |= v.is_write;
  if (!has_write) {
    EXPECT_TRUE(report.conflicts.conflicts.empty())
        << "no writes but conflicts reported for: " << program;
  }

  // P4: the partition covers the body.
  EXPECT_GT(report.headtail.head_size, 0u);
  for (const auto& s : report.headtail.stmts)
    EXPECT_EQ(s.in_tail, s.in_tail && !s.has_rec_call);

  // P2/P3: transform, then compare S=1 vs S=4 end states.
  TransformPlan plan = cur.transform("gf");
  if (!plan.ok) {
    EXPECT_FALSE(plan.failure.empty()) << program;
    return;
  }

  auto run_with = [&](std::size_t servers) {
    cur.interp().eval_program("(setq gen-counter 0) (setq gen-acc 0)");
    Value list = sexpr::read_one(ctx, fixnum_list(24));
    const Value args[] = {list};
    const std::string value =
        sexpr::write_str(forced::cri(cur, plan, args, servers));
    (void)cur.interp().take_output();
    return std::tuple<Value, std::int64_t, std::int64_t, std::string>(
        list, cur.interp().eval_program("gen-counter").as_fixnum(),
        cur.interp().eval_program("gen-acc").as_fixnum(), value);
  };

  auto [serial_list, serial_counter, serial_acc, serial_value] = run_with(1);
  auto [par_list, par_counter, par_acc, par_value] = run_with(4);

  EXPECT_TRUE(sexpr::equal_values(serial_list, par_list))
      << "final structure diverged for: " << program
      << "\n  serial: " << sexpr::write_str(serial_list)
      << "\n  parallel: " << sexpr::write_str(par_list);
  EXPECT_EQ(serial_counter, par_counter) << program;
  EXPECT_EQ(serial_acc, par_acc) << program;

  // P5: against the untransformed program.
  if (plan.locks_inserted == 0 && plan.delayed == 0 && plan.reordered == 0) {
    const std::string want = oracle::original_value(
        program, "(gf '" + fixnum_list(24) + ")");
    EXPECT_EQ(serial_value, want) << "S=1 value diverged for: " << program;
    EXPECT_EQ(par_value, want) << "S=4 value diverged for: " << program;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Range<std::uint64_t>(1, 33));

// The same sweep on a second grammar family: struct-based chains.
class StructPropertySweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StructPropertySweep, StructTraversalsStaySequentializable) {
  std::mt19937_64 rng(GetParam());
  const int write_depth = 1 + static_cast<int>(rng() % 2);
  std::string next_chain = "n";
  for (int i = 0; i < write_depth; ++i)
    next_chain = "(next " + next_chain + ")";

  std::ostringstream program;
  program
      << "(defstruct gnode (pointers next) (data payload))"
      << "(defun build (k)"
      << "  (if (= k 0) nil"
      << "      (make-gnode 'payload k 'next (build (- k 1)))))"
      << "(defun walk (n)"
      << "  (when " << next_chain << " "
      << "    (setf (payload " << next_chain << ") (payload n))"
      << "    (walk (next n))))";

  sexpr::Ctx ctx;
  Curare cur(ctx, 4);
  cur.load_program(program.str());

  TransformPlan plan = cur.transform("walk");
  ASSERT_TRUE(plan.ok) << plan.failure << " for " << program.str();
  ASSERT_TRUE(plan.concurrency_cap.has_value());
  EXPECT_EQ(*plan.concurrency_cap, write_depth);

  // walk has no tail, so after its first run its entry would run the
  // original: both runs are forced CRI runs (forced_cri.hpp).
  auto run_with = [&](std::size_t servers) {
    Value chain = cur.interp().eval_program("(build 20)");
    const Value args[] = {chain};
    forced::cri(cur, plan, args, servers);
    // Serialize payloads for comparison.
    std::string out;
    Value n = chain;
    while (!n.is_nil()) {
      const Value one[] = {n};
      out += sexpr::write_str(
                 cur.interp().apply(cur.interp().global("payload"), one)) +
             " ";
      const Value step[] = {n};
      n = cur.interp().apply(cur.interp().global("next"), step);
    }
    return out;
  };

  EXPECT_EQ(run_with(1), run_with(4)) << program.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructPropertySweep,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace curare
