// Bytecode VM tests: expression parity against the tree-walker, error
// parity (same messages from either engine), fallback coverage, tail
// calls, late binding, and the burned-in-builtin contract.
#include "vm/vm.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "gc/gc.hpp"
#include "lisp/interp.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"
#include "vm/compiler.hpp"

namespace curare::vm {
namespace {

using sexpr::write_str;

/// Result-or-error plus captured printer output of one program run.
struct Outcome {
  std::string result;
  std::string output;
  bool operator==(const Outcome&) const = default;
};

Outcome run_tree(std::string_view src) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Outcome o;
  try {
    o.result = write_str(in.eval_program(src));
  } catch (const sexpr::LispError& e) {
    o.result = std::string("error: ") + e.what();
  }
  o.output = in.take_output();
  return o;
}

Outcome run_vm(std::string_view src) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  Outcome o;
  try {
    o.result = write_str(vm.eval_program(src));
  } catch (const sexpr::LispError& e) {
    o.result = std::string("error: ") + e.what();
  }
  o.output = in.take_output();
  return o;
}

/// Both engines on fresh interpreters; everything observable equal.
void expect_parity(std::string_view src) {
  const Outcome tree = run_tree(src);
  const Outcome vm = run_vm(src);
  EXPECT_EQ(tree.result, vm.result) << "program: " << src;
  EXPECT_EQ(tree.output, vm.output) << "program: " << src;
}

TEST(VmParityTest, ExpressionBattery) {
  const char* programs[] = {
      "42",
      "nil",
      "t",
      "'sym",
      "'(1 2 3)",
      "\"str\"",
      "(+ 1 2)",
      "(+ 1 2 3 4)",
      "(- 7)",
      "(* 2.5 4)",
      "(if 0 'yes 'no)",
      "(if nil 1)",
      "(cond (nil 1) (7) (t 2))",
      "(when t 1 2 3)",
      "(unless t 'x)",
      "(and)",
      "(or)",
      "(and 1 nil 3)",
      "(or nil 2)",
      "(let ((x 1)) (let ((x 2) (y x)) y))",
      "(let* ((x 2) (y (+ x 1))) (* x y))",
      "(let ((x)) x)",
      "(let ((x 1) (x 2)) x)",
      "(progn 1 2 3)",
      "(progn)",
      "(setq a 1 b 2) (+ a b)",
      "(setq)",
      "(let ((c (cons 1 2))) (setf (car c) 9) c)",
      "(let ((l (list 1 2 3))) (setf (caddr l) 'z) l)",
      "(let ((i 0)) (while (< i 5) (setq i (+ i 1))) i)",
      "(dotimes (i 4) i)",
      "(let ((s 0)) (dotimes (i 5 s) (setq s (+ s i))))",
      "(let ((s 0)) (dolist (x '(1 2 3) s) (setq s (+ s x))))",
      "(dolist (x nil) x)",
      "(let ((n 3)) (incf n) (decf n 2) n)",
      "(let ((l '())) (push 'a l) (push 'b l) (list (pop l) l))",
      "(defun f (x &rest r) (cons x r)) (f 1 2 3)",
      "(defun g (x &optional y) (list x y)) (g 1)",
      "(defun g (x &optional y z) (list x y z)) (list (g 1) (g 1 2 3))",
      "(defun g (x &optional y &rest r) (list x y r)) "
      "(list (g 1) (g 1 2) (g 1 2 3 4))",
      "(defun g (x &optional y) (if (< x 1) y (g (- x 1)))) (g 3 'done)",
      "(declare (ignore x))",
      "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) "
      "(fib 15)",
      "((lambda (x y) (* x y)) 6 7)",
      "(funcall (lambda (x) (+ x 1)) 41)",
      "(eq 'a 'a)",
      "(equal '(1 2) '(1 2))",
      "(car nil)",
      "(cdr nil)",
      "(1+ 1.5)",
  };
  for (const char* p : programs) expect_parity(p);
}

TEST(VmParityTest, ErrorMessagesMatchTreeWalker) {
  const char* programs[] = {
      "no-such-var",
      "(no-such-fn 1)",
      "(3 4)",
      "(defun f (x) x) (f 1 2)",
      "(defun f (x &rest r) x) (f)",
      "(defun f (x &optional y) x) (f)",
      "(defun f (x &optional y) x) (f 1 2 3)",
      "(defun f (x &optional y &rest r) x) (f)",
      "(car 5)",
      "(cons 1)",
      "(+ 'a 1)",
      "(1+ 'a)",
      "(dotimes (i 'x) i)",
      "(setf (car 5) 1)",
      "(dolist (x 5) x)",
      "(let ((l (list 1))) (setf (cadr l) 2) l)",
      // Non-tail infinite recursion: both engines hit the depth limit
      // with the same message.
      "(defun inf (n) (+ 1 (inf n))) (inf 0)",
  };
  for (const char* p : programs) expect_parity(p);
}

TEST(VmTest, DeepTailRecursionStaysFlat) {
  const Outcome o = run_vm(
      "(defun lp (n) (if (< n 1) 'ok (lp (- n 1)))) (lp 200000)");
  EXPECT_EQ(o.result, "ok");
}

TEST(VmTest, MutualTailCallsThroughApply) {
  // even?/odd? tail-call each other: every hop reuses the frame via
  // kTailCall on a freshly compiled callee.
  const Outcome o = run_vm(
      "(defun ev (n) (if (< n 1) t (od (- n 1))))"
      "(defun od (n) (if (< n 1) nil (ev (- n 1))))"
      "(ev 100001)");
  EXPECT_EQ(o.result, "nil");
}

TEST(VmTest, RedefinedFunctionsAreLateBound) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  vm.eval_program("(defun base (x) (+ x 1)) (defun caller (x) (base x))");
  EXPECT_EQ(write_str(vm.eval_program("(caller 10)")), "11");
  vm.eval_program("(defun base (x) (* x 100))");
  EXPECT_EQ(write_str(vm.eval_program("(caller 10)")), "1000")
      << "user functions resolve through the environment on every call";
}

TEST(VmTest, CoreBuiltinsBurnInAtCompileTime) {
  // The documented contract (vm/compiler.hpp): a global that holds the
  // interpreter's own builtin at compile time is burned into the code
  // object. Shadowing `+` after `user-plus` compiled does not re-route
  // the compiled code; a function compiled after the shadowing sees
  // the new binding.
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  vm.eval_program("(defun user-plus (a b) (+ a b))");
  EXPECT_EQ(write_str(vm.eval_program("(user-plus 2 3)")), "5");
  vm.eval_program("(defun + (a b) 'shadowed)");
  EXPECT_EQ(write_str(vm.eval_program("(user-plus 2 3)")), "5")
      << "already-compiled code keeps the burned-in builtin";
  vm.eval_program("(defun late-plus (a b) (+ a b))");
  EXPECT_EQ(write_str(vm.eval_program("(late-plus 2 3)")), "shadowed")
      << "code compiled after the shadowing sees the new binding";
}

TEST(VmTest, RefusedFormsFallBackToTree) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  // defun itself refuses (top-level fallback); make-adder's body holds
  // a lambda so the closure caches a refusal and tree-walks on apply.
  const Value v = vm.eval_program(
      "(defun make-adder (k) (lambda (x) (+ x k)))"
      "(funcall (make-adder 5) 10)");
  EXPECT_EQ(write_str(v), "15");
  EXPECT_GT(vm.fallback_entries(), 0u)
      << "refused closures are counted as tree-walker entries";
}

TEST(VmTest, CompiledEntriesCountApplications) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  vm.eval_program("(defun sq (x) (* x x))");
  EXPECT_EQ(vm.compiled_entries(), 0u);
  // Applied through the hook (mapcar calls Interp::apply): every
  // application enters the VM.
  EXPECT_EQ(write_str(vm.eval_program("(mapcar sq '(1 2 3))")),
            "(1 4 9)");
  EXPECT_GT(vm.compiled_entries(), 0u);
}

TEST(VmTest, DisassembleNamesOpsAndConstants) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.eval_program("(defun f (x) (if (< x 2) 'small (1+ x)))");
  const auto fn = in.global_env()->lookup(ctx.symbols.intern("f"));
  ASSERT_TRUE(fn.has_value());
  ASSERT_TRUE(fn->is(sexpr::Kind::Closure));
  const CodeObject* code = nullptr;
  {
    gc::MutatorScope ms(ctx.heap.gc());
    code = vm.ensure_compiled(
        static_cast<const lisp::Closure*>(fn->obj()));
  }
  ASSERT_NE(code, nullptr);
  const std::string dis = code->disassemble();
  EXPECT_NE(dis.find("f (params 1"), std::string::npos) << dis;
  EXPECT_NE(dis.find("jump-if-nil"), std::string::npos) << dis;
  EXPECT_NE(dis.find("add1"), std::string::npos) << dis;
  EXPECT_NE(dis.find("return"), std::string::npos) << dis;
  EXPECT_NE(dis.find("small"), std::string::npos)
      << "constant-pool operands print as s-expressions: " << dis;
}

TEST(VmTest, CompileRefusalCarriesAReason) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  gc::MutatorScope ms(ctx.heap.gc());
  const Value form =
      sexpr::read_one(ctx, "(lambda (x) x)");
  const CompileResult r = compile_expr(in, form, in.global_env());
  EXPECT_EQ(r.code, nullptr);
  EXPECT_FALSE(r.why.empty());
}

}  // namespace
}  // namespace curare::vm
