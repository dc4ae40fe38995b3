// defstruct tests: the paper's user-defined structures with named
// fields, pointer/data classes, accessors, and setf places.
#include <gtest/gtest.h>

#include "lisp/interp.hpp"
#include "sexpr/printer.hpp"

namespace curare::lisp {
namespace {

class StructsTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  Interp in{ctx};

  std::string run(std::string_view src) {
    return sexpr::write_str(in.eval_program(src));
  }
};

TEST_F(StructsTest, DefineAndConstruct) {
  EXPECT_EQ(run("(defstruct node (pointers next prev) (data val))"),
            "node");
  EXPECT_EQ(run("(node-p (make-node))"), "t");
  EXPECT_EQ(run("(node-p 5)"), "nil");
  EXPECT_EQ(run("(node-p nil)"), "nil");
}

TEST_F(StructsTest, SlotsDefaultToNil) {
  run("(defstruct node (pointers next) (data val))");
  EXPECT_EQ(run("(next (make-node))"), "nil");
  EXPECT_EQ(run("(val (make-node))"), "nil");
}

TEST_F(StructsTest, PlistInitialization) {
  run("(defstruct node (pointers next) (data val))");
  EXPECT_EQ(run("(val (make-node 'val 42))"), "42");
  EXPECT_EQ(run("(let ((a (make-node 'val 1)))"
                "  (val (next (make-node 'next a 'val 2))))"),
            "1");
}

TEST_F(StructsTest, BareFieldsAreData) {
  run("(defstruct point x y)");
  EXPECT_EQ(run("(x (make-point 'x 3 'y 4))"), "3");
  EXPECT_EQ(run("(y (make-point 'x 3 'y 4))"), "4");
}

TEST_F(StructsTest, SetfSlotPlace) {
  run("(defstruct node (pointers next) (data val))");
  EXPECT_EQ(run("(let ((n (make-node)))"
                "  (setf (val n) 9)"
                "  (val n))"),
            "9");
  EXPECT_EQ(run("(let ((a (make-node)) (b (make-node 'val 7)))"
                "  (setf (next a) b)"
                "  (val (next a)))"),
            "7");
}

TEST_F(StructsTest, AccessorOnNilIsNil) {
  run("(defstruct node (pointers next))");
  EXPECT_EQ(run("(next nil)"), "nil")
      << "traversals end at nil, like car/cdr";
}

TEST_F(StructsTest, AccessorTypeChecked) {
  run("(defstruct node (pointers next))");
  run("(defstruct leaf (data weight))");
  EXPECT_THROW(run("(next (make-leaf))"), sexpr::LispError);
  EXPECT_THROW(run("(next 5)"), sexpr::LispError);
}

TEST_F(StructsTest, MakeRejectsUnknownFieldAndOddPlist) {
  run("(defstruct node (data val))");
  EXPECT_THROW(run("(make-node 'bogus 1)"), sexpr::LispError);
  EXPECT_THROW(run("(make-node 'val)"), sexpr::LispError);
}

TEST_F(StructsTest, DuplicateFieldNameAcrossTypesRejected) {
  run("(defstruct node (pointers next))");
  EXPECT_THROW(run("(defstruct other (pointers next))"),
               sexpr::LispError)
      << "the paper's unique-accessor-name requirement";
}

TEST_F(StructsTest, IdenticalRedefinitionChangesNothing) {
  run("(defstruct node (pointers next) (data val))");
  run("(setq n (make-node 'val 7))");
  EXPECT_EQ(run("(defstruct node (pointers next) (data val))"), "node");
  EXPECT_EQ(run("(list (node-p n) (val n))"), "(t 7)");
  EXPECT_THROW(run("(defstruct node (pointers next) (data val other))"),
               sexpr::LispError);
}

TEST_F(StructsTest, FieldCollidingWithBuiltinRejected) {
  EXPECT_THROW(run("(defstruct weird (data length))"), sexpr::LispError);
}

TEST_F(StructsTest, BadFieldGroupRejected) {
  EXPECT_THROW(run("(defstruct node (links a b))"), sexpr::LispError);
}

TEST_F(StructsTest, DoublyLinkedListBuildAndWalk) {
  run("(defstruct dnode (pointers succ pred) (data item))");
  EXPECT_EQ(run("(defun link (a b) (setf (succ a) b) (setf (pred b) a))"
                "(let ((a (make-dnode 'item 1))"
                "      (b (make-dnode 'item 2))"
                "      (c (make-dnode 'item 3)))"
                "  (link a b) (link b c)"
                "  (list (item (succ a)) (item (pred c))"
                "        (item (succ (pred b)))))"),
            "(2 2 2)");
}

TEST_F(StructsTest, RecursiveWalkOverStructs) {
  run("(defstruct cell2 (pointers rest) (data v))");
  EXPECT_EQ(run("(defun build (n)"
                "  (if (= n 0) nil"
                "      (make-cell2 'v n 'rest (build (- n 1)))))"
                "(defun total (c)"
                "  (if (null c) 0 (+ (v c) (total (rest c)))))"
                "(total (build 10))"),
            "55");
}

TEST_F(StructsTest, StructsPrintOpaquely) {
  run("(defstruct node (data val))");
  EXPECT_EQ(run("(prin1 (make-node)) 'done"), "done");
  EXPECT_EQ(in.take_output(), "#<struct>");
}

}  // namespace
}  // namespace curare::lisp
