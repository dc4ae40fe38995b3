// Declarations registry tests (paper §6).
#include "decl/declarations.hpp"

#include <gtest/gtest.h>

#include "sexpr/reader.hpp"

namespace curare::decl {
namespace {

class DeclTest : public ::testing::Test {
 protected:
  sexpr::Ctx ctx;
  Declarations decls{ctx};

  Symbol* sym(const char* n) { return ctx.symbols.intern(n); }
};

TEST_F(DeclTest, DefaultsListCellAndArithmetic) {
  EXPECT_TRUE(decls.is_pointer_field(sym("car")));
  EXPECT_TRUE(decls.is_pointer_field(sym("cdr")));
  EXPECT_TRUE(decls.is_reorderable_op(sym("+")));
  EXPECT_TRUE(decls.is_reorderable_op(sym("*")));
  EXPECT_FALSE(decls.is_reorderable_op(sym("-")));
  EXPECT_TRUE(decls.is_unordered_insert(sym("puthash")));
}

TEST_F(DeclTest, DeclareStructure) {
  decls.load(sexpr::read_one(
      ctx,
      "(curare-declare (structure node (pointers next prev) (data val)))"));
  const StructDecl* d = decls.structure(sym("node"));
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->pointer_fields.size(), 2u);
  EXPECT_EQ(d->data_fields.size(), 1u);
  EXPECT_TRUE(decls.is_pointer_field(sym("next")));
  EXPECT_FALSE(decls.is_pointer_field(sym("val")));
  EXPECT_TRUE(decls.is_known_field(sym("val")));
  EXPECT_FALSE(decls.is_known_field(sym("bogus")));
}

TEST_F(DeclTest, InverseBothDirections) {
  decls.load(sexpr::read_one(ctx, "(curare-declare (inverse succ pred))"));
  EXPECT_EQ(decls.inverse_of(sym("succ")), sym("pred"));
  EXPECT_EQ(decls.inverse_of(sym("pred")), sym("succ"));
  EXPECT_EQ(decls.inverse_of(sym("car")), nullptr);
}

TEST_F(DeclTest, OperationProperties) {
  decls.load(sexpr::read_one(
      ctx, "(curare-declare (commutative gcd) (associative gcd)"
           " (atomic gcd))"));
  EXPECT_TRUE(decls.is_reorderable_op(sym("gcd")));
}

TEST_F(DeclTest, PartialPropertiesAreNotReorderable) {
  decls.load(sexpr::read_one(
      ctx, "(curare-declare (commutative foo) (associative foo))"));
  EXPECT_FALSE(decls.is_reorderable_op(sym("foo")))
      << "atomicity is required too";
}

TEST_F(DeclTest, UnorderedAndAnySearch) {
  decls.load(sexpr::read_one(
      ctx, "(curare-declare (unordered insert!) (any-search find-any))"));
  EXPECT_TRUE(decls.is_unordered_insert(sym("insert!")));
  EXPECT_TRUE(decls.is_any_search(sym("find-any")));
}

TEST_F(DeclTest, SappTopLevel) {
  decls.load(sexpr::read_one(ctx, "(curare-declare (sapp f l m))"));
  EXPECT_TRUE(decls.has_sapp(sym("f"), sym("l")));
  EXPECT_TRUE(decls.has_sapp(sym("f"), sym("m")));
  EXPECT_FALSE(decls.has_sapp(sym("g"), sym("l")));
}

TEST_F(DeclTest, RestructureHints) {
  decls.load(sexpr::read_one(
      ctx, "(curare-declare (restructure f) (no-restructure g))"));
  EXPECT_EQ(decls.restructure_hint(sym("f")), std::optional<bool>(true));
  EXPECT_EQ(decls.restructure_hint(sym("g")), std::optional<bool>(false));
  EXPECT_EQ(decls.restructure_hint(sym("h")), std::nullopt);
}

TEST_F(DeclTest, Noalias) {
  decls.load(sexpr::read_one(ctx, "(curare-declare (noalias f))"));
  EXPECT_TRUE(decls.has_noalias(sym("f")));
  EXPECT_FALSE(decls.has_noalias(sym("g")));
}

TEST_F(DeclTest, MalformedClauseThrows) {
  EXPECT_THROW(
      decls.load(sexpr::read_one(ctx, "(curare-declare (frobnicate x))")),
      sexpr::LispError);
  EXPECT_THROW(decls.load(sexpr::read_one(ctx, "(not-a-declare)")),
               sexpr::LispError);
  EXPECT_THROW(
      decls.load(sexpr::read_one(
          ctx, "(curare-declare (structure n (wrong f)))")),
      sexpr::LispError);
}

TEST_F(DeclTest, LoadProgramPicksUpTopLevelAndInline) {
  auto forms = sexpr::read_all(
      ctx,
      "(curare-declare (commutative op1))"
      "(defun f (l)"
      "  (declare (curare (sapp l) (noalias)))"
      "  (f (cdr l)))");
  for (auto f : forms) decls.load_form(f);
  EXPECT_TRUE(decls.is_commutative(sym("op1")));
  EXPECT_TRUE(decls.has_sapp(sym("f"), sym("l")));
  EXPECT_TRUE(decls.has_noalias(sym("f")));
}

TEST_F(DeclTest, InlineDeclareMustLeadBody) {
  auto forms = sexpr::read_all(
      ctx,
      "(defun f (l) (print l) (declare (curare (sapp l))) (f (cdr l)))");
  for (auto f : forms) decls.load_form(f);
  EXPECT_FALSE(decls.has_sapp(sym("f"), sym("l")))
      << "declares after the first body form are not scanned";
}

}  // namespace
}  // namespace curare::decl
