// Differential oracle: the untransformed program.
//
// The restructured code must compute what the original sequential
// program computes (§3.1.1; Blanchard/Loulergue's simulation argument).
// A reference re-derived from the restructurer's own serial order shares
// its assumptions, so this one loads the original source into a fresh
// context and driver that never transform anything, and evaluates the
// call there, sequentially, as plain Lisp.
#pragma once

#include <string>
#include <string_view>

#include "curare/curare.hpp"
#include "sexpr/printer.hpp"

namespace curare::oracle {

/// The printed value of `call` after loading `program` into a fresh
/// driver: what the original program returns.
inline std::string original_value(std::string_view program,
                                  std::string_view call) {
  sexpr::Ctx ctx;
  Curare cur(ctx, 1);
  cur.load_program(program);
  return sexpr::write_str(cur.eval_program(call));
}

}  // namespace curare::oracle
