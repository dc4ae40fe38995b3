// Flat bytecode for the stack VM (DESIGN.md §13).
//
// A CodeObject is the compiled form of one closure body (or one
// top-level expression): a vector of fixed-width instructions, a
// deduplicated constant pool, and the frame shape (parameter count,
// &rest flag, total slot count). Lexical variables are resolved to
// frame-slot indices at compile time; free variables compile to
// kLoadEnv/kStoreEnv against the closure's captured environment chain,
// which preserves the tree-walker's late-binding semantics for globals
// (a defun redefined after compilation is seen by the next call).
//
// CodeObject derives from lisp::CodeBlob so a Closure can cache its
// compiled body without the lisp module depending on this one; the
// collector traces the constant pool through that interface.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lisp/function.hpp"
#include "lisp/structs.hpp"
#include "sexpr/value.hpp"

namespace curare::vm {

using sexpr::Value;

enum class Op : std::uint8_t {
  // ---- values and slots ----------------------------------------------
  kConst,      ///< push consts[a]
  kNil,        ///< push nil
  kInt,        ///< push fixnum(a) (immediates that fit 32 bits)
  kLoadSlot,   ///< push slots[a]
  kStoreSlot,  ///< slots[a] = top (value stays on the stack)
  kLoadEnv,    ///< push lookup of symbol consts[a]; throws when unbound
  kStoreEnv,   ///< env->set(symbol consts[a], top) (value stays)
  kPop,        ///< drop top
  kDup,        ///< push top again

  // ---- control -------------------------------------------------------
  kJump,                 ///< ip = a
  kJumpIfNil,            ///< pop; ip = a when nil
  kJumpIfTruthy,         ///< pop; ip = a when truthy
  kJumpIfNilElsePop,     ///< top nil: jump keeping it; else pop (and)
  kJumpIfTruthyElsePop,  ///< top truthy: jump keeping it; else pop (or)

  // ---- calls ---------------------------------------------------------
  kCall,         ///< a = nargs; stack [.. fn a1..an] → [.. result]
  kTailCall,     ///< a = nargs; reuse the current frame (O(1) stack)
  kCallBuiltin,  ///< a = const index of a Builtin, b = nargs
  kReturn,       ///< pop frame, leave top as the caller's result

  // ---- burned-in builtins (a = const index of the Builtin for the
  //      non-fixnum slow path, which is the builtin itself) ------------
  kAdd,        ///< 2 args
  kSub,        ///< 2 args
  kMul,        ///< 2 args
  kLess,       ///< 2 args, pushes t/nil
  kLessEq,     ///< 2 args
  kGreater,    ///< 2 args
  kGreaterEq,  ///< 2 args
  kNumEq,      ///< 2 args (numeric =)

  // ---- burned-in builtins with no slow path (semantics are total on
  //      every Value, mirroring the builtin bodies exactly) ------------
  kAdd1,   ///< fixnum(as_int(top) + 1)
  kSub1,   ///< fixnum(as_int(top) - 1)
  kCar,    ///< sexpr::car (nil-tolerant, throws on non-cons)
  kCdr,    ///< sexpr::cdr
  kCons,   ///< [a d] → (a . d)
  kEq,     ///< bit identity → t/nil
  kNull,   ///< is_nil → t/nil
  kNot,    ///< !truthy → t/nil
  kConsp,  ///< is cons → t/nil
  kAtom,   ///< !is cons → t/nil

  // ---- setf support: each store leaves newval, mirroring
  //      Interp::setf_place's checks and error texts ------------------
  kSetCar,      ///< [newval obj] → set (car obj)
  kSetCdr,      ///< [newval obj] → set (cdr obj)
  kSetNth,      ///< [newval n list] → set (nth n list); n is a fixnum
  kSetGethash,  ///< [newval key table] → set (gethash key table)
  kSetAref,     ///< [newval vec i] → set (aref vec i)
  kSetField,    ///< [newval obj] → set struct field fields[a]

  // ---- loop support (dotimes) ----------------------------------------
  kAsInt,    ///< top = fixnum(as_int(top)); throws on non-number
  kIntLess,  ///< [a b] → t/nil, operands guaranteed fixnum
  kIncSlot,  ///< slots[a] = fixnum(slots[a] + 1), guaranteed fixnum
};

/// One instruction. Fixed width keeps decode a struct load; `a`/`b`
/// are jump targets, slot/const indices, immediates, or arg counts
/// depending on the opcode.
struct Insn {
  Op op;
  std::int32_t a = 0;
  std::int32_t b = 0;
};

/// A struct field place, resolved at compile time: a field name
/// belongs to one struct type for the life of an Interp, so the type
/// and slot never change under the code that names them.
struct FieldRef {
  std::shared_ptr<const lisp::StructType> type;
  sexpr::Symbol* field;  ///< accessor name, for the error text
  int slot;
};

/// Compiled body of one closure (or one top-level expression). Shared
/// and immutable after compilation; the owning Closure publishes it
/// with a release store of code_state (see lisp/function.hpp).
struct CodeObject final : lisp::CodeBlob {
  std::string name;  ///< function name, for profiler frames/samples
  std::vector<Insn> code;
  std::vector<Value> consts;
  std::vector<FieldRef> fields;  ///< kSetField operands
  std::uint32_t nrequired = 0;   ///< params before &optional
  std::uint32_t nparams = 0;     ///< required + optional
  bool has_rest = false;
  std::uint32_t nslots = 0;  ///< params (+rest) + deepest let nesting

  /// Intern a constant, deduplicating by bit identity (symbols and
  /// quoted subtrees repeat heavily in real bodies).
  std::int32_t add_const(Value v) {
    for (std::size_t i = 0; i < consts.size(); ++i)
      if (consts[i] == v) return static_cast<std::int32_t>(i);
    consts.push_back(v);
    return static_cast<std::int32_t>(consts.size() - 1);
  }

  /// Constants may alias quoted body subtrees or hold burned-in
  /// builtin values; they must live exactly as long as the function.
  void gc_trace(sexpr::GcVisitor& g) const override {
    for (Value v : consts) g.visit(v);
  }

  /// Human-readable listing, one instruction per line (tests, REPL).
  std::string disassemble() const;
};

/// Opcode mnemonic for disassembly and error messages.
const char* op_name(Op op);

}  // namespace curare::vm
