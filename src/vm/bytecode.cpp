#include "vm/bytecode.hpp"

#include <sstream>

#include "sexpr/printer.hpp"

namespace curare::vm {

const char* op_name(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kNil: return "nil";
    case Op::kInt: return "int";
    case Op::kLoadSlot: return "load-slot";
    case Op::kStoreSlot: return "store-slot";
    case Op::kLoadEnv: return "load-env";
    case Op::kStoreEnv: return "store-env";
    case Op::kPop: return "pop";
    case Op::kDup: return "dup";
    case Op::kJump: return "jump";
    case Op::kJumpIfNil: return "jump-if-nil";
    case Op::kJumpIfTruthy: return "jump-if-truthy";
    case Op::kJumpIfNilElsePop: return "jump-if-nil-else-pop";
    case Op::kJumpIfTruthyElsePop: return "jump-if-truthy-else-pop";
    case Op::kCall: return "call";
    case Op::kTailCall: return "tail-call";
    case Op::kCallBuiltin: return "call-builtin";
    case Op::kReturn: return "return";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kLess: return "lt";
    case Op::kLessEq: return "le";
    case Op::kGreater: return "gt";
    case Op::kGreaterEq: return "ge";
    case Op::kNumEq: return "num-eq";
    case Op::kAdd1: return "add1";
    case Op::kSub1: return "sub1";
    case Op::kCar: return "car";
    case Op::kCdr: return "cdr";
    case Op::kCons: return "cons";
    case Op::kEq: return "eq";
    case Op::kNull: return "null";
    case Op::kNot: return "not";
    case Op::kConsp: return "consp";
    case Op::kAtom: return "atom";
    case Op::kSetCar: return "set-car";
    case Op::kSetCdr: return "set-cdr";
    case Op::kSetNth: return "set-nth";
    case Op::kSetGethash: return "set-gethash";
    case Op::kSetAref: return "set-aref";
    case Op::kSetField: return "set-field";
    case Op::kAsInt: return "as-int";
    case Op::kIntLess: return "int-lt";
    case Op::kIncSlot: return "inc-slot";
  }
  return "?";
}

std::string CodeObject::disassemble() const {
  std::ostringstream os;
  os << name << " (params " << nrequired;
  if (nparams > nrequired) os << "-" << nparams;
  os << (has_rest ? "+rest" : "")
     << ", slots " << nslots << ", consts " << consts.size() << ")\n";
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Insn& in = code[i];
    os << "  " << i << ": " << op_name(in.op);
    switch (in.op) {
      case Op::kConst:
      case Op::kLoadEnv:
      case Op::kStoreEnv:
        os << " " << sexpr::write_str(consts[static_cast<std::size_t>(in.a)]);
        break;
      case Op::kCallBuiltin:
        os << " " << sexpr::write_str(consts[static_cast<std::size_t>(in.a)])
           << " nargs=" << in.b;
        break;
      case Op::kSetField:
        os << " " << fields[static_cast<std::size_t>(in.a)].field->name;
        break;
      case Op::kNil:
      case Op::kPop:
      case Op::kDup:
      case Op::kReturn:
        break;
      default:
        os << " " << in.a;
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace curare::vm
