// Tagged Lisp value representation.
//
// A Value is a single machine word. The low bit distinguishes fixnums
// (immediate 63-bit signed integers) from heap references; the all-zero
// word is nil, which doubles as the empty list and boolean false, as in
// classic Lisp. Heap objects are 8-byte aligned, so untagged words with a
// nonzero payload are direct `Obj*` pointers.
//
// This module is the substrate everything else builds on: the analyzer
// reads programs as S-expressions, the interpreter evaluates them, and the
// CRI runtime mutates cons cells from many threads. Cons car/cdr slots are
// therefore atomic words (relaxed ordering): the paper's execution model
// says the *program* must synchronize conflicting accesses, but the
// substrate must never exhibit torn reads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace curare::sexpr {

class Value;

/// Discriminator for heap-allocated objects.
enum class Kind : std::uint8_t {
  Cons,     ///< pair of Values (car, cdr)
  Symbol,   ///< interned name
  String,   ///< immutable character string
  Float,    ///< boxed double
  Vector,   ///< growable array of Values
  Table,    ///< hash table (Value -> Value), internally synchronized
  Closure,  ///< user-defined function (owned by the lisp module)
  Builtin,  ///< native function
  Native,   ///< opaque runtime object (future, lock handle, queue, ...)
  Struct,   ///< defstruct instance (owned by the lisp module)
};

class GcVisitor;

/// Base of all heap objects. Virtual destructor so the heap can own a
/// heterogeneous set of objects through `Obj*`.
struct Obj {
  explicit Obj(Kind k) : kind(k) {}
  Obj(const Obj&) = delete;
  Obj& operator=(const Obj&) = delete;
  virtual ~Obj() = default;

  /// Report every Value this object holds to the collector. Called only
  /// while the world is stopped (see src/gc/), so overrides may read
  /// their fields without synchronization beyond what concurrent Lisp
  /// mutators already require. Leaf objects hold no Values.
  virtual void gc_trace(GcVisitor&) const {}

  const Kind kind;
};

/// A single Lisp value: fixnum, nil, or pointer to a heap object.
class Value {
 public:
  constexpr Value() : bits_(0) {}

  static constexpr Value nil() { return Value(); }

  static Value fixnum(std::int64_t n) {
    return Value(static_cast<std::uint64_t>(n) << 1 | 1u);
  }

  static Value object(Obj* o) {
    return Value(reinterpret_cast<std::uint64_t>(o));
  }

  static Value from_bits(std::uint64_t b) { return Value(b); }
  std::uint64_t bits() const { return bits_; }

  bool is_nil() const { return bits_ == 0; }
  bool is_fixnum() const { return (bits_ & 1u) != 0; }
  bool is_object() const { return bits_ != 0 && (bits_ & 1u) == 0; }

  std::int64_t as_fixnum() const {
    return static_cast<std::int64_t>(bits_) >> 1;
  }

  Obj* obj() const { return reinterpret_cast<Obj*>(bits_); }

  bool is(Kind k) const { return is_object() && obj()->kind == k; }

  /// Lisp truth: everything except nil is true.
  bool truthy() const { return bits_ != 0; }

  /// Pointer/bit identity — Lisp `eq`.
  friend bool operator==(Value a, Value b) { return a.bits_ == b.bits_; }
  friend bool operator!=(Value a, Value b) { return a.bits_ != b.bits_; }

 private:
  constexpr explicit Value(std::uint64_t bits) : bits_(bits) {}
  std::uint64_t bits_;
};

/// Callback interface the collector hands to Obj::gc_trace. `visit`
/// records one outgoing edge; `enter_region` deduplicates traversal of
/// shared non-heap containers (an Env frame reached through many
/// closures is walked once per collection).
class GcVisitor {
 public:
  virtual void visit(Value v) = 0;
  /// True the first time this collection sees `region`; callers walk the
  /// region's contents only on true.
  virtual bool enter_region(const void* region) = 0;

 protected:
  ~GcVisitor() = default;
};

/// Cons cell. Slots are atomic words so unsynchronized concurrent readers
/// see whole values; ordering is the concurrent program's responsibility
/// (the paper's locks/delays provide it).
struct Cons final : Obj {
  Cons(Value a, Value d)
      : Obj(Kind::Cons), car_bits(a.bits()), cdr_bits(d.bits()) {}

  Value car() const {
    return Value::from_bits(car_bits.load(std::memory_order_relaxed));
  }
  Value cdr() const {
    return Value::from_bits(cdr_bits.load(std::memory_order_relaxed));
  }
  void set_car(Value v) {
    car_bits.store(v.bits(), std::memory_order_relaxed);
  }
  void set_cdr(Value v) {
    cdr_bits.store(v.bits(), std::memory_order_relaxed);
  }

  void gc_trace(GcVisitor& g) const override {
    g.visit(car());
    g.visit(cdr());
  }

  std::atomic<std::uint64_t> car_bits;
  std::atomic<std::uint64_t> cdr_bits;
};

/// Interned symbol. Identity (the `Obj*`) is the symbol's identity; two
/// symbols with the same name are the same object (see SymbolTable).
struct Symbol final : Obj {
  explicit Symbol(std::string n) : Obj(Kind::Symbol), name(std::move(n)) {}
  const std::string name;
};

struct String final : Obj {
  explicit String(std::string s) : Obj(Kind::String), text(std::move(s)) {}
  const std::string text;
};

struct Float final : Obj {
  explicit Float(double d) : Obj(Kind::Float), value(d) {}
  const double value;
};

struct Vector final : Obj {
  Vector() : Obj(Kind::Vector) {}
  explicit Vector(std::vector<Value> v)
      : Obj(Kind::Vector), items(std::move(v)) {}

  void gc_trace(GcVisitor& g) const override {
    for (Value v : items) g.visit(v);
  }

  std::vector<Value> items;
};

// ---- accessors with checking ------------------------------------------

/// Thrown on type mismatches and other evaluation failures. Carries a
/// plain message; the interpreter adds source context when it rethrows.
class LispError : public std::exception {
 public:
  explicit LispError(std::string msg) : msg_(std::move(msg)) {}
  const char* what() const noexcept override { return msg_.c_str(); }

 private:
  std::string msg_;
};

Cons* as_cons(Value v);
Symbol* as_symbol(Value v);
String* as_string(Value v);
Vector* as_vector(Value v);

/// car/cdr with the Lisp convention that (car nil) = (cdr nil) = nil.
Value car(Value v);
Value cdr(Value v);

inline Value cadr(Value v) { return car(cdr(v)); }
inline Value cddr(Value v) { return cdr(cdr(v)); }
inline Value caddr(Value v) { return car(cddr(v)); }
inline Value cdddr(Value v) { return cdr(cddr(v)); }
inline Value cadddr(Value v) { return car(cdddr(v)); }
inline Value caar(Value v) { return car(car(v)); }
inline Value cdar(Value v) { return cdr(car(v)); }

/// Number of cons cells in a proper list. Throws on dotted/improper lists.
std::size_t list_length(Value v);

/// True when v is nil or a chain of cons cells ending in nil (bounded by
/// `limit` cells to stay safe on cyclic structures).
bool is_proper_list(Value v, std::size_t limit = 1u << 24);

}  // namespace curare::sexpr
