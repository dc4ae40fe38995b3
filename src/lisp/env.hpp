// Lexical environments.
//
// Local frames form a parent chain and are owned by shared_ptr so
// closures can outlive the activation that created them. The global frame
// is shared by every server thread in the CRI runtime, and every CRI body
// reads globals (function names, parameters like `work`) and many write
// one (`(setq total …)`). So global reads and writes to an existing
// binding take no lock at all:
//
//  * Each global binding lives in a Cell that never moves (cells sit in
//    deques, and no binding is ever erased). A write to an existing
//    binding is one release store; a read is one acquire load. Cells
//    created holding a function pack four to a cache line; every other
//    cell gets a line of its own, so per-task writes to variables never
//    evict the function cells all servers read.
//  * Symbol → cell resolution goes through an insert-only open-addressing
//    index of cell pointers. Readers probe it with acquire loads and no
//    lock. Only inserting a new name takes the frame's mutex; an insert
//    that grows the index publishes a new table and keeps the old one
//    alive until the frame dies, so a reader still probing it stays safe.
//
// Function cells are 16 bytes and index slots 8: a dead session's
// global frame lives until the collector frees the closures that hold
// it, so frame size is resident memory (restructure_corpus builds a
// driver, and so a frame of ~150 builtins, per operation).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sexpr/value.hpp"

namespace curare::lisp {

using sexpr::Symbol;
using sexpr::Value;

class Env;
using EnvPtr = std::shared_ptr<Env>;

class Env {
 public:
  /// Create the global (root) frame.
  static EnvPtr make_global() {
    return EnvPtr(new Env(nullptr, std::make_unique<Globals>()));
  }

  /// Create a local frame chained to `parent`.
  static EnvPtr make_local(EnvPtr parent) {
    return EnvPtr(new Env(std::move(parent), nullptr));
  }

  /// Lexical lookup; std::nullopt when unbound anywhere in the chain.
  std::optional<Value> lookup(Symbol* name) const {
    for (const Env* e = this; e != nullptr; e = e->parent_.get()) {
      if (e->globals_) {
        if (const Cell* c = e->globals_->find(name))
          return c->value.load(std::memory_order_acquire);
      } else {
        auto it = e->vars_.find(name);
        if (it != e->vars_.end()) return it->second;
      }
    }
    return std::nullopt;
  }

  /// Bind `name` in THIS frame (let/lambda binding or defun).
  void define(Symbol* name, Value v) {
    if (globals_) {
      globals_->store(name, v);
    } else {
      vars_[name] = v;
    }
  }

  /// Assign to the innermost existing binding (setq). Creates a global
  /// binding if the variable is unbound, as interactive Lisps do.
  void set(Symbol* name, Value v) {
    for (Env* e = this; e != nullptr; e = e->parent_.get()) {
      if (e->globals_) {
        // The global frame is the root of every chain.
        e->globals_->store(name, v);
        return;
      }
      auto it = e->vars_.find(name);
      if (it != e->vars_.end()) {
        it->second = v;
        return;
      }
    }
  }

  /// The global frame's cell for `name`, or null when the name is
  /// unbound. Cells never move, so callers may CAS on the value
  /// (%atomic-incf-var). Call on the global frame only.
  std::atomic<Value>* global_cell(Symbol* name) {
    Cell* c = globals_->find(name);
    return c != nullptr ? &c->value : nullptr;
  }

  bool is_global() const { return globals_ != nullptr; }
  const EnvPtr& parent() const { return parent_; }

  /// Visit every value bound in THIS frame (not the chain). Used by the
  /// collector: closures reach their captured frames through here, and
  /// the interpreter enumerates the global frame as a root source.
  template <typename Fn>
  void for_each_binding(Fn&& fn) const {
    for_each_binding_named([&](Symbol*, Value v) { fn(v); });
  }

  /// Visit every (symbol, value) binding in THIS frame. The image
  /// serializer needs the names too: a frame is flattened as a set of
  /// named slots so the clone can re-bind them in a fresh session.
  template <typename Fn>
  void for_each_binding_named(Fn&& fn) const {
    if (globals_) {
      std::lock_guard<std::mutex> lock(globals_->insert_mu);
      globals_->for_each_cell([&](const Cell& c) {
        fn(c.name, c.value.load(std::memory_order_acquire));
      });
    } else {
      for (const auto& [name, v] : vars_) fn(name, v);
    }
  }

 private:
  /// One global binding. Cells never move and are never freed before
  /// the frame, so a reader may hold a Cell* across calls.
  struct Cell {
    Cell(Symbol* n, Value v) : value(v), name(n) {}
    std::atomic<Value> value;
    Symbol* const name;
  };

  /// The global frame's bindings: stable cells plus the lock-free index
  /// that maps a symbol to its cell.
  struct Globals {
    /// Open addressing over cell pointers (a cell carries its name).
    /// A slot goes from null to its cell once and never changes again.
    struct Table {
      explicit Table(unsigned log2)
          : shift(64 - log2),
            mask((std::size_t{1} << log2) - 1),
            slots(new std::atomic<Cell*>[mask + 1]()) {}
      std::size_t home(const Symbol* s) const {
        return static_cast<std::size_t>(
            (reinterpret_cast<std::uintptr_t>(s) * 0x9E3779B97F4A7C15ull) >>
            shift);
      }
      const unsigned shift;
      const std::size_t mask;
      std::unique_ptr<std::atomic<Cell*>[]> slots;
    };

    Globals() {
      tables.push_back(std::make_unique<Table>(8));
      table.store(tables.back().get(), std::memory_order_release);
    }

    /// Lock-free: the cell bound to `s`, or nullptr. A cell is fully
    /// built before the release store that publishes its pointer.
    Cell* find(const Symbol* s) const {
      const Table* t = table.load(std::memory_order_acquire);
      for (std::size_t i = t->home(s);; i = (i + 1) & t->mask) {
        Cell* c = t->slots[i].load(std::memory_order_acquire);
        if (c == nullptr || c->name == s) return c;
      }
    }

    /// Release-store into an existing cell; insert under the mutex
    /// only when the name is new.
    void store(Symbol* s, Value v) {
      Cell* c = find(s);
      if (c == nullptr) c = &insert(s, v);
      c->value.store(v, std::memory_order_release);
    }

    /// The cell for `s`, created holding `v` if the name is new.
    Cell& insert(Symbol* s, Value v) {
      std::lock_guard<std::mutex> lock(insert_mu);
      if (Cell* c = find(s)) return *c;
      Cell* c = v.is(sexpr::Kind::Closure) || v.is(sexpr::Kind::Builtin)
                    ? &fn_cells.emplace_back(s, v)
                    : &var_cells.emplace_back(s, v).cell;
      Table* t = table.load(std::memory_order_relaxed);
      if (4 * size() > 3 * (t->mask + 1)) {
        // Grow at 3/4 load: a session's ~150 builtins and prelude names
        // fit the first table. Readers may still probe the old table:
        // it stays alive, and correct for every name it holds.
        tables.push_back(std::make_unique<Table>(64 - t->shift + 1));
        t = tables.back().get();
        for_each_cell([&](Cell& old) { place(*t, &old); });
        table.store(t, std::memory_order_release);
      } else {
        place(*t, c);
      }
      return *c;
    }

    std::size_t size() const { return fn_cells.size() + var_cells.size(); }

    template <typename Fn>
    void for_each_cell(Fn&& fn) {
      for (Cell& c : fn_cells) fn(c);
      for (LineCell& c : var_cells) fn(c.cell);
    }

    static void place(Table& t, Cell* c) {
      std::size_t i = t.home(c->name);
      while (t.slots[i].load(std::memory_order_relaxed) != nullptr)
        i = (i + 1) & t.mask;
      t.slots[i].store(c, std::memory_order_release);
    }

    /// A cell alone on its cache line.
    struct alignas(64) LineCell {
      LineCell(Symbol* n, Value v) : cell(n, v) {}
      Cell cell;
    };

    std::atomic<Table*> table{nullptr};
    mutable std::mutex insert_mu;  ///< serializes inserts and walks
    /// Bindings created holding a function: read on every call and
    /// rarely reassigned, so they pack four to a line.
    std::deque<Cell> fn_cells;
    /// Every other binding may be written per task (`(setq total …)`):
    /// one per line, so those writes never evict a neighbouring
    /// function cell that every server is reading.
    std::deque<LineCell> var_cells;
    std::vector<std::unique_ptr<Table>> tables;  ///< every generation
  };

  Env(EnvPtr parent, std::unique_ptr<Globals> globals)
      : parent_(std::move(parent)), globals_(std::move(globals)) {}

  EnvPtr parent_;
  std::unique_ptr<Globals> globals_;  ///< set only on the global frame
  std::unordered_map<Symbol*, Value> vars_;  ///< local frames only
};

}  // namespace curare::lisp
