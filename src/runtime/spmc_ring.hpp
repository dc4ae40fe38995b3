// Bounded lock-free single-producer / multi-consumer ring buffer
// (Vyukov's bounded queue with the producer side specialised to one
// thread).
//
// Each cell carries a sequence number: a cell is pushable when
// seq == enqueue position, poppable when seq == dequeue position + 1.
// The one producer appends with plain stores and publishes with a
// release store on the cell's sequence — no CAS. Consumers reserve a
// cell with one CAS on the dequeue cursor. The two cursors sit on
// separate cache lines.
//
// This is the per-call-site fast path of a work-stealing lane (paper
// §4.1): "each server only needs to obtain the arguments to an
// invocation" — the lane owner is the ring's only producer, while the
// owner and any thief consume. The ring is bounded; the scheduler
// layers an unbounded mutex-guarded spill deque behind it for the rare
// overflow.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace curare::runtime {

template <typename T>
class SpmcRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpmcRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  SpmcRing(const SpmcRing&) = delete;
  SpmcRing& operator=(const SpmcRing&) = delete;

  /// Single-producer push: no CAS on the enqueue cursor, just one
  /// acquire load, two plain stores and the publishing release store.
  /// Callers must guarantee they are the ring's only producer (each
  /// lane's rings are fed exclusively by the lane owner); consumers may
  /// race freely. False when the ring is full; `v` is left untouched in
  /// that case.
  bool try_push_sp(T&& v) {
    const std::size_t pos = enq_.load(std::memory_order_relaxed);
    Cell& c = cells_[pos & mask_];
    const std::size_t seq = c.seq.load(std::memory_order_acquire);
    // seq < pos ⇒ the consumer of lap-1 hasn't released the cell (full);
    // seq > pos is impossible with a single producer.
    if (seq != pos) return false;
    c.data = std::move(v);
    c.seq.store(pos + 1, std::memory_order_release);
    enq_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Producer-side: true when the next try_push_sp would fail.
  bool full_sp() const {
    const std::size_t pos = enq_.load(std::memory_order_relaxed);
    return cells_[pos & mask_].seq.load(std::memory_order_acquire) != pos;
  }

  /// False when the ring is empty (or every present item is still being
  /// published by its producer — callers retry off their own depth
  /// accounting).
  bool try_pop(T& out) {
    Cell* c;
    std::size_t pos = deq_.load(std::memory_order_relaxed);
    for (;;) {
      c = &cells_[pos & mask_];
      const std::size_t seq = c->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (deq_.compare_exchange_weak(pos, pos + 1,
                                       std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = deq_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(c->data);
    c->data = T{};  // drop payload refs eagerly
    c->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Racy emptiness probe: one acquire load, no CAS. A false negative
  /// is possible mid-publish; callers pair this with depth accounting.
  bool probably_empty() const {
    const std::size_t pos = deq_.load(std::memory_order_relaxed);
    const std::size_t seq =
        cells_[pos & mask_].seq.load(std::memory_order_acquire);
    return static_cast<std::intptr_t>(seq) <
           static_cast<std::intptr_t>(pos + 1);
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Visit every item currently in the ring, oldest first. Quiescent
  /// callers only (no concurrent push/pop) — used by the collector to
  /// enumerate pending task arguments while the world is stopped.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t d = deq_.load(std::memory_order_acquire);
    const std::size_t e = enq_.load(std::memory_order_acquire);
    for (std::size_t pos = d; pos < e; ++pos) {
      const Cell& c = cells_[pos & mask_];
      if (c.seq.load(std::memory_order_acquire) == pos + 1) fn(c.data);
    }
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T data{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> enq_{0};
  alignas(64) std::atomic<std::size_t> deq_{0};
};

}  // namespace curare::runtime
