// Memory management for the sexpr heap: per-thread bump allocation plus
// a stop-the-world parallel mark-sweep collector that runs only at
// quiescent points.
//
// Allocation. Each mutator thread owns a 64 KiB bump block per heap and
// carves 8-byte-aligned cells out of it with two additions — no lock,
// no atomic RMW on shared state. The global block list (protected by a
// mutex) is touched only on refill, roughly once per ~1360 conses, so
// the serialized section per allocation is ~1/1000th of the seed's
// lock-the-shard-and-push design. Exact live-object/live-byte counts
// are maintained as per-cache relaxed counters summed on demand.
//
// Collection. The collector never interrupts running Lisp. Mutators
// bracket every region that holds unrooted Values on the C++ stack in a
// MutatorScope ("unsafe region"); collections start only from explicit
// maybe_collect()/collect() calls placed at quiescent points — between
// CRI tasks in CriRun::serve, between future-pool tasks, between
// top-level forms in eval_program and the REPL/CLI loops. Because no
// Lisp frame is live across those points, the root set is exactly the
// registered RootSources (global Env, future slots, queued task args,
// …) plus explicit RootScopes — no stack scanning, no conservatism.
//
// Stopping the world is two-phase. Phase A: the collector claims the
// heap (gc_active_) and waits for the unsafe count to drain; new unsafe
// entries are still admitted, which keeps help-first futures live: a
// thread blocked inside an unsafe region waiting on a future must allow
// the worker that resolves it to enter its own unsafe region. Phase B:
// once the count first reaches zero the collector raises gc_stw_ and
// re-waits; from here new entries bounce and park (Dekker-style
// seq_cst handshake on unsafe_/gc_stw_ — at least one side always sees
// the other). Parked threads help with marking. Blocking waits inside
// unsafe regions (scheduler sleeps) release their unsafe count around
// the wait via blocking_release/blocking_reacquire — safe because the
// values they will consume on wake are still reachable from the queues.
//
// Marking fans root chunks out across whoever is parked at the fence
// (server-pool threads included) plus the collector; claims are a
// single fetch_add. Sweeping walks blocks linearly, runs destructors on
// white cells, and returns fully-dead blocks to the free list.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sexpr/value.hpp"

namespace curare::gc {

class GcHeap;

/// Per-cell header, 8 bytes so payloads stay 8-aligned (all a tagged
/// Value needs: bit 0 clear). `size` is the full cell (header
/// included); `state` is the tri-color word.
struct GcHeader {
  std::uint32_t size;
  std::atomic<std::uint32_t> state;
};

inline constexpr std::uint32_t kCellFree = 0;   ///< dead, dtor already run
inline constexpr std::uint32_t kCellWhite = 1;  ///< live, not yet marked
inline constexpr std::uint32_t kCellBlack = 2;  ///< marked this cycle

inline constexpr std::size_t kCellAlign = 8;
inline constexpr std::size_t kBlockSize = 64 * 1024;

static_assert(sizeof(GcHeader) == 8, "payloads must stay 8-aligned");

/// A bump region. `used` is written only by the owning thread (while the
/// block is owned) or the collector (while the world is stopped); the
/// safepoint handshake orders those accesses.
struct Block {
  explicit Block(std::size_t cap)
      : mem(new char[cap]), capacity(cap), oversized(cap != kBlockSize) {}

  std::unique_ptr<char[]> mem;
  std::size_t capacity;
  std::size_t used = 0;
  bool oversized;
  /// Owning ThreadCache, null when parked in the heap's lists. Atomic so
  /// thread-exit retirement can clear it without racing the sweep.
  std::atomic<void*> owner{nullptr};
};

class RootScope;
class StackRoots;

/// Per-(heap × thread) allocation state. Stable address for the
/// thread's lifetime; at thread exit its counters fold into the heap's
/// totals and it is freed.
struct ThreadCache {
  Block* block = nullptr;        ///< current bump block, owner == this
  std::size_t unsafe_depth = 0;  ///< MutatorScope nesting on this thread

  std::atomic<std::uint64_t> alloc_objects{0};
  std::atomic<std::uint64_t> alloc_bytes{0};

  /// Intrusive stack of live RootScopes, guarded by a spinlock because
  /// the collector reads it while the owning thread may push/pop.
  std::atomic<bool> roots_lock{false};
  RootScope* roots_head = nullptr;

  /// Intrusive stack of live StackRoots frames. Unlike RootScopes,
  /// frames are pushed/popped only inside unsafe regions, so the
  /// stop-the-world protocol itself orders them against the collector's
  /// walk — no lock.
  StackRoots* frames_head = nullptr;
};

/// Anything that can contribute roots: the global environment, the
/// future pool, pending task queues, the symbol table. Sources are
/// enumerated only while the world is stopped, but registration may
/// happen at any time.
class RootSource {
 public:
  virtual ~RootSource() = default;
  /// Append every Value reachable from this source to `out`.
  virtual void gc_roots(std::vector<sexpr::Value>& out) = 0;
};

/// Aggregate statistics; all-time totals plus current heap shape.
struct GcStats {
  std::uint64_t collections = 0;
  std::uint64_t last_pause_ns = 0;
  std::uint64_t total_pause_ns = 0;
  std::uint64_t max_pause_ns = 0;
  std::uint64_t reclaimed_objects = 0;
  std::uint64_t reclaimed_bytes = 0;
  std::uint64_t live_objects = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t heap_bytes = 0;  ///< capacity of all blocks owned
  std::uint64_t total_blocks = 0;
  std::uint64_t free_blocks = 0;
};

/// One collection, as reported to the pause callback (which feeds the
/// obs layer: cri.gc.* metrics and tracer pause spans).
struct GcPause {
  std::uint64_t pause_ns = 0;
  std::uint64_t reclaimed_objects = 0;
  std::uint64_t reclaimed_bytes = 0;
  std::uint64_t live_objects = 0;
  std::uint64_t heap_bytes = 0;
  std::uint64_t collections = 0;  ///< ordinal of this collection
  const char* reason = "";        ///< "threshold", "explicit", ...
};

class GcHeap {
 public:
  GcHeap();
  ~GcHeap();
  GcHeap(const GcHeap&) = delete;
  GcHeap& operator=(const GcHeap&) = delete;

  /// Allocate and construct a heap object. Lock-free unless the current
  /// block is full. Safe from any thread; implies a MutatorScope for the
  /// duration of construction, so a collection can never run between
  /// cell carve-out and the constructor finishing.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    static_assert(std::is_base_of_v<sexpr::Obj, T>,
                  "GcHeap only manages sexpr::Obj subclasses");
    static_assert(alignof(T) <= kCellAlign, "cell alignment is 8");
    enter_unsafe();
    AllocCell c;
    T* obj;
    try {
      // allocate() can throw too (bad_alloc, injected gc.alloc fault);
      // it must not leak the unsafe region or the thread could never
      // be stopped again.
      c = allocate(sizeof(T));
      obj = new (c.payload) T(std::forward<Args>(args)...);
    } catch (...) {
      // Cell (if carved) stays kCellFree: sweep skips it, the block
      // reclaims it when fully dead. Counters were never bumped.
      exit_unsafe();
      throw;
    }
    c.header->state.store(kCellWhite, std::memory_order_release);
    c.tc->alloc_objects.fetch_add(1, std::memory_order_relaxed);
    c.tc->alloc_bytes.fetch_add(c.header->size, std::memory_order_relaxed);
    exit_unsafe();
    return obj;
  }

  /// Exact counts (sum of per-cache counters minus sweep totals). Exact
  /// whenever no allocation is concurrently in flight — in particular
  /// after joining worker threads, and always at quiescent points.
  std::uint64_t live_objects() const;
  std::uint64_t live_bytes() const;

  /// Collection trigger: bytes allocated since the last collection that
  /// arm the next maybe_collect(). 0 disables automatic triggering
  /// (explicit collect() still works). Default 64 MiB.
  void set_threshold(std::uint64_t bytes) {
    threshold_.store(bytes, std::memory_order_relaxed);
  }
  std::uint64_t threshold() const {
    return threshold_.load(std::memory_order_relaxed);
  }

  /// Arm a collection at the next quiescent point regardless of the
  /// threshold.
  void request_collection() {
    gc_requested_.store(true, std::memory_order_release);
  }

  /// Heap high-watermarks (DESIGN.md §14). Crossing `soft` raises GC
  /// urgency (a collection is armed on every further growth) and lets
  /// the serving layer shed admissions; crossing `hard` makes
  /// allocations fail with runtime::ResourceExhausted instead of
  /// growing toward the OS OOM killer. 0 disables either threshold.
  /// The measure is used_bytes_estimate(): live bytes after the last
  /// collection plus block-granular growth since — it recedes when a
  /// collection reclaims, unlike the monotone block-capacity total.
  void set_heap_limits(std::uint64_t soft, std::uint64_t hard) {
    soft_limit_.store(soft, std::memory_order_relaxed);
    hard_limit_.store(hard, std::memory_order_relaxed);
  }
  std::uint64_t soft_limit() const {
    return soft_limit_.load(std::memory_order_relaxed);
  }

  /// Approximate bytes in use: live bytes at the end of the last
  /// collection plus bytes handed to bump blocks (64 KiB granules) and
  /// oversized cells since. One relaxed load — cheap enough for the
  /// admission path to consult per request.
  std::uint64_t used_bytes_estimate() const {
    return used_bytes_.load(std::memory_order_relaxed);
  }

  /// True while the soft watermark is armed and exceeded — the signal
  /// the admission controller sheds on.
  bool above_soft_watermark() const {
    const std::uint64_t soft = soft_limit_.load(std::memory_order_relaxed);
    return soft != 0 &&
           used_bytes_.load(std::memory_order_relaxed) >= soft;
  }

  /// Bulk-allocation warm-up: grow the free-block list so that the next
  /// `bytes` of bump allocation refill from pre-built blocks instead of
  /// taking one heap-growth path per 64 KiB. One lock acquisition for
  /// the whole reservation; the image cloner calls this before
  /// materializing a session so the clone is (almost) pure bump+memcpy.
  /// Returns the number of blocks added.
  std::size_t reserve_blocks(std::size_t bytes);

  /// Quiescent point: collect if armed (threshold crossed or requested),
  /// or join a collection already in progress. Must be called with no
  /// unrooted Values held on the C++ stack. Returns true if this call
  /// performed or joined a collection.
  bool maybe_collect();

  /// True while a collection is armed or in progress. A thread that
  /// holds its unsafe region across quiescent points (a CRI server
  /// between tasks) polls this and, when true, releases the region and
  /// calls maybe_collect(). Loads only.
  bool collection_wanted() const {
    return gc_active_.load(std::memory_order_seq_cst) ||
           gc_requested_.load(std::memory_order_acquire);
  }

  /// Unconditional collection at a quiescent point. If another thread
  /// is already collecting, waits for (and helps) that collection
  /// instead of starting a second one. Called from inside an unsafe
  /// region it cannot stop the world, so it only arms the next
  /// quiescent point. Returns reclaimed bytes (0 when deferred/joined).
  std::uint64_t collect(const char* reason = "explicit");

  GcStats stats() const;

  void add_root_source(RootSource* s);
  void remove_root_source(RootSource* s);

  /// Invoked after every collection (outside all GC locks). Replaces
  /// any previous callback; pass nullptr to clear.
  void set_pause_callback(std::function<void(const GcPause&)> cb);

  // -- safepoint protocol (used via MutatorScope; exposed for the
  //    scheduler's blocking waits and for tests) -----------------------

  /// Enter an unsafe region: Values on the C++ stack are protected from
  /// collection until the matching exit_unsafe. Reentrant per thread.
  /// Blocks only while a stop-the-world phase is in progress.
  void enter_unsafe();
  void exit_unsafe();

  /// Fully release this thread's unsafe region (all nesting levels)
  /// before a blocking wait whose wake-up values are queue-rooted.
  /// Returns the depth to restore; 0 means the thread was already safe.
  std::size_t blocking_release();
  /// Restore the depth saved by blocking_release, waiting out any
  /// stop-the-world phase in progress. Call with no locks held.
  void blocking_reacquire(std::size_t depth);

  /// True if the calling thread is inside an unsafe region of this heap.
  bool in_unsafe_region();

  /// Internal: thread-exit hook, reached via the live-heap registry.
  /// Releases the cache's bump block for recycling, folds its counters
  /// into the heap totals and frees it.
  void retire_cache(ThreadCache* tc);

  /// Thread caches currently registered: one per live thread that has
  /// touched this heap.
  std::size_t thread_caches() const;

 private:
  friend class RootScope;
  friend class StackRoots;
  struct AllocCell {
    GcHeader* header = nullptr;
    void* payload = nullptr;
    ThreadCache* tc = nullptr;
  };

  AllocCell allocate(std::size_t payload_size);
  ThreadCache& cache();
  ThreadCache* cache_slow();
  void refill(ThreadCache& tc, std::size_t cell_size);

  /// Record heap growth for the watermark estimate; arms a collection
  /// once the soft threshold is crossed (GC urgency under pressure).
  void note_used_bytes(std::uint64_t add) {
    const std::uint64_t used =
        used_bytes_.fetch_add(add, std::memory_order_relaxed) + add;
    const std::uint64_t soft = soft_limit_.load(std::memory_order_relaxed);
    if (soft != 0 && used >= soft)
      gc_requested_.store(true, std::memory_order_release);
  }

  std::uint64_t collect_locked(const char* reason,
                               std::unique_lock<std::mutex>& sp);
  void collect_impl(const char* reason);
  void gather_roots(std::vector<sexpr::Value>& out);
  void mark(const std::vector<sexpr::Value>& roots);
  bool try_help_mark();
  void sweep(std::uint64_t& objects, std::uint64_t& bytes);
  void wait_for_gc_end_helping(std::unique_lock<std::mutex>& sp);

  const std::uint64_t id_;  ///< key into the thread-local cache table

  // Blocks.
  mutable std::mutex blocks_mu_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<Block*> free_blocks_;
  std::uint64_t heap_bytes_ = 0;
  std::uint64_t bytes_since_gc_ = 0;  ///< bumped on refill, under blocks_mu_

  // Thread caches of live threads, plus the allocation totals of the
  // caches whose threads have exited (all guarded by cache_mu_).
  mutable std::mutex cache_mu_;
  std::vector<std::unique_ptr<ThreadCache>> caches_;
  std::uint64_t retired_objects_ = 0;
  std::uint64_t retired_bytes_ = 0;

  // Safepoint state. unsafe_ counts threads inside unsafe regions;
  // gc_active_ marks a claimed collection (phase A: drain, entries
  // admitted); gc_stw_ marks the stop-the-world window (phase B:
  // entries bounce). seq_cst on unsafe_/gc_stw_ carries the Dekker
  // argument in the header comment.
  std::atomic<int> unsafe_{0};
  std::atomic<bool> gc_requested_{false};
  std::atomic<bool> gc_active_{false};
  std::atomic<bool> gc_stw_{false};
  mutable std::mutex sp_mu_;
  std::condition_variable sp_cv_;         ///< mutators await GC end
  std::condition_variable collector_cv_;  ///< collector awaits drain

  // Parallel-mark work sharing. The collector publishes roots/chunks,
  // flips mark_phase_ to 1 (release), and parked threads claim chunks
  // via next_chunk_. helpers_ lets the collector wait out stragglers
  // before the roots vector dies.
  std::atomic<int> mark_phase_{0};
  std::atomic<std::size_t> next_chunk_{0};
  std::atomic<std::size_t> chunks_done_{0};
  std::atomic<int> helpers_{0};
  const std::vector<sexpr::Value>* mark_roots_ = nullptr;
  std::size_t total_chunks_ = 0;

  // Totals (sweep-side, written only by the collector).
  std::atomic<std::uint64_t> freed_objects_{0};
  std::atomic<std::uint64_t> freed_bytes_{0};
  std::atomic<std::uint64_t> threshold_;

  // High-watermark state (see set_heap_limits). used_bytes_ is the
  // lock-free mirror the allocator's hard check and the admission
  // path's soft check read; the collector re-bases it to live bytes
  // after every sweep.
  std::atomic<std::uint64_t> soft_limit_{0};
  std::atomic<std::uint64_t> hard_limit_{0};
  std::atomic<std::uint64_t> used_bytes_{0};

  GcStats stats_{};  ///< collection fields; guarded by sp_mu_

  mutable std::mutex roots_mu_;
  std::vector<RootSource*> sources_;

  std::mutex cb_mu_;
  std::function<void(const GcPause&)> pause_cb_;
};

/// RAII unsafe region: hold one across any C++ code that keeps Values
/// live only on the stack (eval, apply, task bodies, reader calls).
class MutatorScope {
 public:
  explicit MutatorScope(GcHeap& h) : heap_(h) { heap_.enter_unsafe(); }
  ~MutatorScope() { heap_.exit_unsafe(); }
  MutatorScope(const MutatorScope&) = delete;
  MutatorScope& operator=(const MutatorScope&) = delete;

 private:
  GcHeap& heap_;
};

/// Explicit roots for C++ embedders: Values added here survive
/// collections for the scope's lifetime. Add values while inside a
/// MutatorScope (or otherwise before any collection can observe them);
/// the scope itself may outlive the MutatorScope that populated it.
class RootScope {
 public:
  explicit RootScope(GcHeap& h);
  ~RootScope();
  RootScope(const RootScope&) = delete;
  RootScope& operator=(const RootScope&) = delete;

  void add(sexpr::Value v);
  void clear();

 private:
  friend class GcHeap;
  GcHeap& heap_;
  ThreadCache* tc_;
  RootScope* prev_;
  std::vector<sexpr::Value> vals_;
};

/// A precise shadow-stack frame: registers a trace callback for Values
/// this C++ frame holds (an eval frame's environment, an in-flight
/// argument vector). The collector invokes trace() at collection time,
/// so mutations of the underlying storage between collections are seen
/// — unlike RootScope, which copies values at add() time.
///
/// Contract: construct and destroy only inside an unsafe region (under
/// a MutatorScope). That makes push/pop mutually exclusive with the
/// collector's walk by the stop-the-world protocol itself, so the
/// per-thread chain needs no lock. Frames let a thread release its
/// unsafe region across a long block (CriRun::run joining its servers)
/// while everything its suspended Lisp frames hold stays rooted.
class StackRoots {
 public:
  explicit StackRoots(GcHeap& h);
  virtual ~StackRoots();
  StackRoots(const StackRoots&) = delete;
  StackRoots& operator=(const StackRoots&) = delete;

  /// Report every Value this frame holds. World stopped; the owning
  /// thread is parked or blocked, so its storage is stable.
  virtual void trace(sexpr::GcVisitor& g) const = 0;

 private:
  friend class GcHeap;
  ThreadCache* tc_;
  StackRoots* prev_;
};

}  // namespace curare::gc
