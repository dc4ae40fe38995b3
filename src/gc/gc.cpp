#include "gc/gc.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "runtime/fault_injector.hpp"
#include "runtime/resource.hpp"

namespace curare::gc {

namespace {

constexpr std::uint64_t kDefaultThreshold = 64ull * 1024 * 1024;

// Heaps a thread-exit hook may still need to reach. Never destroyed:
// thread_local destructors can run during process teardown after static
// destructors would have fired.
struct HeapRegistry {
  std::mutex mu;
  std::unordered_map<std::uint64_t, GcHeap*> live;
};

HeapRegistry& registry() {
  static HeapRegistry* r = new HeapRegistry;
  return *r;
}

std::atomic<std::uint64_t> g_next_heap_id{1};

// Per-thread cache lookup. The direct-mapped `hot` table serves the
// common one-heap-per-process case in a few instructions; `by_heap` is
// the authoritative (still lock-free — thread-local) fallback, so `hot`
// entries can be evicted unconditionally. Entries are keyed by the
// heap's unique id, never reused, so a stale entry for a destroyed heap
// can never be mistaken for a live one.
constexpr std::size_t kTlSlots = 16;

struct TlEntry {
  std::uint64_t heap_id = 0;
  ThreadCache* tc = nullptr;
};

struct TlState {
  TlEntry hot[kTlSlots];
  std::unordered_map<std::uint64_t, ThreadCache*> by_heap;
  ~TlState();
};

thread_local TlState g_tl;

TlState::~TlState() {
  HeapRegistry& r = registry();
  std::lock_guard<std::mutex> g(r.mu);
  for (const auto& [heap_id, tc] : by_heap) {
    auto it = r.live.find(heap_id);
    if (it != r.live.end()) it->second->retire_cache(tc);
  }
}

void spin_lock(std::atomic<bool>& l) {
  while (l.exchange(true, std::memory_order_acquire))
    std::this_thread::yield();
}

void spin_unlock(std::atomic<bool>& l) {
  l.store(false, std::memory_order_release);
}

GcHeader* header_of(const sexpr::Obj* o) {
  return reinterpret_cast<GcHeader*>(
      reinterpret_cast<char*>(const_cast<sexpr::Obj*>(o)) -
      sizeof(GcHeader));
}

/// Tri-color marker. `visit` claims white cells with a CAS (so parallel
/// markers never trace an object twice) and drains them iteratively —
/// no recursion, so million-cell lists cannot overflow the C++ stack.
class MarkVisitor final : public sexpr::GcVisitor {
 public:
  void visit(sexpr::Value v) override {
    if (!v.is_object()) return;
    sexpr::Obj* o = v.obj();
    GcHeader* h = header_of(o);
    std::uint32_t expect = kCellWhite;
    if (h->state.compare_exchange_strong(expect, kCellBlack,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      stack_.push_back(o);
    }
  }

  bool enter_region(const void* region) override {
    return regions_.insert(region).second;
  }

  void drain() {
    while (!stack_.empty()) {
      const sexpr::Obj* o = stack_.back();
      stack_.pop_back();
      o->gc_trace(*this);
    }
  }

 private:
  std::vector<const sexpr::Obj*> stack_;
  std::unordered_set<const void*> regions_;
};

constexpr std::size_t kMarkChunk = 64;

}  // namespace

// ---- construction ------------------------------------------------------

GcHeap::GcHeap()
    : id_(g_next_heap_id.fetch_add(1, std::memory_order_relaxed)),
      threshold_(kDefaultThreshold) {
  HeapRegistry& r = registry();
  std::lock_guard<std::mutex> g(r.mu);
  r.live.emplace(id_, this);
}

GcHeap::~GcHeap() {
  {
    HeapRegistry& r = registry();
    std::lock_guard<std::mutex> g(r.mu);
    r.live.erase(id_);
  }
  // Destroy every object still alive. Single-threaded by contract: the
  // embedder tears the Ctx down only after joining all mutators.
  std::lock_guard<std::mutex> bg(blocks_mu_);
  for (auto& b : blocks_) {
    char* p = b->mem.get();
    char* end = p + b->used;
    while (p < end) {
      auto* h = reinterpret_cast<GcHeader*>(p);
      if (h->state.load(std::memory_order_relaxed) != kCellFree)
        reinterpret_cast<sexpr::Obj*>(p + sizeof(GcHeader))->~Obj();
      p += h->size;
    }
  }
}

// ---- thread caches -----------------------------------------------------

ThreadCache& GcHeap::cache() {
  TlEntry& e = g_tl.hot[id_ % kTlSlots];
  if (e.heap_id == id_) return *e.tc;
  return *cache_slow();
}

ThreadCache* GcHeap::cache_slow() {
  ThreadCache* tc;
  auto it = g_tl.by_heap.find(id_);
  if (it != g_tl.by_heap.end()) {
    tc = it->second;
  } else {
    std::lock_guard<std::mutex> g(cache_mu_);
    caches_.push_back(std::make_unique<ThreadCache>());
    tc = caches_.back().get();
    g_tl.by_heap.emplace(id_, tc);
  }
  g_tl.hot[id_ % kTlSlots] = TlEntry{id_, tc};
  return tc;
}

void GcHeap::retire_cache(ThreadCache* tc) {
  // Thread-exit hook (runs under the registry lock). The thread will
  // never allocate again: release its block so a future sweep can
  // recycle it once the block's cells die, fold its counters into the
  // heap-level totals that back live_objects(), and free the cache, so
  // the counter sums and the root walk cover live threads only.
  std::lock_guard<std::mutex> g(cache_mu_);
  if (tc->block) {
    tc->block->owner.store(nullptr, std::memory_order_release);
    tc->block = nullptr;
  }
  retired_objects_ += tc->alloc_objects.load(std::memory_order_relaxed);
  retired_bytes_ += tc->alloc_bytes.load(std::memory_order_relaxed);
  caches_.erase(std::find_if(caches_.begin(), caches_.end(),
                             [tc](const auto& p) { return p.get() == tc; }));
}

std::size_t GcHeap::thread_caches() const {
  std::lock_guard<std::mutex> g(cache_mu_);
  return caches_.size();
}

// ---- allocation --------------------------------------------------------

GcHeap::AllocCell GcHeap::allocate(std::size_t payload_size) {
  // Fault site: an injected throw exercises every allocation path's
  // unwind (make() keeps the unsafe region balanced; callers see a
  // LispError like any other body failure). Header-only hook — gc
  // stays link-independent of the runtime library.
  runtime::FaultInjector::instance().check(
      runtime::FaultInjector::Site::kGcAlloc);
  std::size_t cell = sizeof(GcHeader) + payload_size;
  cell = (cell + (kCellAlign - 1)) & ~(kCellAlign - 1);

  // Resource governance (DESIGN.md §14), checked before the cell is
  // carved so a throw leaves nothing half-built — the same unwind
  // contract the fault-injection site above already proves: make()
  // balances the unsafe region and no counter was bumped.
  runtime::charge_allocation(cell);
  const std::uint64_t hard = hard_limit_.load(std::memory_order_relaxed);
  if (hard != 0 &&
      used_bytes_.load(std::memory_order_relaxed) + cell > hard) {
    // Fail this allocation instead of growing toward the OS OOM
    // killer, and arm a collection so the pressure can recede at the
    // next quiescent point.
    gc_requested_.store(true, std::memory_order_release);
    throw runtime::ResourceExhausted(
        runtime::ResourceExhausted::Kind::kHeapHard,
        "heap hard watermark: " +
            std::to_string(used_bytes_.load(std::memory_order_relaxed)) +
            " byte(s) in use, limit " + std::to_string(hard));
  }

  ThreadCache& tc = cache();
  char* p;
  if (cell > kBlockSize) {
    // Oversized: a dedicated block, never bump-shared, reclaimed whole.
    std::lock_guard<std::mutex> g(blocks_mu_);
    blocks_.push_back(std::make_unique<Block>(cell));
    Block* b = blocks_.back().get();
    b->used = cell;
    heap_bytes_ += cell;
    bytes_since_gc_ += cell;
    const std::uint64_t thr = threshold_.load(std::memory_order_relaxed);
    if (thr != 0 && bytes_since_gc_ >= thr)
      gc_requested_.store(true, std::memory_order_release);
    note_used_bytes(cell);
    p = b->mem.get();
  } else {
    Block* b = tc.block;
    if (b == nullptr || b->capacity - b->used < cell) {
      refill(tc, cell);
      b = tc.block;
    }
    p = b->mem.get() + b->used;
    b->used += cell;
  }

  auto* h = new (p) GcHeader;
  h->size = static_cast<std::uint32_t>(cell);
  h->state.store(kCellFree, std::memory_order_relaxed);
  return {h, p + sizeof(GcHeader), &tc};
}

void GcHeap::refill(ThreadCache& tc, std::size_t /*cell_size*/) {
  std::lock_guard<std::mutex> g(blocks_mu_);
  if (tc.block) {
    // Exhausted block: disown it. It stays in blocks_; its cells are
    // reclaimed individually by sweeps and the block itself recycles
    // once fully dead.
    tc.block->owner.store(nullptr, std::memory_order_release);
    tc.block = nullptr;
  }
  Block* b;
  if (!free_blocks_.empty()) {
    b = free_blocks_.back();
    free_blocks_.pop_back();
  } else {
    blocks_.push_back(std::make_unique<Block>(kBlockSize));
    b = blocks_.back().get();
    heap_bytes_ += kBlockSize;
  }
  b->owner.store(&tc, std::memory_order_release);
  tc.block = b;
  bytes_since_gc_ += kBlockSize;
  const std::uint64_t thr = threshold_.load(std::memory_order_relaxed);
  if (thr != 0 && bytes_since_gc_ >= thr)
    gc_requested_.store(true, std::memory_order_release);
  // Block-granular growth is good enough for the watermark estimate:
  // the whole block is about to be carved into cells.
  note_used_bytes(kBlockSize);
}

std::size_t GcHeap::reserve_blocks(std::size_t bytes) {
  const std::size_t want = (bytes + kBlockSize - 1) / kBlockSize;
  std::lock_guard<std::mutex> g(blocks_mu_);
  std::size_t added = 0;
  // Top up rather than always grow: blocks parked by earlier sweeps
  // count toward the reservation.
  while (free_blocks_.size() < want) {
    blocks_.push_back(std::make_unique<Block>(kBlockSize));
    free_blocks_.push_back(blocks_.back().get());
    heap_bytes_ += kBlockSize;
    ++added;
  }
  return added;
}

// ---- counters ----------------------------------------------------------

std::uint64_t GcHeap::live_objects() const {
  std::uint64_t n = 0;
  {
    std::lock_guard<std::mutex> g(cache_mu_);
    n = retired_objects_;
    for (const auto& tc : caches_)
      n += tc->alloc_objects.load(std::memory_order_relaxed);
  }
  return n - freed_objects_.load(std::memory_order_relaxed);
}

std::uint64_t GcHeap::live_bytes() const {
  std::uint64_t n = 0;
  {
    std::lock_guard<std::mutex> g(cache_mu_);
    n = retired_bytes_;
    for (const auto& tc : caches_)
      n += tc->alloc_bytes.load(std::memory_order_relaxed);
  }
  return n - freed_bytes_.load(std::memory_order_relaxed);
}

GcStats GcHeap::stats() const {
  GcStats s;
  {
    std::lock_guard<std::mutex> g(sp_mu_);
    s = stats_;
  }
  s.reclaimed_objects = freed_objects_.load(std::memory_order_relaxed);
  s.reclaimed_bytes = freed_bytes_.load(std::memory_order_relaxed);
  s.live_objects = live_objects();
  s.live_bytes = live_bytes();
  {
    std::lock_guard<std::mutex> g(blocks_mu_);
    s.heap_bytes = heap_bytes_;
    s.total_blocks = blocks_.size();
    s.free_blocks = free_blocks_.size();
  }
  return s;
}

// ---- root sources ------------------------------------------------------

void GcHeap::add_root_source(RootSource* s) {
  std::lock_guard<std::mutex> g(roots_mu_);
  sources_.push_back(s);
}

void GcHeap::remove_root_source(RootSource* s) {
  std::lock_guard<std::mutex> g(roots_mu_);
  sources_.erase(std::remove(sources_.begin(), sources_.end(), s),
                 sources_.end());
}

void GcHeap::set_pause_callback(std::function<void(const GcPause&)> cb) {
  std::lock_guard<std::mutex> g(cb_mu_);
  pause_cb_ = std::move(cb);
}

// ---- safepoints --------------------------------------------------------

void GcHeap::enter_unsafe() {
  ThreadCache& tc = cache();
  if (tc.unsafe_depth++ != 0) return;
  for (;;) {
    unsafe_.fetch_add(1, std::memory_order_seq_cst);
    if (!gc_stw_.load(std::memory_order_seq_cst)) return;
    // A stop-the-world window is open (or opening): back out, wake the
    // collector, park until the collection ends, retry. The seq_cst
    // pairing with the collector's stw-store/unsafe-load guarantees at
    // least one side observes the other, so a thread can never run
    // unsafe during a window the collector believes is quiescent.
    unsafe_.fetch_sub(1, std::memory_order_seq_cst);
    std::unique_lock<std::mutex> sp(sp_mu_);
    collector_cv_.notify_one();
    if (gc_active_.load(std::memory_order_seq_cst))
      wait_for_gc_end_helping(sp);
  }
}

void GcHeap::exit_unsafe() {
  ThreadCache& tc = cache();
  if (--tc.unsafe_depth != 0) return;
  unsafe_.fetch_sub(1, std::memory_order_seq_cst);
  if (gc_active_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> sp(sp_mu_);
    collector_cv_.notify_one();
  }
}

std::size_t GcHeap::blocking_release() {
  ThreadCache& tc = cache();
  const std::size_t d = tc.unsafe_depth;
  if (d == 0) return 0;
  tc.unsafe_depth = 0;
  unsafe_.fetch_sub(1, std::memory_order_seq_cst);
  if (gc_active_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> sp(sp_mu_);
    collector_cv_.notify_one();
  }
  return d;
}

void GcHeap::blocking_reacquire(std::size_t depth) {
  if (depth == 0) return;
  enter_unsafe();  // waits out any stop-the-world in progress
  cache().unsafe_depth = depth;
}

bool GcHeap::in_unsafe_region() { return cache().unsafe_depth != 0; }

void GcHeap::wait_for_gc_end_helping(std::unique_lock<std::mutex>& sp) {
  while (gc_active_.load(std::memory_order_seq_cst)) {
    if (mark_phase_.load(std::memory_order_seq_cst) == 1) {
      sp.unlock();
      while (try_help_mark()) {
      }
      sp.lock();
      continue;
    }
    // Short timeout so parked threads notice the mark phase promptly.
    sp_cv_.wait_for(sp, std::chrono::milliseconds(1));
  }
}

// ---- collection --------------------------------------------------------

bool GcHeap::maybe_collect() {
  if (gc_active_.load(std::memory_order_seq_cst)) {
    // Join a collection somebody else started.
    if (cache().unsafe_depth != 0) return false;
    std::unique_lock<std::mutex> sp(sp_mu_);
    if (!gc_active_.load(std::memory_order_seq_cst)) return false;
    wait_for_gc_end_helping(sp);
    return true;
  }
  if (!gc_requested_.load(std::memory_order_acquire)) return false;
  collect("threshold");
  return true;
}

std::uint64_t GcHeap::collect(const char* reason) {
  if (cache().unsafe_depth != 0) {
    // Not a quiescent point for this thread: arm the next one instead.
    request_collection();
    return 0;
  }
  std::unique_lock<std::mutex> sp(sp_mu_);
  if (gc_active_.load(std::memory_order_seq_cst)) {
    wait_for_gc_end_helping(sp);
    return 0;
  }
  return collect_locked(reason, sp);
}

std::uint64_t GcHeap::collect_locked(const char* reason,
                                     std::unique_lock<std::mutex>& sp) {
  gc_active_.store(true, std::memory_order_seq_cst);
  gc_requested_.store(false, std::memory_order_relaxed);

  // Phase A: wait for running mutators to reach quiescent points. New
  // unsafe entries are still admitted — required so a thread blocked
  // unsafe on a future lets the worker that resolves it proceed.
  collector_cv_.wait(sp, [&] {
    return unsafe_.load(std::memory_order_seq_cst) == 0;
  });
  // Phase B: raise the fence and re-drain the entries that slipped in
  // between our count read and the fence store (Dekker, see header).
  gc_stw_.store(true, std::memory_order_seq_cst);
  collector_cv_.wait(sp, [&] {
    return unsafe_.load(std::memory_order_seq_cst) == 0;
  });
  sp.unlock();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<sexpr::Value> roots;
  gather_roots(roots);
  mark(roots);
  std::uint64_t swept_objects = 0;
  std::uint64_t swept_bytes = 0;
  sweep(swept_objects, swept_bytes);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t pause_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
          .count());

  freed_objects_.fetch_add(swept_objects, std::memory_order_relaxed);
  freed_bytes_.fetch_add(swept_bytes, std::memory_order_relaxed);

  GcPause p;
  p.pause_ns = pause_ns;
  p.reclaimed_objects = swept_objects;
  p.reclaimed_bytes = swept_bytes;
  p.live_objects = live_objects();
  p.reason = reason;
  // Re-base the watermark estimate to what actually survived: the
  // soft/hard checks measure live + growth-since-GC, so pressure
  // recedes when a collection reclaims.
  used_bytes_.store(live_bytes(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> bg(blocks_mu_);
    p.heap_bytes = heap_bytes_;
  }

  sp.lock();
  stats_.collections += 1;
  stats_.last_pause_ns = pause_ns;
  stats_.total_pause_ns += pause_ns;
  stats_.max_pause_ns = std::max(stats_.max_pause_ns, pause_ns);
  p.collections = stats_.collections;
  gc_stw_.store(false, std::memory_order_seq_cst);
  gc_active_.store(false, std::memory_order_seq_cst);
  sp.unlock();
  sp_cv_.notify_all();

  std::function<void(const GcPause&)> cb;
  {
    std::lock_guard<std::mutex> g(cb_mu_);
    cb = pause_cb_;
  }
  if (cb) cb(p);
  return swept_bytes;
}

namespace {
/// Adapter that funnels StackRoots::trace output into the root vector;
/// regions dedup shared Env chains across frames.
class GatherVisitor final : public sexpr::GcVisitor {
 public:
  explicit GatherVisitor(std::vector<sexpr::Value>& out) : out_(out) {}
  void visit(sexpr::Value v) override {
    if (v.is_object()) out_.push_back(v);
  }
  bool enter_region(const void* region) override {
    return regions_.insert(region).second;
  }

 private:
  std::vector<sexpr::Value>& out_;
  std::unordered_set<const void*> regions_;
};
}  // namespace

void GcHeap::gather_roots(std::vector<sexpr::Value>& out) {
  {
    std::lock_guard<std::mutex> g(roots_mu_);
    for (RootSource* s : sources_) s->gc_roots(out);
  }
  std::lock_guard<std::mutex> g(cache_mu_);
  GatherVisitor gv(out);
  for (const auto& tc : caches_) {
    spin_lock(tc->roots_lock);
    for (RootScope* r = tc->roots_head; r != nullptr; r = r->prev_)
      out.insert(out.end(), r->vals_.begin(), r->vals_.end());
    spin_unlock(tc->roots_lock);
    for (StackRoots* f = tc->frames_head; f != nullptr; f = f->prev_)
      f->trace(gv);
  }
}

void GcHeap::mark(const std::vector<sexpr::Value>& roots) {
  if (roots.size() <= 2 * kMarkChunk) {
    MarkVisitor v;
    for (sexpr::Value r : roots) v.visit(r);
    v.drain();
    return;
  }
  // Fan out: publish the chunked root array, open the mark phase, and
  // process chunks alongside any threads parked at the fence.
  total_chunks_ = (roots.size() + kMarkChunk - 1) / kMarkChunk;
  mark_roots_ = &roots;
  next_chunk_.store(0, std::memory_order_relaxed);
  chunks_done_.store(0, std::memory_order_relaxed);
  mark_phase_.store(1, std::memory_order_seq_cst);
  while (try_help_mark()) {
  }
  while (chunks_done_.load(std::memory_order_seq_cst) < total_chunks_)
    std::this_thread::yield();
  mark_phase_.store(0, std::memory_order_seq_cst);
  // Wait out helpers mid-claim before the roots vector dies. A helper
  // that read phase==1 registered in helpers_ first (seq_cst total
  // order), so this wait cannot miss it.
  while (helpers_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  mark_roots_ = nullptr;
}

bool GcHeap::try_help_mark() {
  helpers_.fetch_add(1, std::memory_order_seq_cst);
  bool did = false;
  if (mark_phase_.load(std::memory_order_seq_cst) == 1) {
    const std::size_t chunk =
        next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (chunk < total_chunks_) {
      const std::vector<sexpr::Value>& roots = *mark_roots_;
      const std::size_t lo = chunk * kMarkChunk;
      const std::size_t hi = std::min(roots.size(), lo + kMarkChunk);
      MarkVisitor v;
      for (std::size_t i = lo; i < hi; ++i) v.visit(roots[i]);
      v.drain();
      chunks_done_.fetch_add(1, std::memory_order_seq_cst);
      did = true;
    }
  }
  helpers_.fetch_sub(1, std::memory_order_seq_cst);
  return did;
}

void GcHeap::sweep(std::uint64_t& objects, std::uint64_t& bytes) {
  std::lock_guard<std::mutex> g(blocks_mu_);
  for (std::size_t i = 0; i < blocks_.size();) {
    Block& b = *blocks_[i];
    if (b.used == 0) {
      ++i;
      continue;
    }
    char* p = b.mem.get();
    char* end = p + b.used;
    std::size_t live = 0;
    while (p < end) {
      auto* h = reinterpret_cast<GcHeader*>(p);
      const std::uint32_t sz = h->size;
      const std::uint32_t st = h->state.load(std::memory_order_relaxed);
      if (st == kCellBlack) {
        h->state.store(kCellWhite, std::memory_order_relaxed);
        ++live;
      } else if (st == kCellWhite) {
        reinterpret_cast<sexpr::Obj*>(p + sizeof(GcHeader))->~Obj();
        h->state.store(kCellFree, std::memory_order_relaxed);
        ++objects;
        bytes += sz;
      }
      p += sz;
    }
    if (live == 0) {
      if (b.oversized) {
        heap_bytes_ -= b.capacity;
        blocks_.erase(blocks_.begin() +
                      static_cast<std::ptrdiff_t>(i));
        continue;
      }
      b.used = 0;
      if (b.owner.load(std::memory_order_acquire) == nullptr)
        free_blocks_.push_back(&b);
    }
    ++i;
  }
  bytes_since_gc_ = 0;
}

// ---- RootScope ---------------------------------------------------------

StackRoots::StackRoots(GcHeap& h) : tc_(&h.cache()) {
  prev_ = tc_->frames_head;
  tc_->frames_head = this;
}

StackRoots::~StackRoots() { tc_->frames_head = prev_; }

RootScope::RootScope(GcHeap& h) : heap_(h), tc_(&h.cache()) {
  spin_lock(tc_->roots_lock);
  prev_ = tc_->roots_head;
  tc_->roots_head = this;
  spin_unlock(tc_->roots_lock);
}

RootScope::~RootScope() {
  spin_lock(tc_->roots_lock);
  RootScope** p = &tc_->roots_head;
  while (*p != nullptr && *p != this) p = &(*p)->prev_;
  if (*p != nullptr) *p = prev_;
  spin_unlock(tc_->roots_lock);
}

void RootScope::add(sexpr::Value v) {
  spin_lock(tc_->roots_lock);
  vals_.push_back(v);
  spin_unlock(tc_->roots_lock);
}

void RootScope::clear() {
  spin_lock(tc_->roots_lock);
  vals_.clear();
  spin_unlock(tc_->roots_lock);
}

}  // namespace curare::gc
