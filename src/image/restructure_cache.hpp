// Content-addressed restructure cache (ROADMAP item 3c).
//
// Millions of users mostly submit the same hot programs, and every
// restructure request re-runs the paper's full §4 conflict analysis
// plus the §3.2/§5 transformation pipeline. The expensive step is
// deriving the concurrent form from the sequential one — so derive it
// once per daemon lifetime and reuse.
//
// Key = hash of the normalized program state that the answer depends
// on: the driver's definitions (Curare::definitions — every defstruct
// and defun by name, each curare-declare once, so load order and
// repeats are normalized away), the target's name, the request mode
// (named vs. sweep — a sweep skips non-recursive functions before
// transform, a named request reports them), and kRestructurerVersion.
// Bumping the version constant invalidates every cached verdict, which
// is the whole invalidation story: entries are immutable, keys are
// content-addressed, nothing is ever patched in place.
//
// Value = the exact reply chunk the miss path produced (so a hit
// answers byte-identically), the analysis verdicts a sweep needs
// (is_recursive, ok), and the transformed defun forms, which a hit
// evaluates into the *requesting* session's environment — forms are
// plain data on the shared heap, rooted here, so any session can
// install them.
//
// Bounded sharded LRU: N shards, each a mutex + intrusive LRU list, so
// concurrent sessions rarely contend. The cache is a gc::RootSource:
// cached forms stay live until eviction.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "gc/gc.hpp"
#include "obs/metrics.hpp"
#include "sexpr/value.hpp"

namespace curare {
class Curare;
}

namespace curare::image {

/// Stamped into every cache key; bump when the transformation pipeline
/// changes so stale verdicts can never be replayed.
inline constexpr std::uint32_t kRestructurerVersion = 5;

struct RestructureEntry {
  std::string text;           ///< exact reply chunk for this function
  bool ok = false;            ///< counts toward "transformed N of M"
  bool is_recursive = false;  ///< sweep mode skips non-recursive defuns
  std::vector<sexpr::Value> forms;  ///< defuns a hit installs
};

class RestructureCache : public gc::RootSource {
 public:
  /// `capacity` is the total entry bound across shards (0 = 1).
  RestructureCache(gc::GcHeap& heap, std::size_t capacity);
  ~RestructureCache() override;
  RestructureCache(const RestructureCache&) = delete;
  RestructureCache& operator=(const RestructureCache&) = delete;

  /// Wire the curare_restructure_cache_{hit,miss,evict} counters.
  void attach_metrics(obs::Metrics& m);

  /// Copies the entry out under the shard lock; counts a hit or miss.
  /// Call inside a gc::MutatorScope — the copied forms are only
  /// guaranteed alive against a concurrent eviction + collection while
  /// the caller is in an unsafe region.
  bool lookup(const std::string& key, RestructureEntry* out);

  /// Insert (or refresh) an entry; evicts LRU tail past capacity.
  void insert(const std::string& key, RestructureEntry entry);

  std::size_t size() const;
  std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// hits / (hits + misses); 0 before any lookup.
  double hit_ratio() const;

  /// Collector callback (world stopped): every cached form is live.
  void gc_roots(std::vector<sexpr::Value>& out) override;

  /// Hash state of the program-state half of a key (the driver's
  /// definitions and the restructurer version), already folded in. A
  /// sweep over N functions builds this once and mints N per-target
  /// keys from it — reprinting and rehashing kilobytes of program text
  /// per name would otherwise dominate the very hit path the cache
  /// speeds up.
  struct KeySeed {
    std::uint64_t h1 = 0;
    std::uint64_t h2 = 0;
  };

  /// Fold the driver's definitions into a seed. Call inside
  /// a MutatorScope (prints live forms).
  static KeySeed seed_state(Curare& driver);

  /// Key for one target from a precomputed seed. `named` is true when
  /// the request asked for this function explicitly (a sweep answers
  /// non-recursive functions differently, so the mode is key input).
  static std::string make_key(const KeySeed& seed,
                              const std::string& target, bool named);

  /// Convenience: seed_state + make_key in one step.
  static std::string make_key(Curare& driver, const std::string& target,
                              bool named);

 private:
  static constexpr std::size_t kShards = 8;

  struct Shard {
    mutable std::mutex mu;
    /// front = most recently used.
    std::list<std::pair<std::string, RestructureEntry>> lru;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string, RestructureEntry>>::iterator>
        index;
  };

  Shard& shard_for(const std::string& key);

  gc::GcHeap& heap_;
  const std::size_t per_shard_cap_;
  Shard shards_[kShards];
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<obs::Counter*> hit_c_{nullptr};
  std::atomic<obs::Counter*> miss_c_{nullptr};
  std::atomic<obs::Counter*> evict_c_{nullptr};
};

}  // namespace curare::image
