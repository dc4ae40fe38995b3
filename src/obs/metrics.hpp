// Metrics registry: named counters, gauges, and fixed-bucket
// histograms, all lock-free on the update path (relaxed atomics).
//
// Lookup by name takes the registry mutex, so hot paths resolve their
// instruments once (e.g. at construction) and keep the reference —
// references returned by the registry are stable for its lifetime.
//
// Well-known instrument names used by the runtime:
//   lock.acquisitions       counter   every LockManager::lock
//   lock.contended          counter   acquisitions that had to wait
//   lock.wait_ns            histogram blocked time per contended acquire
//   cri.invocations         counter   invocations started (tasks, or
//                                     head-loop iterations)
//   cri.enqueues            counter   %cri-enqueue and %cri-tail calls
//   cri.queue_depth         histogram depth sampled at each enqueue
//   cri.head_ns / tail_ns   counter   summed measured head/tail time
//   cri.busy_ns / idle_ns   counter   summed server busy/blocked time
//   cri.queue.notify_sent   counter   pushes that woke a sleeping server
//   cri.queue.notify_suppressed counter pushes with no sleeper (cv skipped)
//   cri.queue.spill_pushes  counter   pushes that overflowed a site ring
//   cri.queue.sleeps        counter   times a server actually blocked
//   cri.queue.steals        counter   tasks taken from another server's lane
//   cri.sequential_fallback counter   f$parallel calls that ran the
//                                     original defun (§4.1 gave S = 1)
//   cri.sequential_fallback.c_f_milli gauge  the last such call's c_f·1000
//   future.spawned          counter   futures created
//   future.touches          counter   touch() calls
//   future.touch_waits      counter   touches that blocked
//   future.wait_ns          histogram blocked time per waiting touch
//   future.helped           counter   queued tasks run while waiting
//   cri.gc.collections      counter   stop-the-world collections
//   cri.gc.pause_ns         histogram pause length per collection
//   cri.gc.reclaimed_objects counter  objects swept across collections
//   cri.gc.reclaimed_bytes  counter   bytes swept across collections
//   cri.gc.live_objects     gauge     live objects after the last GC
//   cri.gc.heap_bytes       gauge     block bytes held after the last GC
//   obs.trace.dropped       counter   trace events lost to ring wrap
//   serve.sessions          gauge     connected serving sessions
//   serve.requests          counter   requests handled by the daemon
//   serve.request_ns        histogram end-to-end request latency
//   serve.inflight          gauge     requests currently executing
//   serve.queue_depth       gauge     requests waiting for admission
//   serve.admitted          counter   requests past admission control
//   serve.rejected.overload counter   requests bounced queue-full
//   serve.rejected.deadline counter   requests expired while queued
//   serve.queue_wait_ns     histogram admission wait per admitted request
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace curare::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A counter many threads bump on their hot path: each thread adds to
/// its own cache-line-sized shard (assigned round-robin on its first
/// add), so concurrent adders never write a shared line. get() sums
/// the shards; it is exact whenever no add is in flight.
class ShardedCounter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get() const {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shard_index() {
    // 0 means "not assigned yet", so the thread_local needs no
    // dynamic initialization.
    static thread_local std::size_t idx = 0;
    if (idx == 0) {
      static std::atomic<std::size_t> next{0};
      idx = next.fetch_add(1, std::memory_order_relaxed) % kShards + 1;
    }
    return idx - 1;
  }
  std::array<Shard, kShards> shards_;
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Histogram over fixed upper-bound buckets (a final +inf bucket is
/// implicit). Tracks count, sum, min, and max exactly; quantiles are
/// interpolated within the landing bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t x);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const;
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;
  /// q in [0,1]; linear interpolation inside the landing bucket.
  double quantile(double q) const;

  std::size_t num_buckets() const { return buckets_.size(); }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket i; the last bucket is unbounded.
  std::uint64_t bound(std::size_t i) const {
    return i < bounds_.size() ? bounds_[i] : UINT64_MAX;
  }

  /// An unsynchronized accumulator for one thread's observations, folded
  /// in later by merge(): a hot path that owns a Shard observes without
  /// writing any line other threads write.
  class Shard {
   public:
    explicit Shard(const Histogram& h)
        : h_(&h), buckets_(h.num_buckets(), 0) {}
    void observe(std::uint64_t x) {
      ++buckets_[h_->bucket_of(x)];
      ++count_;
      sum_ += x;
      if (x < min_) min_ = x;
      if (x > max_) max_ = x;
    }

   private:
    friend class Histogram;
    const Histogram* h_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = UINT64_MAX;
    std::uint64_t max_ = 0;
  };

  /// Fold a shard of this histogram in, as if each of its observations
  /// had been made here.
  void merge(const Shard& s);

  /// Default bounds for nanosecond durations: 1µs…~17s, ×4 steps.
  static std::vector<std::uint64_t> default_ns_bounds();
  /// Default bounds for small cardinalities (queue depths): 1…4096, ×2.
  static std::vector<std::uint64_t> default_depth_bounds();

 private:
  std::size_t bucket_of(std::uint64_t x) const;
  void note_min_max(std::uint64_t lo, std::uint64_t hi);

  std::vector<std::uint64_t> bounds_;  ///< sorted upper bounds
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds + inf
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

class Metrics {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Creates with `bounds` on first use (default_ns_bounds if empty);
  /// later calls return the existing histogram regardless of bounds.
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds = {});

  /// Snapshot of everything, sorted by name, human-readable.
  std::string to_string() const;
  /// One JSON object with a field per instrument.
  std::string to_json() const;
  /// Prometheus text exposition (one scrape-able document): counters
  /// and gauges as plain samples, histograms as summary-style
  /// p50/p90/p99 quantile samples plus _sum/_count. Instrument names
  /// are sanitized (dots → underscores) and prefixed "curare_".
  std::string to_prometheus() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace curare::obs
