// Deterministic fault injection for the runtime's blocking paths.
//
// The paper's correctness argument (§3.2) covers programs produced by
// the transformations; the error paths the runtime grew around them —
// draining a run after a body throw, mid-run collections, cancelled
// waits — only get exercised when something goes wrong. The injector
// makes "something goes wrong" reproducible: five named sites cover
// every class of blocking or allocating step, and a seeded splitmix64
// stream decides, per site and per arrival, whether to perturb it with
// a delay (schedule skew), a throw (forced error path), or a spurious
// wakeup (cv robustness).
//
// Sites:
//   lock.acquire   LockManager::lock, before the shard is examined
//   queue.push     all TaskQueues impls, before the task is enqueued
//   future.spawn   FuturePool::spawn, before the state exists
//   task.run       CriRun server bodies and FuturePool task bodies
//   gc.alloc       GcHeap::allocate, before the cell is carved
//   queue.steal    WorkStealingTaskQueues, before a steal round probes
//                  victim lanes (never fires on the owner fast path)
//
// Determinism: each site keeps its own arrival counter; the decision
// for arrival n at site s is a pure function of (seed, s, n). Thread
// interleaving changes which thread draws which arrival, never the
// multiset of injected faults — a fixed seed yields a reproducible
// fault mix.
//
// Cost when disabled: exactly one relaxed atomic load per site visit
// (the acceptance bar for bench_queue/bench_heap regressions).
//
// Header-only on purpose: gc (a lower layer than runtime) hooks the
// gc.alloc site without gaining a link dependency on curare_runtime.
#pragma once

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "runtime/splitmix.hpp"
#include "sexpr/value.hpp"

namespace curare::runtime {

/// Thrown by a `throw`-kind injection. A LispError subclass so every
/// consumer (server bodies, future tasks, builtins) treats it exactly
/// like a user-program error — the paths under test.
class FaultInjectedError : public sexpr::LispError {
 public:
  explicit FaultInjectedError(std::string msg)
      : LispError(std::move(msg)) {}
};

class FaultInjector {
 public:
  enum class Site : unsigned {
    kLockAcquire = 0,
    kQueuePush,
    kFutureSpawn,
    kTaskRun,
    kGcAlloc,
    kQueueSteal,
  };
  static constexpr std::size_t kNumSites = 6;

  /// Fault kinds, combinable as a bitmask.
  enum Kind : unsigned {
    kDelay = 1u << 0,  ///< sleep 10–200 µs at the site
    kThrow = 1u << 1,  ///< throw FaultInjectedError out of the site
    kWake = 1u << 2,   ///< spurious wakeup: check() returns true and the
                       ///< site notifies its condition variable
    kAllKinds = kDelay | kThrow | kWake,
  };

  static const char* site_name(Site s) {
    static constexpr const char* kNames[kNumSites] = {
        "lock.acquire", "queue.push", "future.spawn", "task.run",
        "gc.alloc",     "queue.steal"};
    return kNames[static_cast<unsigned>(s)];
  }

  /// All-sites bitmask (bit i = Site i); the default scope of a chaos
  /// run. Narrow with configure()'s `sites` to aim faults at specific
  /// subsystems (e.g. queue.push|task.run for the serving smoke).
  static constexpr unsigned kAllSites = (1u << kNumSites) - 1;

  /// Resolve "queue.push" → its mask bit; false on unknown names.
  static bool site_bit(std::string_view name, unsigned& bit) {
    for (unsigned i = 0; i < kNumSites; ++i) {
      if (name == site_name(static_cast<Site>(i))) {
        bit = 1u << i;
        return true;
      }
    }
    return false;
  }

  /// The arguments of configure(), as parsed from a chaos spec.
  struct Spec {
    std::uint64_t seed = 0;
    double rate = 0;
    unsigned kinds = kAllKinds;
    unsigned sites = kAllSites;
  };

  /// The one chaos grammar every front end accepts (curare --chaos,
  /// curare_serve --chaos, the CURARE_CHAOS variable of bench_serve
  /// and gc_soak):
  ///
  ///   SEED:RATE[:KINDS[:SITES]]
  ///
  ///   SEED   unsigned 64-bit integer, decimal or 0x-prefixed hex
  ///   RATE   per-visit fault probability in (0,1]
  ///   KINDS  comma list of delay, throw, wake, all; empty = all
  ///   SITES  comma list of site names (site_name), all; empty = all
  ///
  /// e.g. "1234:0.02", "0x4d2:0.02:delay,throw", "7:0.1::queue.steal".
  /// nullopt for anything else — a missing or fifth field, junk after
  /// a number, an empty or unknown list item — so a typo fails loudly
  /// instead of running without the faults it asked for.
  static std::optional<Spec> parse_spec(std::string_view text) {
    std::string_view fields[4];
    std::size_t n = 0;
    for (;;) {
      if (n == 4) return std::nullopt;
      const auto colon = text.find(':');
      fields[n++] = text.substr(0, colon);
      if (colon == std::string_view::npos) break;
      text.remove_prefix(colon + 1);
    }
    if (n < 2) return std::nullopt;
    Spec spec;
    std::string_view seed = fields[0];
    int base = 10;
    if (seed.starts_with("0x") || seed.starts_with("0X")) {
      seed.remove_prefix(2);
      base = 16;
    }
    if (!parse_whole(seed, spec.seed, base) ||
        !parse_whole(fields[1], spec.rate) ||
        !(spec.rate > 0.0 && spec.rate <= 1.0)) {
      return std::nullopt;
    }
    if (n > 2 && !parse_list(fields[2], kind_bit, kAllKinds, spec.kinds))
      return std::nullopt;
    if (n > 3 && !parse_list(fields[3], site_bit, kAllSites, spec.sites))
      return std::nullopt;
    return spec;
  }

  /// Process-wide singleton: GcHeap and the queues have no path to a
  /// per-runtime object, and chaos runs are process-scoped anyway.
  static FaultInjector& instance() {
    static FaultInjector fi;
    return fi;
  }

  /// Arm the injector. `rate` in [0,1] is the per-visit fault
  /// probability; `kinds` selects which faults may fire. Not meant to
  /// race in-flight check() calls with a *reconfigure* (enable/disable
  /// are fine): tests configure at quiescent points.
  void configure(std::uint64_t seed, double rate,
                 unsigned kinds = kAllKinds, unsigned sites = kAllSites) {
    seed_.store(seed, std::memory_order_relaxed);
    site_mask_.store(sites & kAllSites, std::memory_order_relaxed);
    if (rate < 0) rate = 0;
    if (rate > 1) rate = 1;
    rate_bits_.store(
        rate >= 1.0 ? UINT64_MAX
                    : static_cast<std::uint64_t>(
                          rate * 18446744073709551616.0 /* 2^64 */),
        std::memory_order_relaxed);
    kinds_.store(kinds, std::memory_order_relaxed);
    for (auto& c : seq_) c.store(0, std::memory_order_relaxed);
    for (auto& c : delays_) c.store(0, std::memory_order_relaxed);
    for (auto& c : throws_) c.store(0, std::memory_order_relaxed);
    for (auto& c : wakes_) c.store(0, std::memory_order_relaxed);
    enabled_.store(kinds != 0 && rate > 0, std::memory_order_release);
  }

  void disable() { enabled_.store(false, std::memory_order_release); }

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// The per-site hook. Disabled cost: one relaxed load. Returns true
  /// when a spurious-wakeup fault fired — the caller should notify the
  /// condition variable guarding its waiters (callers without one may
  /// ignore the result). May sleep (delay fault) or throw
  /// FaultInjectedError (throw fault).
  bool check(Site s) {
    if (!enabled_.load(std::memory_order_relaxed)) return false;
    if ((site_mask_.load(std::memory_order_relaxed) &
         (1u << static_cast<unsigned>(s))) == 0) {
      return false;
    }
    return act(s);
  }

  struct SiteStats {
    std::uint64_t visits = 0;
    std::uint64_t delays = 0;
    std::uint64_t throws = 0;
    std::uint64_t wakes = 0;
  };

  SiteStats stats(Site s) const {
    const auto i = static_cast<unsigned>(s);
    return SiteStats{seq_[i].load(std::memory_order_relaxed),
                     delays_[i].load(std::memory_order_relaxed),
                     throws_[i].load(std::memory_order_relaxed),
                     wakes_[i].load(std::memory_order_relaxed)};
  }

  /// Human-readable state (the :resilience REPL payload).
  std::string report() const {
    std::string out;
    if (!enabled()) {
      out = "fault injector: disabled\n";
    } else {
      out = "fault injector: seed=" +
            std::to_string(seed_.load(std::memory_order_relaxed)) +
            " kinds=" + kinds_string() + "\n";
    }
    for (unsigned i = 0; i < kNumSites; ++i) {
      const SiteStats st = stats(static_cast<Site>(i));
      if (st.visits == 0 && !enabled()) continue;
      out += "  ";
      out += site_name(static_cast<Site>(i));
      out += ": " + std::to_string(st.visits) + " visit(s), " +
             std::to_string(st.delays) + " delay(s), " +
             std::to_string(st.throws) + " throw(s), " +
             std::to_string(st.wakes) + " wake(s)\n";
    }
    return out;
  }

 private:
  FaultInjector() = default;

  static bool kind_bit(std::string_view name, unsigned& bit) {
    if (name == "delay") {
      bit = kDelay;
    } else if (name == "throw") {
      bit = kThrow;
    } else if (name == "wake") {
      bit = kWake;
    } else {
      return false;
    }
    return true;
  }

  /// from_chars over the whole of `text`: no sign, space or trailing
  /// junk, and no out-of-range value.
  template <typename T, typename... Base>
  static bool parse_whole(std::string_view text, T& out, Base... base) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, base...);
    return ec == std::errc() && ptr == end;
  }

  /// A comma list of names resolved to bits; empty or "all" keeps
  /// `out` at its default.
  static bool parse_list(std::string_view text,
                         bool (*resolve)(std::string_view, unsigned&),
                         unsigned all, unsigned& out) {
    if (text.empty()) return true;
    out = 0;
    for (;;) {
      const auto comma = text.find(',');
      const std::string_view item = text.substr(0, comma);
      unsigned bit = 0;
      if (item == "all") {
        bit = all;
      } else if (!resolve(item, bit)) {
        return false;
      }
      out |= bit;
      if (comma == std::string_view::npos) return true;
      text.remove_prefix(comma + 1);
    }
  }

  std::string kinds_string() const {
    const unsigned k = kinds_.load(std::memory_order_relaxed);
    std::string s;
    if (k & kDelay) s += "delay,";
    if (k & kThrow) s += "throw,";
    if (k & kWake) s += "wake,";
    if (!s.empty()) s.pop_back();
    return s;
  }

  bool act(Site s) {
    const auto i = static_cast<unsigned>(s);
    const std::uint64_t n = seq_[i].fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t seed = seed_.load(std::memory_order_relaxed);
    const std::uint64_t x =
        splitmix64(seed ^ splitmix64((i + 1) * 0x9E3779B97F4A7C15ull) ^
                   splitmix64(n));
    if (x >= rate_bits_.load(std::memory_order_relaxed)) return false;

    // Pick among the enabled kinds with fresh bits so the kind choice
    // is independent of the fire decision.
    const unsigned kinds = kinds_.load(std::memory_order_relaxed);
    unsigned avail[3];
    unsigned count = 0;
    if (kinds & kDelay) avail[count++] = kDelay;
    if (kinds & kThrow) avail[count++] = kThrow;
    if (kinds & kWake) avail[count++] = kWake;
    if (count == 0) return false;
    const std::uint64_t y = splitmix64(x);
    switch (avail[y % count]) {
      case kDelay: {
        delays_[i].fetch_add(1, std::memory_order_relaxed);
        const auto us = 10 + static_cast<long>((y >> 8) % 190);
        std::this_thread::sleep_for(std::chrono::microseconds(us));
        return false;
      }
      case kThrow:
        throws_[i].fetch_add(1, std::memory_order_relaxed);
        throw FaultInjectedError(
            std::string("fault injected at ") + site_name(s) + " (seed " +
            std::to_string(seed) + ", arrival " + std::to_string(n) + ")");
      default:
        wakes_[i].fetch_add(1, std::memory_order_relaxed);
        return true;
    }
  }

  std::atomic<bool> enabled_{false};
  std::atomic<unsigned> site_mask_{kAllSites};
  std::atomic<std::uint64_t> seed_{0};
  std::atomic<std::uint64_t> rate_bits_{0};
  std::atomic<unsigned> kinds_{0};
  std::atomic<std::uint64_t> seq_[kNumSites] = {};
  std::atomic<std::uint64_t> delays_[kNumSites] = {};
  std::atomic<std::uint64_t> throws_[kNumSites] = {};
  std::atomic<std::uint64_t> wakes_[kNumSites] = {};
};

}  // namespace curare::runtime
