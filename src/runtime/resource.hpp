// Resource governance: per-request memory quotas, eval fuel, and the
// heap high-watermark error (DESIGN.md §14).
//
// Deadlines (PR 4) bound *time*; this layer bounds *space* and *work*.
// The accounting rides the contexts that already follow a request
// across threads: obs::RequestContext (installed via RequestScope on
// the socket thread and captured by CRI servers and future workers)
// carries the request's byte and fuel budgets, and the charge points
// are the two places every engine already passes through —
//
//   gc::GcHeap::allocate   charges bytes before the cell is carved, so
//                          a quota breach throws with nothing half-
//                          built (the same unwind path the gc.alloc
//                          fault-injection site proves safe);
//   runtime::eval_tick     charges fuel on the shared 1-in-64 poll, so
//                          both the tree walker and the bytecode VM
//                          are bounded — a pure-arith loop that never
//                          allocates still runs out of fuel, with at
//                          most kEvalPollPeriod steps of overshoot
//                          (the same bound deadlines already accept).
//
// Crossing a budget raises ResourceExhausted — a LispError subclass,
// so every existing unwind path (session catch ladder, CRI abort-and-
// drain, future error propagation) treats it like a user-program
// error: exactly that request dies, the session stays usable, and the
// daemon answers with the structured `resource-exhausted` status.
//
// Header-only on purpose, like fault_injector.hpp: gc is a lower
// layer than runtime and hooks the charge point without gaining a
// link dependency.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "obs/request.hpp"
#include "sexpr/value.hpp"

namespace curare::runtime {

/// A request exceeded one of its resource budgets (or the process
/// heap crossed the hard watermark while it was allocating). The kind
/// discriminates the budget for metrics and tests; the message is the
/// human-readable diagnosis that rides the wire.
class ResourceExhausted : public sexpr::LispError {
 public:
  enum class Kind {
    kMemQuota,  ///< per-request allocation quota
    kHeapHard,  ///< process heap crossed the hard watermark
    kFuel,      ///< per-request eval-step budget
    kResultCap, ///< reply exceeded the serve result/output cap
  };

  ResourceExhausted(Kind kind, std::string msg)
      : LispError(std::move(msg)), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

namespace detail {

/// Per-thread quota reservation: bytes already fetch_add'ed into a
/// request's mem_used but not yet consumed by this thread's
/// allocations. The same amortization the bump allocator uses for
/// blocks — the shared counter is touched once per kQuotaChunk bytes,
/// not once per cons — which is what keeps the accounting inside the
/// 3% bench_heap acceptance bar.
///
/// Keyed by context address, never dereferenced: when the thread
/// switches requests the stale reservation is dropped (those bytes
/// were already charged, so the quota errs strict, never leaks).
/// Address reuse can in principle hand ≤ one chunk of a dead
/// request's reservation to its successor — a bounded, one-sided
/// under-charge accepted for a branch-free fast path.
struct QuotaReservation {
  const obs::RequestContext* rc = nullptr;
  std::uint64_t remaining = 0;
};
inline thread_local QuotaReservation g_quota_reservation;

/// Reservation granularity; also the quota's effective resolution
/// (a breach may be detected up to one chunk per thread early —
/// strict, per the comment above — never late).
inline constexpr std::uint64_t kQuotaChunk = 16 * 1024;

}  // namespace detail

/// Charge `bytes` of fresh allocation to the calling thread's current
/// request; throws ResourceExhausted once the request's quota is
/// crossed. No-op (one thread-local load) when no request is in scope
/// or the request carries no quota, and a thread-local compare-and-
/// subtract while a reservation lasts.
///
/// Call *before* committing the allocation: the throw must leave no
/// half-carved cell behind. Charges are monotone and shared by every
/// thread working for the request (relaxed fetch_add on refill), so a
/// future worker allocating on the request's behalf draws down the
/// same budget as the socket thread.
inline void charge_allocation(std::uint64_t bytes) {
  obs::RequestContext* rc = obs::current_request().get();
  detail::QuotaReservation& res = detail::g_quota_reservation;
  // Armed fast path first: a reservation hit needs neither the
  // context deref nor any shared state — two thread-local reads.
  if (res.rc == rc && rc != nullptr) {
    if (res.remaining >= bytes) {
      res.remaining -= bytes;
      return;
    }
  } else if (rc == nullptr || rc->mem_quota == 0) {
    return;
  }
  if (rc->mem_quota == 0) return;
  const std::uint64_t chunk =
      bytes > detail::kQuotaChunk ? bytes : detail::kQuotaChunk;
  const std::uint64_t used =
      rc->mem_used.fetch_add(chunk, std::memory_order_relaxed) + chunk;
  if (used > rc->mem_quota) {
    res = detail::QuotaReservation{};  // no credit for a doomed request
    throw ResourceExhausted(
        ResourceExhausted::Kind::kMemQuota,
        "memory quota exceeded: " + std::to_string(used) + " of " +
            std::to_string(rc->mem_quota) + " byte(s) charged");
  }
  res.rc = rc;
  res.remaining = chunk - bytes;
}

/// Charge `steps` eval steps (tree-walker steps or VM instructions) to
/// the current request; throws ResourceExhausted once the fuel budget
/// is spent. Called from eval_tick_step's poll branch, so the cost is
/// paid once per kEvalPollPeriod steps, not per step.
inline void charge_fuel(std::uint64_t steps) {
  obs::RequestContext* rc = obs::current_request().get();
  if (rc == nullptr || rc->fuel_limit == 0) return;
  const std::uint64_t used =
      rc->fuel_used.fetch_add(steps, std::memory_order_relaxed) + steps;
  if (used > rc->fuel_limit) {
    throw ResourceExhausted(
        ResourceExhausted::Kind::kFuel,
        "fuel exhausted: " + std::to_string(used) + " of " +
            std::to_string(rc->fuel_limit) + " eval step(s) used");
  }
}

/// Parse a byte count as the governance flags of every front end take
/// it: decimal digits with an optional k/m/g suffix (binary multiples,
/// "64m" → 67108864). False on anything else, including a count that
/// does not fit in 64 bits — wrapping could turn a huge quota into 0,
/// which means "unlimited".
inline bool parse_bytes(std::string_view text, std::uint64_t& out) {
  std::uint64_t mult = 1;
  if (!text.empty()) {
    switch (text.back()) {
      case 'k': case 'K': mult = 1ull << 10; break;
      case 'm': case 'M': mult = 1ull << 20; break;
      case 'g': case 'G': mult = 1ull << 30; break;
      default: break;
    }
    if (mult != 1) text.remove_suffix(1);
  }
  std::uint64_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || ptr != end ||
      n > std::numeric_limits<std::uint64_t>::max() / mult) {
    return false;
  }
  out = n * mult;
  return true;
}

}  // namespace curare::runtime
