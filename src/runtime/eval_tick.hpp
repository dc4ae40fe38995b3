// Shared evaluation-tick helper: one cancellation-poll implementation
// for both evaluation engines (DESIGN.md §10, §13).
//
// The tree-walking interpreter advances the tick once per eval step;
// the bytecode VM advances it once per executed instruction. Every
// 64th step funnels into runtime::poll_cancellation(), so a busy (not
// blocked) server can outlive its run's deadline by at most 64 steps
// regardless of which engine is running it — and the sampling profiler
// rides the same counter, so its period arithmetic is identical under
// both engines. The process-wide poll count is the "one metric" the
// two engines share: it feeds the resilience report and lets tests
// assert that preemption points were actually reached. It is sharded
// per thread, so busy servers never write a shared line to count polls.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "runtime/resilience.hpp"
#include "runtime/resource.hpp"

namespace curare::runtime {

/// Steps (eval steps / VM instructions) between cancellation polls.
/// Power of two; the profiler's minimum period (8) divides it.
inline constexpr unsigned kEvalPollPeriod = 64;

namespace detail {
inline obs::ShardedCounter g_eval_polls;
inline thread_local unsigned g_eval_tick = 0;
}  // namespace detail

/// How many times either engine reached a cancellation poll point
/// (process-wide, all threads, both engines).
inline std::uint64_t eval_poll_count() {
  return detail::g_eval_polls.get();
}

/// Advance this thread's eval tick one step; poll cancellation and
/// charge eval fuel on every kEvalPollPeriod-th step. Returns the tick
/// so the caller can drive the profiler off the same counter.
///
/// Fuel rides the same poll the deadline does, so both engines (one
/// tick per tree-walk step, one per VM instruction) get the same
/// bound with the same ≤ kEvalPollPeriod-step overshoot — and a
/// pure-arith loop that never allocates is still clipped.
inline unsigned eval_tick_step() {
  const unsigned tick = ++detail::g_eval_tick;
  if ((tick & (kEvalPollPeriod - 1)) == 0) {
    detail::g_eval_polls.add();
    poll_cancellation();
    charge_fuel(kEvalPollPeriod);
  }
  return tick;
}

/// True when this tick should take a profiler sample. The &7 pre-check
/// keeps the disarmed cost to the tick itself (the profiler's period
/// is a power of two ≥ 8).
inline bool eval_tick_profile_due(unsigned tick) {
  return (tick & 0x7) == 0 && obs::Profiler::due(tick);
}

}  // namespace curare::runtime
