// Server-allocation model (paper §4.1, Figure 10).
//
// For a simple recursive function with head cost h, tail cost t, and
// recursion depth d executed by S servers, the paper derives
//
//     T(S) = (⌈d/S⌉ − 1)(h + t) + (S·h + t)        for S ≤ d
//
// minimized at S* = sqrt(d(h+t)/h), clamped by the function's maximum
// concurrency c_f = min((h+t)/h, min conflict distance) and by the
// machine's processor count. Benchmark E8 measures real executions
// against these predictions.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>

namespace curare::runtime {

/// The paper's T(S) in abstract time steps.
inline double predicted_time(double servers, double depth, double h,
                             double t) {
  if (servers < 1) servers = 1;
  if (servers > depth) servers = depth;
  const double groups = std::ceil(depth / servers);
  return (groups - 1.0) * (h + t) + (servers * h + t);
}

/// The work-first form's time (transform/cri.hpp): one server runs the
/// d heads as a loop while all S servers share the tails, so a run is
/// bound by the head chain or by the total work spread over S, plus the
/// last tail:
///
///     T_wf(S) = max(d·h, d·(h+t)/S) + t
inline double predicted_time_work_first(double servers, double depth,
                                        double h, double t) {
  if (servers < 1) servers = 1;
  return std::max(depth * h, depth * (h + t) / servers) + t;
}

/// S* = sqrt(d(h+t)/h) — the unconstrained optimum (continuous).
inline double optimal_servers_continuous(double depth, double h, double t) {
  if (h <= 0) return depth;
  return std::sqrt(depth * (h + t) / h);
}

/// The function's own concurrency bound c_f = (h+t)/h, further capped by
/// the minimum conflict distance when one exists (§3.2.1).
inline double max_concurrency(double h, double t,
                              std::optional<int> min_conflict_distance) {
  double c = (h <= 0) ? 1e9 : (h + t) / h;
  if (min_conflict_distance)
    c = std::min(c, static_cast<double>(*min_conflict_distance));
  return c;
}

/// Integral server choice: min(S*, c_f, processors, depth), at least 1.
inline std::size_t choose_servers(double depth, double h, double t,
                                  std::optional<int> min_conflict_distance,
                                  std::size_t processors) {
  double s = optimal_servers_continuous(depth, h, t);
  s = std::min(s, max_concurrency(h, t, min_conflict_distance));
  s = std::min(s, static_cast<double>(processors));
  s = std::min(s, depth);
  return static_cast<std::size_t>(std::max(1.0, std::floor(s + 0.5)));
}

// ---- nested allocation (§4.1, second half) ------------------------------
//
// "Consider two recursive functions f1 and f2 such that f1 invokes f2.
// … an analyzer might allocate S1 × S2 servers … extravagant allocation
// of this sort is not practical … Another option is to dedicate only S2
// processes to f2 and require the S1 invocations of f1 to wait their
// turn." The paper concludes "a simple allocation scheme, with a dynamic
// component, is the best approach"; this helper realizes the simple
// static version: sweep the split of P processors between the outer
// pool (S1) and each inner recursion's pool (S2 = P/S1), predicting the
// outer time with the inner recursion's completion folded into the
// outer tail.

struct RecursionShape {
  double depth = 1;
  double h = 1;
  double t = 0;
};

struct NestedAllocation {
  std::size_t outer = 1;
  std::size_t inner = 1;
  double predicted = 0;
};

/// Predicted time of `outer` when every invocation's tail additionally
/// runs `inner` to completion on `s_inner` servers.
inline double predicted_nested_time(const RecursionShape& outer,
                                    const RecursionShape& inner,
                                    std::size_t s_outer,
                                    std::size_t s_inner) {
  const double inner_time = predicted_time(
      static_cast<double>(s_inner), inner.depth, inner.h, inner.t);
  return predicted_time(static_cast<double>(s_outer), outer.depth,
                        outer.h, outer.t + inner_time);
}

/// Best static split of `processors` between the two pools.
inline NestedAllocation allocate_nested(const RecursionShape& outer,
                                        const RecursionShape& inner,
                                        std::size_t processors) {
  NestedAllocation best;
  best.predicted = 1e300;
  processors = std::max<std::size_t>(1, processors);
  for (std::size_t s1 = 1; s1 <= processors; ++s1) {
    const std::size_t s2 = std::max<std::size_t>(1, processors / s1);
    const double time = predicted_nested_time(outer, inner, s1, s2);
    if (time < best.predicted) {
      best = NestedAllocation{s1, s2, time};
    }
  }
  return best;
}

}  // namespace curare::runtime
