// Measured-vs-predicted report for the §4.1 server-allocation model.
//
// Every CRI run contributes one MeasuredRun: its server count S, the
// recursion depth d (= invocations), wall time, and the measured head
// and tail time the tracer's instrumentation attributed inside the
// server loop. The report replays the paper's T(S) =
// (⌈d/S⌉−1)(h+t) + (S·h+t) — for a work-first run (heads as a loop,
// tails as tasks) T_wf(S) = max(d·h, d·(h+t)/S) + t — with the
// *measured* mean h and t and prints
// measured wall time against it — the error column is the gap between
// the abstract machine of §4.1 and this implementation (queue cost,
// scheduling jitter, interpreter variance). A call that ran the
// original defun because the model gave S = 1 adds a sequential row
// with the measurement that decided it.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace curare::obs {

struct MeasuredRun {
  std::string label;            ///< e.g. the server function's name
  std::size_t servers = 1;      ///< S
  std::uint64_t invocations = 0;  ///< recursion depth d
  std::uint64_t wall_ns = 0;    ///< measured T(S)
  std::uint64_t head_ns = 0;    ///< Σ measured head time (h·d)
  std::uint64_t tail_ns = 0;    ///< Σ measured tail time (t·d)
  std::uint64_t busy_ns = 0;    ///< Σ over servers of in-body time
  std::uint64_t idle_ns = 0;    ///< Σ over servers of blocked-in-pop time
  /// Heads ran as a loop, tails as tasks: predicted by T_wf(S).
  bool work_first = false;
  /// A call that ran the original defun instead of CRI: the model gave
  /// S = 1. servers and wall_ns are 0; d, head_ns and tail_ns are the
  /// last CRI run's, the measurement that decided, and c_f is its
  /// concurrency bound (h+t)/h (capped by the conflict distance).
  bool sequential = false;
  double c_f = 0;
};

/// One computed table row.
struct SpeedupRow {
  MeasuredRun run;
  double mean_h_ns = 0;     ///< head_ns / d
  double mean_t_ns = 0;     ///< tail_ns / d
  double predicted_ns = 0;  ///< T(S) with measured h, t, d
  double error_pct = 0;     ///< (wall − predicted)/predicted · 100
  double utilization = 0;   ///< busy / (busy + idle)
  double s_star = 0;        ///< √(d(h+t)/h), unclamped optimum
};

class SpeedupReport {
 public:
  void add(MeasuredRun run);
  void clear();
  std::size_t size() const;
  std::vector<MeasuredRun> runs() const;

  /// Rows in insertion order, model columns filled in.
  std::vector<SpeedupRow> rows() const;

  /// The S vs T_measured vs T_predicted vs error% table.
  std::string table() const;

  /// One JSON object per run, newline-separated (for BENCH_*.json).
  std::string json_lines() const;

 private:
  mutable std::mutex mu_;
  std::vector<MeasuredRun> runs_;
};

}  // namespace curare::obs
