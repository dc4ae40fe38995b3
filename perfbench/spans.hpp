// Spans the benchmark records around its own calls into each layer.
//
// A span has a name, a start and end, the span that caused it (the one
// open on the same thread when it began) and the id of the operation it
// belongs to. Spans stay in per-thread memory until the run ends; then
// they are written as Chrome-trace JSON and folded into a self-time
// table. A span's self time is its duration minus the part its children
// cover. Where a layer reports its own split of a call (a serve reply's
// breakdown, a CRI run's head/tail/idle sums), attribute() charges that
// split against the span's self time; what no layer claims is shown as
// "(unattributed)". The rows of the table therefore sum to the
// operations' wall time.
//
// Recording is off unless set_enabled(true): a disabled Span costs one
// relaxed load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::spans {

void set_enabled(bool on);
bool enabled();

class Span {
 public:
  Span(const char* name, std::uint64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Charge `ns` of this span's self time to `layer` (a string literal).
  void attribute(const char* layer, std::uint64_t ns);

 private:
  std::uint64_t id_ = 0;  ///< 0 when recording was off at construction
};

struct Row {
  std::string name;
  std::uint64_t ns = 0;
  bool unattributed = false;
};

struct SelfTimes {
  std::vector<Row> rows;        ///< sorted by time, largest first
  std::uint64_t op_wall_ns = 0;  ///< sum of root-span durations
  std::uint64_t ops = 0;         ///< root spans
  std::uint64_t unattributed_ns() const;
};

/// Fold every recorded span into the self-time table.
SelfTimes self_times();

/// The table as text, one row per line, ending with the total.
std::string format_table(const SelfTimes& t);

/// Write the first `max_events` spans as Chrome-trace JSON. Returns
/// false when the file cannot be written.
bool write_chrome_trace(const std::string& path, std::size_t max_events);

}  // namespace perfbench::spans
