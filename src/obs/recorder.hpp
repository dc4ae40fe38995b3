// The bundle the runtime threads through its components: one tracer,
// one metrics registry, one speedup report. Components take a
// `Recorder&` at construction and always report into it. The tracer is
// toggleable at runtime; metrics are always on (their cost is a handful
// of relaxed atomic adds on paths that already take a mutex or run a
// task body).
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace curare::obs {

struct Recorder {
  Tracer tracer;
  Metrics metrics;
  SpeedupReport speedup;
};

/// The --stats / :stats payload: the measured-vs-predicted T(S) table
/// followed by a dump of every metric.
std::string full_report(const Recorder& rec);

}  // namespace curare::obs
