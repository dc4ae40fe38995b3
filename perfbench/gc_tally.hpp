// Collector numbers from outside: GcHeap::stats() read before and after
// a stretch of work, folded into the gc.* per-layer metrics.
#pragma once

#include <vector>

#include "bench.hpp"
#include "gc/gc.hpp"

namespace perfbench {

class GcTally {
 public:
  /// Fold the collections between two stats() reads; returns the pause
  /// time they took, in ns. Collections closer together than the reads
  /// share their total pause equally.
  double add(const curare::gc::GcStats& before,
             const curare::gc::GcStats& after) {
    const std::uint64_t k = after.collections - before.collections;
    if (k == 0) return 0;
    const double pause =
        static_cast<double>(after.total_pause_ns - before.total_pause_ns);
    collections_ += static_cast<double>(k);
    for (std::uint64_t i = 0; i < k; ++i) pauses_ms_.push_back(pause / k / 1e6);
    bytes_ += static_cast<double>(after.reclaimed_bytes - before.reclaimed_bytes);
    objects_ +=
        static_cast<double>(after.reclaimed_objects - before.reclaimed_objects);
    return pause;
  }

  void merge(const GcTally& o) {
    collections_ += o.collections_;
    bytes_ += o.bytes_;
    objects_ += o.objects_;
    pauses_ms_.insert(pauses_ms_.end(), o.pauses_ms_.begin(),
                      o.pauses_ms_.end());
  }

  void metrics(MetricTable& m) {
    m.set("gc.collections", collections_, "count");
    m.set("gc.pause_ms_p50", quantile(pauses_ms_, 0.5), "ms");
    m.set("gc.pause_ms_max", quantile(pauses_ms_, 1.0), "ms");
    m.set("gc.bytes_per_object", per(bytes_, objects_), "B");
  }

 private:
  double collections_ = 0, bytes_ = 0, objects_ = 0;
  std::vector<double> pauses_ms_;
};

}  // namespace perfbench
