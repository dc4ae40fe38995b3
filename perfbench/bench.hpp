// Shared pieces of the benchmark program: the seeded random source, the
// workload interface, and the metric table every run prints from.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the benchmark's only random source, so one seed gives
/// the same inputs with every compiler and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}

  std::uint64_t next() {
    std::uint64_t x = (s_ += 0x9E3779B97F4A7C15ull);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[next() % i]);
  }

 private:
  std::uint64_t s_;
};

/// `n` values over [lo, hi], one drawn inside each of n equal strata,
/// in seeded order. Every seed gets the same spread of sizes, so a
/// run's aggregate numbers barely depend on which seed it drew.
std::vector<std::int64_t> stratified(Rng& rng, int n, std::int64_t lo,
                                     std::int64_t hi);

/// One measured operation: time inside the timed API calls, and
/// whether its output matched the expectation.
struct Sample {
  std::uint64_t ns = 0;
  bool ok = true;
};

/// The operations measured in one segment of the schedule and the
/// seconds they occupied the system: the sum of op times for a workload
/// that runs one operation at a time, the segment's wall time for
/// concurrent clients.
struct Measured {
  std::vector<Sample> samples;
  double busy_s = 0;
  double throughput() const {
    return busy_s > 0 ? static_cast<double>(samples.size()) / busy_s : 0.0;
  }
};

/// The measurement window, cut into one-second segments. With tracing
/// the segments alternate in pairs between spans off and on (serve_mix
/// gives each pair a daemon of its own); without, spans stay off
/// throughout.
class Schedule {
 public:
  Schedule(std::uint64_t start_ns, double seconds, bool alternate);

  std::size_t segments() const { return ends_.size(); }
  bool over(std::uint64_t now) const { return now >= ends_.back(); }
  /// 1 when segment `seg` records spans.
  int mode(std::size_t seg) const { return alternate_ ? seg / 2 % 2 : 0; }
  std::uint64_t end(std::size_t seg) const { return ends_[seg]; }
  /// The segment holding `now`, with span recording set to match it.
  /// Every operation calls this first and files its Sample there.
  std::size_t begin_op(std::uint64_t now) const;

 private:
  std::uint64_t start_;
  std::vector<std::uint64_t> ends_;
  bool alternate_;
};

/// Named metrics with units, in name order.
class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    m_[name] = {value, unit};
  }
  bool has(const std::string& name) const { return m_.count(name) != 0; }
  const std::map<std::string, std::pair<double, std::string>>& all() const {
    return m_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

/// A workload: seeded set-up, then operations until the schedule ends.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Build everything the operations need from the seed. Timed as
  /// setup_s.
  virtual void setup(std::uint64_t seed) = 0;

  /// Run operations until the schedule is over; out[seg] (one per
  /// segment) collects each segment's Samples and busy time.
  virtual void run(const Schedule& s, std::vector<Measured>& out) = 0;

  /// Per-layer numbers gathered over the run.
  virtual void layer_metrics(MetricTable& m) = 0;
};

std::unique_ptr<Workload> make_cri_runs();
std::unique_ptr<Workload> make_serve_mix();
std::unique_ptr<Workload> make_restructure_corpus();

/// Mean of a sum over a count, 0 when the count is 0.
inline double per(double sum, double count) {
  return count > 0 ? sum / count : 0.0;
}

/// q-quantile (0..1) of `v` by nearest rank; sorts `v`.
double quantile(std::vector<double>& v, double q);

/// Run fn(0) … fn(n-1) on n threads and join them all; then rethrow the
/// first exception any of them threw.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace perfbench
