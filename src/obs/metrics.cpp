#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace curare::obs {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

std::size_t Histogram::bucket_of(std::uint64_t x) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::note_min_max(std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (lo < cur &&
         !min_.compare_exchange_weak(cur, lo, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (hi > cur &&
         !max_.compare_exchange_weak(cur, hi, std::memory_order_relaxed)) {
  }
}

void Histogram::observe(std::uint64_t x) {
  buckets_[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
  note_min_max(x, x);
}

void Histogram::merge(const Shard& s) {
  if (s.count_ == 0) return;
  for (std::size_t i = 0; i < s.buckets_.size(); ++i)
    if (s.buckets_[i] != 0)
      buckets_[i].fetch_add(s.buckets_[i], std::memory_order_relaxed);
  count_.fetch_add(s.count_, std::memory_order_relaxed);
  sum_.fetch_add(s.sum_, std::memory_order_relaxed);
  note_min_max(s.min_, s.max_);
}

std::uint64_t Histogram::min() const {
  const std::uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

double Histogram::mean() const {
  const std::uint64_t c = count();
  return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double in_bucket =
        static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (seen + in_bucket >= target && in_bucket > 0) {
      const double lo =
          i == 0 ? 0.0 : static_cast<double>(bounds_[i - 1]);
      const double hi = i < bounds_.size()
                            ? static_cast<double>(bounds_[i])
                            : static_cast<double>(max());
      const double frac = (target - seen) / in_bucket;
      const double q_val = lo + (hi > lo ? (hi - lo) * frac : 0.0);
      // Interpolation can leave the observed range when a bucket is
      // wider than the data it holds; the true quantile never does.
      return std::clamp(q_val, static_cast<double>(min()),
                        static_cast<double>(max()));
    }
    seen += in_bucket;
  }
  return static_cast<double>(max());
}

std::vector<std::uint64_t> Histogram::default_ns_bounds() {
  std::vector<std::uint64_t> b;
  for (std::uint64_t v = 1000; v < 20'000'000'000ull; v *= 4) b.push_back(v);
  return b;
}

std::vector<std::uint64_t> Histogram::default_depth_bounds() {
  std::vector<std::uint64_t> b;
  for (std::uint64_t v = 1; v <= 4096; v *= 2) b.push_back(v);
  return b;
}

Counter& Metrics::counter(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Metrics::gauge(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Metrics::histogram(const std::string& name,
                              std::vector<std::uint64_t> bounds) {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (bounds.empty()) bounds = Histogram::default_ns_bounds();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

std::string Metrics::to_string() const {
  std::lock_guard<std::mutex> g(mu_);
  std::ostringstream ss;
  for (const auto& [name, c] : counters_) {
    ss << name << " = " << c->get() << "\n";
  }
  for (const auto& [name, gv] : gauges_) {
    ss << name << " = " << gv->get() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    ss << name << ": count=" << h->count() << " mean=" << h->mean()
       << " min=" << h->min() << " max=" << h->max()
       << " p50=" << h->quantile(0.5) << " p90=" << h->quantile(0.9)
       << " p99=" << h->quantile(0.99) << "\n";
  }
  return ss.str();
}

std::string Metrics::to_json() const {
  std::lock_guard<std::mutex> g(mu_);
  std::ostringstream ss;
  ss << "{";
  bool first = true;
  auto key = [&](const std::string& name) {
    ss << (first ? "" : ",") << "\"" << name << "\":";
    first = false;
  };
  for (const auto& [name, c] : counters_) {
    key(name);
    ss << c->get();
  }
  for (const auto& [name, gv] : gauges_) {
    key(name);
    ss << gv->get();
  }
  for (const auto& [name, h] : histograms_) {
    key(name);
    ss << "{\"count\":" << h->count() << ",\"sum\":" << h->sum()
       << ",\"mean\":" << h->mean() << ",\"min\":" << h->min()
       << ",\"max\":" << h->max() << ",\"p50\":" << h->quantile(0.5)
       << ",\"p90\":" << h->quantile(0.9)
       << ",\"p99\":" << h->quantile(0.99) << "}";
  }
  ss << "}";
  return ss.str();
}

namespace {

/// Prometheus metric names admit [a-zA-Z0-9_:] only; the registry uses
/// dotted names, so map everything else to '_' under a stable prefix.
std::string prom_name(const std::string& name) {
  std::string out = "curare_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string Metrics::to_prometheus() const {
  std::lock_guard<std::mutex> g(mu_);
  std::ostringstream ss;
  for (const auto& [name, c] : counters_) {
    const std::string n = prom_name(name);
    ss << "# TYPE " << n << " counter\n" << n << " " << c->get() << "\n";
  }
  for (const auto& [name, gv] : gauges_) {
    const std::string n = prom_name(name);
    ss << "# TYPE " << n << " gauge\n" << n << " " << gv->get() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = prom_name(name);
    // Summary, not histogram: the fixed ×4 buckets are an internal
    // detail; the derived quantiles are what dashboards and the CI
    // scrape consume.
    ss << "# TYPE " << n << " summary\n";
    ss << n << "{quantile=\"0.5\"} " << h->quantile(0.5) << "\n";
    ss << n << "{quantile=\"0.9\"} " << h->quantile(0.9) << "\n";
    ss << n << "{quantile=\"0.99\"} " << h->quantile(0.99) << "\n";
    ss << n << "_sum " << h->sum() << "\n";
    ss << n << "_count " << h->count() << "\n";
  }
  return ss.str();
}

}  // namespace curare::obs
