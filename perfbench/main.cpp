// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--commit ID]
//
// Workloads: cri_runs, serve_mix, restructure_corpus (see each source
// file). The run sets the workload up several times from the seed and
// reports the median as setup_s, then measures for S seconds.
//
// The measurement is cut into one-second segments. --trace 0 keeps span
// recording off and prints the end-to-end metrics: medians over the
// segments (end_to_end() below). --trace 1 alternates pairs of segments
// with recording off and on and prints the per-layer metrics: counters from
// the whole run, self times from the traced segments' spans, and
// trace.overhead_pct from the two kinds of segment's throughput. It
// writes DIR/<workload>-seed<N>.trace.json (Chrome trace) and
// DIR/<workload>-seed<N>.selftime.txt.
//
// Every run writes DIR/<workload>-seed<N>-trace<T>.json: host facts,
// every metric with its sample count, and the per-op self-time rows.
// The last line of stdout is the result object:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"

namespace perfbench {

std::vector<std::int64_t> stratified(Rng& rng, int n, std::int64_t lo,
                                     std::int64_t hi) {
  std::vector<std::int64_t> out;
  if (n <= 0) return out;
  const double width = static_cast<double>(hi - lo + 1) / n;
  for (int i = 0; i < n; ++i) {
    const auto a = lo + static_cast<std::int64_t>(std::floor(i * width));
    const auto b = std::max(
        a, lo + static_cast<std::int64_t>(std::floor((i + 1) * width)) - 1);
    out.push_back(rng.range(a, b));
  }
  rng.shuffle(out);
  return out;
}

Schedule::Schedule(std::uint64_t start_ns, double seconds, bool alternate)
    : start_(start_ns), alternate_(alternate) {
  const auto total = static_cast<std::uint64_t>(seconds * 1e9);
  // One-second segments; an even number, at least two pairs, when they
  // alternate.
  int n = std::max(1, static_cast<int>(std::lround(seconds)));
  if (alternate) n = std::max(4, n + n % 2);
  for (int i = 1; i <= n; ++i)
    ends_.push_back(start_ns + total * static_cast<std::uint64_t>(i) / n);
}

std::size_t Schedule::begin_op(std::uint64_t now) const {
  std::size_t seg = 0;
  while (seg + 1 < ends_.size() && now >= ends_[seg]) ++seg;
  const bool on = mode(seg) == 1;
  if (spans::enabled() != on) spans::set_enabled(on);
  return seg;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::mutex mu;
  std::exception_ptr first;
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < n; ++i)
      threads.emplace_back([&, i] {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> g(mu);
          if (!first) first = std::current_exception();
        }
      });
  }
  if (first) std::rethrow_exception(first);
}

namespace {

/// Set-ups per run: at least kSetupReps, and more (up to kMaxSetupReps)
/// until they took kSetupSeconds, so a set-up of a few ms still gets a
/// steady median.
constexpr int kSetupReps = 5;
constexpr int kMaxSetupReps = 25;
constexpr double kSetupSeconds = 2.5;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0, on every workload. p99 is reported with the
/// per-layer metrics instead: on a shared host one noisy stretch moves
/// it by a third, too much for a regression bound.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_ops_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Printed with --trace 1, on every workload; a layer a workload does
/// not exercise reads 0.
const MetricDef kPerLayer[] = {
    {"latency_p99_ms", "ms"},
    {"runtime.utilization", "ratio"},
    {"runtime.idle_ms", "ms"},
    {"runtime.sleeps", "count"},
    {"runtime.notify_suppressed", "count"},
    {"runtime.steals", "count"},
    {"runtime.servers_used", "count"},
    {"runtime.head_us_mean", "us"},
    {"runtime.tail_us_mean", "us"},
    {"runtime.speedup", "x"},
    {"runtime.model_error_pct", "%"},
    {"runtime.busy_inflation", "x"},
    {"runtime.utilization.tally", "ratio"},
    {"runtime.utilization.scale", "ratio"},
    {"runtime.utilization.drain", "ratio"},
    {"runtime.utilization.remq", "ratio"},
    {"runtime.utilization.walk", "ratio"},
    {"runtime.speedup.tally", "x"},
    {"runtime.speedup.scale", "x"},
    {"runtime.speedup.drain", "x"},
    {"runtime.speedup.remq", "x"},
    {"runtime.speedup.walk", "x"},
    {"runtime.busy_inflation.tally", "x"},
    {"runtime.busy_inflation.scale", "x"},
    {"runtime.busy_inflation.drain", "x"},
    {"runtime.busy_inflation.remq", "x"},
    {"runtime.busy_inflation.walk", "x"},
    {"lock.wait_ms", "ms"},
    {"lock.contended", "count"},
    {"gc.collections", "count"},
    {"gc.pause_ms_p50", "ms"},
    {"gc.pause_ms_max", "ms"},
    {"gc.bytes_per_object", "B"},
    {"eval.seq_ms_p50", "ms"},
    {"serve.eval_ms", "ms"},
    {"curare.load_ms", "ms"},
    {"analysis.analyze_ms", "ms"},
    {"transform.transform_ms", "ms"},
    {"transform.plans_ok", "count"},
    {"transform.locks_inserted", "count"},
    {"transform.delayed", "count"},
    {"transform.reordered", "count"},
    {"transform.dps", "count"},
    {"transform.rec2iter", "count"},
    {"transform.generated_cells", "count"},
    {"serve.connect_ms", "ms"},
    {"image.clone_ms", "ms"},
    {"image.cache_hit_ratio", "ratio"},
    {"serve.admission_ms", "ms"},
    {"serve.parse_ms", "ms"},
    {"serve.restructure_ms", "ms"},
    {"serve.lock_wait_ms", "ms"},
    {"serve.gc_pause_ms", "ms"},
    {"serve.reply_ms", "ms"},
    {"serve.unattributed_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
    {"error_ratio", "ratio"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out = ".bench_out";
  std::string commit = "unknown";
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0') return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o.trace = v[0] - '0';
    } else if (k == "--out") {
      o.out = v;
    } else if (k == "--commit") {
      o.commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 &&
         o.seconds <= 3600 && o.trace >= 0;
}

std::function<std::unique_ptr<Workload>()> factory(const std::string& name) {
  if (name == "cri_runs") return make_cri_runs;
  if (name == "serve_mix") return make_serve_mix;
  if (name == "restructure_corpus") return make_restructure_corpus;
  return nullptr;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char b[8];
      std::snprintf(b, sizeof b, "\\u%04x", c);
      out += b;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const MetricTable& t) {
  std::string s = "{";
  for (const auto& [name, vu] : t.all()) {
    if (s.size() > 1) s += ",";
    s += quoted(name) + ":{\"value\":" + num(vu.first) +
         ",\"unit\":" + quoted(vu.second) + "}";
  }
  return s + "}";
}

/// Median over one mode's segments of a per-segment statistic.
double segment_median(const Schedule& sched, const std::vector<Measured>& segs,
                      int mode, double (*stat)(const Measured&)) {
  std::vector<double> v;
  for (std::size_t i = 0; i < segs.size(); ++i)
    if (sched.mode(i) == mode && !segs[i].samples.empty())
      v.push_back(stat(segs[i]));
  return quantile(v, 0.5);
}

double latency_ms(const Measured& m, double q) {
  std::vector<double> ms;
  for (const Sample& s : m.samples) ms.push_back(s.ns / 1e6);
  return quantile(ms, q);
}

/// p99 over groups of consecutive untraced segments holding at least
/// kP99Group samples each (so ten or more lie beyond it): the median of
/// the groups' p99s. A short remainder joins the last group.
constexpr std::size_t kP99Group = 1000;

double p99_ms(const Schedule& sched, const std::vector<Measured>& segs) {
  std::vector<Measured> groups(1);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (sched.mode(i) != 0) continue;
    if (groups.back().samples.size() >= kP99Group) groups.emplace_back();
    auto& g = groups.back().samples;
    g.insert(g.end(), segs[i].samples.begin(), segs[i].samples.end());
  }
  if (groups.size() > 1 && groups.back().samples.size() < kP99Group) {
    auto& prev = groups[groups.size() - 2].samples;
    prev.insert(prev.end(), groups.back().samples.begin(),
                groups.back().samples.end());
    groups.pop_back();
  }
  std::vector<double> p99s;
  for (const Measured& g : groups) p99s.push_back(latency_ms(g, 0.99));
  return quantile(p99s, 0.5);
}

/// Throughput, p50 and p90 are medians over the untraced one-second
/// segments, so a burst of noise from outside moves one segment, not
/// the result.
void end_to_end(const Schedule& sched, const std::vector<Measured>& segs,
                double setup_s, std::size_t setup_reps, MetricTable& t,
                std::string& counts) {
  std::size_t windows = 0, samples = 0;
  for (std::size_t i = 0; i < segs.size(); ++i)
    if (sched.mode(i) == 0) {
      ++windows;
      samples += segs[i].samples.size();
    }
  t.set("setup_s", setup_s, "s");
  t.set("throughput_ops_s",
        segment_median(sched, segs, 0,
                       [](const Measured& m) { return m.throughput(); }),
        "1/s");
  t.set("latency_p50_ms",
        segment_median(sched, segs, 0,
                       [](const Measured& m) { return latency_ms(m, 0.5); }),
        "ms");
  t.set("latency_p90_ms",
        segment_median(sched, segs, 0,
                       [](const Measured& m) { return latency_ms(m, 0.9); }),
        "ms");
  t.set("peak_rss_mb", peak_rss_mb(), "MB");
  counts = "{\"setup_s\":" + std::to_string(setup_reps) +
           ",\"latency\":" + std::to_string(samples) +
           ",\"segments\":" + std::to_string(windows) + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!parse(argc, argv, o) || !factory(o.workload)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cri_runs|serve_mix|"
                 "restructure_corpus --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--commit ID]\n");
    return 2;
  }
  try {
    // Set up several times; the median is setup_s. Each set-up starts
    // from nothing: the previous workload is torn down first.
    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    for (double total = 0;
         setups.size() < std::size_t{kSetupReps} ||
         (setups.size() < std::size_t{kMaxSetupReps} && total < kSetupSeconds);
         total += setups.back()) {
      w.reset();
      w = factory(o.workload)();
      const std::uint64_t t0 = now_ns();
      w->setup(o.seed);
      setups.push_back((now_ns() - t0) / 1e9);
    }
    std::string setup_reps = "[";
    for (const double t : setups) {
      if (setup_reps.size() > 1) setup_reps += ",";
      setup_reps += num(t);
    }
    setup_reps += "]";
    const double setup_s = quantile(setups, 0.5);

    const Schedule sched(now_ns(), o.seconds, o.trace == 1);
    std::vector<Measured> segs(sched.segments());
    w->run(sched, segs);
    spans::set_enabled(false);

    std::uint64_t attempted = 0, failed = 0;
    for (const Measured& m : segs)
      for (const Sample& s : m.samples) {
        ++attempted;
        failed += !s.ok;
      }

    MetricTable e2e, layer;
    std::string counts;
    end_to_end(sched, segs, setup_s, setups.size(), e2e, counts);
    w->layer_metrics(layer);
    for (const auto& [name, vu] : layer.all())
      if (std::none_of(std::begin(kPerLayer), std::end(kPerLayer),
                       [&](const MetricDef& d) { return name == d.name; }))
        throw std::logic_error("undeclared per-layer metric " + name);
    for (const MetricDef& d : kPerLayer)
      if (!layer.has(d.name)) layer.set(d.name, 0.0, d.unit);
    layer.set("error_ratio", per(failed, attempted), "ratio");
    layer.set("latency_p99_ms", p99_ms(sched, segs), "ms");

    std::string selftime_rows = "[]";
    double op_wall_ms = 0;
    if (o.trace == 1) {
      auto thr = [](const Measured& m) { return m.throughput(); };
      const double u = segment_median(sched, segs, 0, thr);
      const double t = segment_median(sched, segs, 1, thr);
      layer.set("trace.overhead_pct", u > 0 ? (u - t) / u * 100 : 0, "%");
      const spans::SelfTimes st = spans::self_times();
      op_wall_ms = per(st.op_wall_ns / 1e6, st.ops);
      layer.set("trace.unattributed_pct",
                per(100.0 * st.unattributed_ns(), st.op_wall_ns), "%");
      const std::string base =
          o.out + "/" + o.workload + "-seed" + std::to_string(o.seed);
      const std::string table = spans::format_table(st);
      std::fputs(table.c_str(), stderr);
      std::ofstream(base + ".selftime.txt") << table;
      if (!spans::write_chrome_trace(base + ".trace.json", 50000))
        std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                     base.c_str());
      selftime_rows = "[";
      for (const spans::Row& r : st.rows) {
        if (selftime_rows.size() > 1) selftime_rows += ",";
        selftime_rows += "{\"layer\":" + quoted(r.name) + ",\"ms_per_op\":" +
                         num(per(r.ns / 1e6, st.ops)) + ",\"unattributed\":" +
                         (r.unattributed ? "true" : "false") + "}";
      }
      selftime_rows += "]";
    }

    const std::string host =
        "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
        ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
        ",\"compiler\":" + quoted(__VERSION__) +
        ",\"commit\":" + quoted(o.commit) +
        ",\"seed\":" + std::to_string(o.seed) + "}";
    const std::string record =
        "{\"workload\":" + quoted(o.workload) + ",\"trace\":" +
        std::to_string(o.trace) + ",\"seconds\":" + num(o.seconds) +
        ",\"host\":" + host + ",\"attempted\":" + std::to_string(attempted) +
        ",\"failed\":" + std::to_string(failed) +
        ",\"samples\":" + counts + ",\"setup_reps_s\":" + setup_reps +
        ",\"end_to_end\":" + metrics_json(e2e) +
        ",\"per_layer\":" + metrics_json(layer) +
        ",\"self_time\":" + selftime_rows +
        ",\"op_wall_ms_per_op\":" + num(op_wall_ms) + "}";
    std::ofstream(o.out + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                  "-trace" + std::to_string(o.trace) + ".json")
        << record << "\n";

    w.reset();
    std::printf("# host %s\n# samples %s\n", host.c_str(), counts.c_str());
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics_json(o.trace == 0 ? e2e : layer).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
