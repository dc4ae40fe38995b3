#include "obs/report.hpp"

#include <cstdio>
#include <sstream>

#include "runtime/scheduler.hpp"  // header-only §4.1 model

namespace curare::obs {

void SpeedupReport::add(MeasuredRun run) {
  std::lock_guard<std::mutex> g(mu_);
  runs_.push_back(std::move(run));
}

void SpeedupReport::clear() {
  std::lock_guard<std::mutex> g(mu_);
  runs_.clear();
}

std::size_t SpeedupReport::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return runs_.size();
}

std::vector<MeasuredRun> SpeedupReport::runs() const {
  std::lock_guard<std::mutex> g(mu_);
  return runs_;
}

std::vector<SpeedupRow> SpeedupReport::rows() const {
  std::vector<SpeedupRow> out;
  for (const MeasuredRun& r : runs()) {
    SpeedupRow row;
    row.run = r;
    const double d = static_cast<double>(r.invocations);
    if (d > 0) {
      row.mean_h_ns = static_cast<double>(r.head_ns) / d;
      row.mean_t_ns = static_cast<double>(r.tail_ns) / d;
    }
    // A base-case-only run has h = whole body; keep the model total
    // positive so the error column stays defined.
    if (row.mean_h_ns <= 0) row.mean_h_ns = 1;
    row.s_star = runtime::optimal_servers_continuous(d > 0 ? d : 1,
                                                     row.mean_h_ns,
                                                     row.mean_t_ns);
    if (r.sequential) {  // nothing ran under the model: no prediction
      out.push_back(row);
      continue;
    }
    row.predicted_ns = (r.work_first ? runtime::predicted_time_work_first
                                     : runtime::predicted_time)(
        static_cast<double>(r.servers), d > 0 ? d : 1, row.mean_h_ns,
        row.mean_t_ns);
    if (row.predicted_ns > 0) {
      row.error_pct = (static_cast<double>(r.wall_ns) - row.predicted_ns) /
                      row.predicted_ns * 100.0;
    }
    const double occupied =
        static_cast<double>(r.busy_ns) + static_cast<double>(r.idle_ns);
    row.utilization =
        occupied > 0 ? static_cast<double>(r.busy_ns) / occupied : 0.0;
    out.push_back(row);
  }
  return out;
}

std::string SpeedupReport::table() const {
  const std::vector<SpeedupRow> rws = rows();
  std::ostringstream ss;
  if (rws.empty()) {
    ss << "speedup report: no CRI runs recorded\n";
    return ss.str();
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "%-16s %4s %8s %10s %10s %10s %8s %6s %7s\n", "run", "S",
                "d", "T_meas ms", "T_pred ms", "err%", "util%", "S*",
                "h/(h+t)");
  ss << line;
  for (const SpeedupRow& r : rws) {
    const double ht = r.mean_h_ns + r.mean_t_ns;
    if (r.run.sequential) {
      std::snprintf(
          line, sizeof line,
          "%-16s %4s %8llu %10s %10s %9s %7s %6.1f %7.3f  c_f %.2f\n",
          r.run.label.empty() ? "(cri)" : r.run.label.c_str(), "seq",
          static_cast<unsigned long long>(r.run.invocations), "-", "-",
          "-", "-", r.s_star, ht > 0 ? r.mean_h_ns / ht : 0.0, r.run.c_f);
      ss << line;
      continue;
    }
    std::snprintf(
        line, sizeof line,
        "%-16s %4zu %8llu %10.3f %10.3f %+9.1f %7.1f %6.1f %7.3f\n",
        r.run.label.empty() ? "(cri)" : r.run.label.c_str(),
        r.run.servers,
        static_cast<unsigned long long>(r.run.invocations),
        static_cast<double>(r.run.wall_ns) / 1e6, r.predicted_ns / 1e6,
        r.error_pct, r.utilization * 100.0, r.s_star,
        ht > 0 ? r.mean_h_ns / ht : 0.0);
    ss << line;
  }
  ss << "T_pred = (ceil(d/S)-1)(h+t) + (S*h+t) with measured mean h, t "
        "(paper 4.1),\nor max(d*h, d*(h+t)/S) + t for a work-first run "
        "(heads as a loop, tails as tasks);\nS* = sqrt(d(h+t)/h) "
        "unclamped.\n";
  bool any_sequential = false;
  for (const SpeedupRow& r : rws) any_sequential |= r.run.sequential;
  if (any_sequential)
    ss << "seq: the call ran the original defun, because the model gave "
          "S = 1 for the\nlast CRI run's d, h and t (shown); c_f = "
          "(h+t)/h, capped by the conflict distance.\n";
  return ss.str();
}

std::string SpeedupReport::json_lines() const {
  std::ostringstream ss;
  for (const SpeedupRow& r : rows()) {
    ss << "{\"label\":\"" << r.run.label << "\",\"servers\":"
       << r.run.servers << ",\"invocations\":" << r.run.invocations
       << ",\"wall_ns\":" << r.run.wall_ns << ",\"head_ns\":"
       << r.run.head_ns << ",\"tail_ns\":" << r.run.tail_ns
       << ",\"busy_ns\":" << r.run.busy_ns << ",\"idle_ns\":"
       << r.run.idle_ns << ",\"work_first\":"
       << (r.run.work_first ? "true" : "false") << ",\"sequential\":"
       << (r.run.sequential ? "true" : "false") << ",\"c_f\":" << r.run.c_f
       << ",\"predicted_ns\":" << r.predicted_ns
       << ",\"error_pct\":" << r.error_pct << ",\"utilization\":"
       << r.utilization << ",\"s_star\":" << r.s_star << "}\n";
  }
  return ss.str();
}

}  // namespace curare::obs
