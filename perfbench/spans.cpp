#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench::spans {
namespace {

struct Rec {
  const char* name;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t op;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint32_t tid;
};

struct Attr {
  std::uint64_t span;
  const char* layer;
  std::uint64_t ns;
};

/// One per recording thread. Owned by the registry, so spans outlive
/// the client threads that recorded them.
struct Buffer {
  std::uint32_t tid = 0;
  std::vector<Rec> recs;
  std::vector<Attr> attrs;
  std::vector<std::size_t> open;  ///< indices of open spans, innermost last
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

Buffer& buffer() {
  thread_local Buffer* b = nullptr;
  if (b == nullptr) {
    std::lock_guard<std::mutex> g(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    b = g_buffers.back().get();
    b->tid = static_cast<std::uint32_t>(g_buffers.size());
  }
  return *b;
}

/// Span ids carry the thread in the high half and the buffer index
/// (plus one) in the low half, so 0 means "no span".
std::uint64_t make_id(std::uint32_t tid, std::size_t index) {
  return (static_cast<std::uint64_t>(tid) << 32) | (index + 1);
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t op) {
  if (!enabled()) return;
  Buffer& b = buffer();
  const std::uint64_t parent =
      b.open.empty() ? 0 : b.recs[b.open.back()].id;
  const std::size_t index = b.recs.size();
  id_ = make_id(b.tid, index);
  b.recs.push_back(Rec{name, now_ns(), 0, op, id_, parent, b.tid});
  b.open.push_back(index);
}

Span::~Span() {
  if (id_ == 0) return;
  Buffer& b = buffer();
  b.recs[b.open.back()].end = now_ns();
  b.open.pop_back();
}

void Span::attribute(const char* layer, std::uint64_t ns) {
  if (id_ == 0 || ns == 0) return;
  buffer().attrs.push_back(Attr{id_, layer, ns});
}

std::uint64_t SelfTimes::unattributed_ns() const {
  std::uint64_t n = 0;
  for (const Row& r : rows)
    if (r.unattributed) n += r.ns;
  return n;
}

SelfTimes self_times() {
  std::lock_guard<std::mutex> g(g_mu);
  std::vector<const Rec*> recs;
  std::unordered_map<std::uint64_t, std::size_t> index;
  std::unordered_map<std::uint64_t, std::vector<const Attr*>> attrs;
  for (const auto& b : g_buffers) {
    for (const Rec& r : b->recs) {
      if (r.end == 0) continue;  // still open: not part of any finished op
      index[r.id] = recs.size();
      recs.push_back(&r);
    }
    for (const Attr& a : b->attrs) attrs[a.span].push_back(&a);
  }
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      recs.size());
  for (const Rec* r : recs) {
    const auto p = index.find(r->parent);
    if (p != index.end()) kids[p->second].emplace_back(r->start, r->end);
  }

  SelfTimes out;
  std::map<std::string, Row> rows;
  auto charge = [&](const std::string& name, std::uint64_t ns,
                    bool unattributed) {
    Row& row = rows[name];
    row.name = name;
    row.ns += ns;
    row.unattributed = unattributed;
  };
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = *recs[i];
    const std::uint64_t dur = r.end - r.start;
    // Union of the children's intervals, clipped to this span.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, reach = r.start;
    for (auto [s, e] : iv) {
      s = std::max(s, reach);
      e = std::min(e, r.end);
      if (e > s) {
        covered += e - s;
        reach = e;
      }
    }
    const std::uint64_t self = dur - std::min(dur, covered);
    const bool root = index.find(r.parent) == index.end();
    if (root) {
      out.op_wall_ns += dur;
      ++out.ops;
    }
    const auto a = attrs.find(r.id);
    if (a == attrs.end()) {
      if (root)
        charge(std::string(r.name) + " (unattributed)", self, true);
      else
        charge(r.name, self, false);
      continue;
    }
    // A layer can report more than the span's self time (its clock
    // started before the call, or counts work another span covers);
    // scale the claims down so the rows still sum to the wall time.
    std::uint64_t claimed = 0;
    for (const Attr* x : a->second) claimed += x->ns;
    const double scale =
        claimed > self ? static_cast<double>(self) / claimed : 1.0;
    std::uint64_t given = 0;
    for (const Attr* x : a->second) {
      const auto ns = static_cast<std::uint64_t>(x->ns * scale);
      charge(std::string(r.name) + " > " + x->layer, ns, false);
      given += ns;
    }
    charge(std::string(r.name) + " (unattributed)", self - given, true);
  }
  for (auto& [name, row] : rows) out.rows.push_back(std::move(row));
  std::sort(out.rows.begin(), out.rows.end(),
            [](const Row& x, const Row& y) { return x.ns > y.ns; });
  return out;
}

std::string format_table(const SelfTimes& t) {
  std::string s;
  char line[256];
  const double ops = t.ops > 0 ? static_cast<double>(t.ops) : 1.0;
  const double wall = t.op_wall_ns > 0 ? static_cast<double>(t.op_wall_ns)
                                       : 1.0;
  std::snprintf(line, sizeof line,
                "self time per op over %llu traced ops (rows sum to the op "
                "wall time)\n%-56s %12s %8s\n",
                static_cast<unsigned long long>(t.ops), "layer", "ms/op",
                "share");
  s += line;
  std::uint64_t sum = 0;
  for (const Row& r : t.rows) {
    std::snprintf(line, sizeof line, "%-56s %12.6f %7.2f%%\n",
                  r.name.c_str(), r.ns / ops / 1e6, 100.0 * r.ns / wall);
    s += line;
    sum += r.ns;
  }
  std::snprintf(line, sizeof line,
                "%-56s %12.6f %7.2f%%\n%-56s %12.6f %7.2f%%\n",
                "of which unattributed", t.unattributed_ns() / ops / 1e6,
                100.0 * t.unattributed_ns() / wall, "sum = op wall time",
                sum / ops / 1e6, 100.0 * sum / wall);
  s += line;
  return s;
}

bool write_chrome_trace(const std::string& path, std::size_t max_events) {
  std::lock_guard<std::mutex> g(g_mu);
  std::vector<const Rec*> recs;
  for (const auto& b : g_buffers)
    for (const Rec& r : b->recs)
      if (r.end != 0) recs.push_back(&r);
  std::sort(recs.begin(), recs.end(), [](const Rec* x, const Rec* y) {
    return x->start < y->start;
  });
  if (recs.size() > max_events) recs.resize(max_events);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t t0 = recs.empty() ? 0 : recs.front()->start;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = *recs[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"id\":%llu,\"parent\":%llu}}",
                 i == 0 ? "" : ",", r.name, r.tid, (r.start - t0) / 1e3,
                 (r.end - r.start) / 1e3,
                 static_cast<unsigned long long>(r.op),
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::spans
