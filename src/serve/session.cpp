#include "serve/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "gc/gc.hpp"
#include "obs/recorder.hpp"
#include "obs/request.hpp"
#include "runtime/resource.hpp"
#include "sexpr/printer.hpp"
#include "serve/exit_codes.hpp"

namespace curare::serve {

namespace {

/// A fired token's reason decides deadline vs. stall: the daemon and
/// the watchdog both cancel through the same CancelState machinery,
/// and only deadline cancels carry this phrase (resilience.hpp).
bool is_deadline(const std::string& msg) {
  return msg.find("deadline exceeded") != std::string::npos;
}

/// Which resource.exhausted.* counter a clipped request bumps — the
/// names are API for :stats, the metrics op, and the bench.
const char* exhausted_counter_name(runtime::ResourceExhausted::Kind k) {
  switch (k) {
    case runtime::ResourceExhausted::Kind::kMemQuota:
      return "resource.exhausted.quota";
    case runtime::ResourceExhausted::Kind::kHeapHard:
      return "resource.exhausted.heap";
    case runtime::ResourceExhausted::Kind::kFuel:
      return "resource.exhausted.fuel";
    case runtime::ResourceExhausted::Kind::kResultCap:
      return "resource.exhausted.result_cap";
  }
  return "resource.exhausted.quota";
}

}  // namespace

Session::Session(std::uint64_t id, sexpr::Ctx& ctx,
                 runtime::Runtime& shared_runtime,
                 const image::SessionImage* image,
                 image::RestructureCache* cache)
    : id_(id), driver_(ctx, shared_runtime), cache_(cache) {
  if (image != nullptr) {
    const image::CloneStats stats = image->clone_into(driver_);
    shared_runtime.obs().metrics.histogram("image.clone_ns")
        .observe(stats.ns);
  }
}

Session::~Session() {
  // Futures spawned by this session's programs capture driver_.interp()
  // by reference; the shared pool outlives us, so drain it before the
  // interpreter is destroyed.
  try {
    driver_.runtime().futures().wait_idle();
  } catch (...) {
    // Cancellation during teardown: the remaining tasks belong to other
    // sessions or have already observed their own tokens.
  }
}

Response Session::handle(const Request& req,
                         runtime::CancelState* tok) {
  ++requests_;
  const auto t0 = std::chrono::steady_clock::now();
  Response resp;
  try {
    if (req.op == "eval") {
      resp = do_eval(req);
    } else if (req.op == "restructure") {
      resp = do_restructure(req);
    } else if (req.op == "stats") {
      resp = do_stats();
    } else if (req.op == "metrics") {
      resp = do_metrics(req);
    } else if (req.op == "trace") {
      resp = do_trace(req);
    } else if (req.op == "ping") {
      resp = Response::ok("pong");
    } else {
      resp = Response::fail(kStatusError, "unknown op: " + req.op);
    }
  } catch (const runtime::StallError& e) {
    const std::string why =
        tok != nullptr && tok->cancelled() ? tok->reason() : e.what();
    resp = Response::fail(
        is_deadline(why) || is_deadline(e.what()) ? kStatusDeadline
                                                  : kStatusStall,
        e.what());
  } catch (const runtime::ResourceExhausted& e) {
    // Before the generic LispError arm: a clipped request answers
    // with the structured status (exit code 6 client-side), and only
    // this request died — the session's next request gets a fresh
    // budget.
    driver_.runtime().obs().metrics
        .counter(exhausted_counter_name(e.kind()))
        .add();
    resp = Response::fail(kStatusResourceExhausted, e.what());
  } catch (const sexpr::LispError& e) {
    resp = Response::fail(kStatusError, e.what());
  } catch (const std::exception& e) {
    resp = Response::fail(kStatusError, e.what());
  }
  if (result_cap_ != 0 && resp.status == kStatusOk &&
      resp.result.size() + resp.output.size() > result_cap_) {
    driver_.runtime().obs().metrics
        .counter(exhausted_counter_name(
            runtime::ResourceExhausted::Kind::kResultCap))
        .add();
    resp = Response::fail(
        kStatusResourceExhausted,
        "result cap exceeded: reply would carry " +
            std::to_string(resp.result.size() + resp.output.size()) +
            " byte(s), cap " + std::to_string(result_cap_));
  }
  const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - t0);
  JsonObject m;
  m["session"] = id_;
  m["wall_us"] = static_cast<std::int64_t>(wall.count());
  resp.metrics = Json(std::move(m));
  // Remember this request's trace lane so a follow-up `trace` op (which
  // runs under its own rid) can default to it.
  if (const std::uint64_t rid = obs::current_rid()) last_rid_ = rid;
  return resp;
}

Response Session::do_eval(const Request& req) {
  sexpr::Ctx& ctx = driver_.interp().ctx();
  gc::GcHeap& gc = ctx.heap.gc();
  gc::RootScope roots(gc);
  std::string printed;
  {
    gc::MutatorScope ms(gc);
    sexpr::Value last = driver_.load_program(req.program);
    roots.add(last);
    printed = sexpr::write_str(last);
  }
  gc.maybe_collect();
  return Response::ok(std::move(printed), driver_.interp().take_output());
}

Response Session::do_restructure(const Request& req) {
  sexpr::Ctx& ctx = driver_.interp().ctx();
  gc::GcHeap& gc = ctx.heap.gc();
  if (!req.program.empty()) {
    gc::MutatorScope ms(gc);
    driver_.load_program(req.program);
  }

  // Everything past program loading is the restructure phase of the
  // request's breakdown (loading charged itself as parse + eval).
  const auto t_restruct0 = std::chrono::steady_clock::now();
  std::vector<std::string> names;
  if (!req.name.empty()) {
    names.push_back(req.name);
  } else {
    // No name → every recursive defun loaded so far, in symbol order
    // (the summary map is unordered; sort for a deterministic reply).
    for (const auto& [sym, summary] : driver_.summaries())
      names.push_back(sym->name);
    std::sort(names.begin(), names.end());
  }

  std::string text;
  std::string output = driver_.interp().take_output();
  std::size_t transformed = 0;
  // Cache keys for every name are derived up front, against the
  // program state as loaded — transform() rewrites the defun table as
  // the sweep progresses, and a key minted mid-sweep would never match
  // the one another session computes before its own sweep starts.
  std::vector<std::string> keys(names.size());
  if (cache_ != nullptr) {
    gc::MutatorScope ms(gc);
    const image::RestructureCache::KeySeed seed =
        image::RestructureCache::seed_state(driver_);
    for (std::size_t i = 0; i < names.size(); ++i)
      keys[i] = image::RestructureCache::make_key(seed, names[i],
                                                  !req.name.empty());
  }

  for (std::size_t ni = 0; ni < names.size(); ++ni) {
    const std::string& name = names[ni];
    // Consult the process-wide content-addressed cache first: the key
    // covers everything the answer depends on (restructure_cache.hpp),
    // so a hit replays the exact reply chunk and installs the cached
    // transformed defuns into *this* session — byte- and
    // behavior-identical to the miss path, minus the analysis cost.
    const std::string& key = keys[ni];
    if (cache_ != nullptr) {
      gc::MutatorScope ms(gc);
      image::RestructureEntry entry;
      if (cache_->lookup(key, &entry)) {
        if (req.name.empty() && !entry.is_recursive) continue;
        text += entry.text;
        for (sexpr::Value f : entry.forms) driver_.interp().eval_top(f);
        if (entry.ok) ++transformed;
        continue;
      }
    }
    AnalysisReport report = driver_.analyze(name);
    if (req.name.empty() && !report.info.is_recursive()) {
      // Cache the negative verdict too: a sweep's skip decision is as
      // expensive to re-derive as a transform refusal.
      if (cache_ != nullptr)
        cache_->insert(key, image::RestructureEntry{});
      continue;
    }
    TransformPlan plan = driver_.transform(name);
    std::string chunk = ";; " + name + "\n";
    chunk += plan.to_string();
    {
      gc::MutatorScope ms(gc);
      for (sexpr::Value f : plan.forms)
        chunk += sexpr::write_str(f) + "\n";
      if (cache_ != nullptr) {
        cache_->insert(key, image::RestructureEntry{
                                chunk, plan.ok,
                                report.info.is_recursive(), plan.forms});
      }
    }
    text += chunk;
    if (plan.ok) ++transformed;
  }
  if (names.empty()) {
    return Response::fail(kStatusError,
                          "restructure: no defuns loaded in this session");
  }
  text += "transformed " + std::to_string(transformed) + " of " +
          std::to_string(names.size()) + " function(s)\n";
  obs::charge_request(
      &obs::Breakdown::restructure_ns,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t_restruct0)
              .count()));
  return Response::ok(std::move(text), std::move(output));
}

Response Session::do_stats() {
  std::string report = obs::full_report(driver_.runtime().obs());
  // Warm-start health: restructure-cache effectiveness and what a
  // session costs to open (the image clone, when there is an image).
  obs::Metrics& m = driver_.runtime().obs().metrics;
  report += "\n== warm start ==\n";
  if (cache_ != nullptr) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.3f", cache_->hit_ratio());
    report += "restructure cache: " + std::to_string(cache_->size()) +
              " entries, " + std::to_string(cache_->hits()) + " hits, " +
              std::to_string(cache_->misses()) + " misses, " +
              std::to_string(cache_->evictions()) +
              " evictions, hit ratio " + ratio + "\n";
  } else {
    report += "restructure cache: disabled\n";
  }
  obs::Histogram& clone_h = m.histogram("image.clone_ns");
  if (clone_h.count() > 0) {
    report += "image clone: " + std::to_string(clone_h.count()) +
              " clone(s), mean " +
              std::to_string(
                  static_cast<std::uint64_t>(clone_h.mean() / 1000.0)) +
              " us\n";
  } else {
    report += "image clone: none (no prelude)\n";
  }
  obs::Histogram& setup_h = m.histogram("serve.session_setup_ns");
  if (setup_h.count() > 0) {
    report += "session setup: " + std::to_string(setup_h.count()) +
              " session(s), mean " +
              std::to_string(
                  static_cast<std::uint64_t>(setup_h.mean() / 1000.0)) +
              " us\n";
  }
  return Response::ok(std::move(report));
}

Response Session::do_metrics(const Request& req) {
  obs::Metrics& m = driver_.runtime().obs().metrics;
  if (req.format.empty() || req.format == "prom") {
    return Response::ok(m.to_prometheus());
  }
  if (req.format == "json") return Response::ok(m.to_json());
  return Response::fail(kStatusError,
                        "metrics: unknown format '" + req.format +
                            "' (want prom or json)");
}

Response Session::do_trace(const Request& req) {
  const obs::Tracer& tracer = driver_.runtime().obs().tracer;
  if (!tracer.enabled() && tracer.events_recorded() == 0) {
    return Response::fail(
        kStatusError,
        "trace: tracer disabled (start curare_serve with --trace)");
  }
  const std::uint64_t rid =
      req.rid > 0 ? static_cast<std::uint64_t>(req.rid) : last_rid_;
  if (rid == 0) {
    return Response::fail(kStatusError,
                          "trace: no request to export yet (pass "
                          "\"rid\" or send an eval first)");
  }
  return Response::ok(tracer.chrome_trace_json(rid));
}

}  // namespace curare::serve
