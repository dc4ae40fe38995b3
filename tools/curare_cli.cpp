// curare — command-line front end to the restructurer.
//
//   curare [opts] program.lisp   batch: load, analyze & transform every
//                                recursive defun, print the report and
//                                the restructured program (top-level
//                                forms run, so %cri-run calls execute)
//   curare [opts] -e "(…)"       evaluate one form and print the result
//   curare [opts]                interactive REPL with commands:
//                                  :analyze NAME     §2/§3 analysis report
//                                  :transform NAME   restructure NAME
//                                  :par S (NAME a…)  run transformed NAME
//                                  :sapp EXPR        SAPP check a value
//                                  :stats            metrics + measured-
//                                                    vs-predicted T(S)
//                                  :trace FILE       dump trace JSON
//                                  :profile [on|off|report|clear]
//                                                    sampling eval
//                                                    profiler control
//                                  :gc               force a collection
//                                  :quit
//                                anything else is evaluated as Lisp.
// Options:
//   --trace FILE   record runtime events (locks, tasks, futures) and
//                  write a Chrome trace-event JSON to FILE on exit —
//                  open it in Perfetto or chrome://tracing
//   --stats        print the metrics registry and the §4.1 measured-
//                  vs-predicted server-allocation table on exit
//   --gc-threshold N   bytes of fresh allocation between collections
//                  (k/m/g suffixes accepted; 0 disables the automatic
//                  trigger — explicit :gc still collects)
//   --gc-stats     print collector statistics (pauses, reclaimed,
//                  live) on exit
//   --deadline-ms N    abort any CRI run (and batch/-e evaluation) that
//                  exceeds N ms of wall clock with a StallError +
//                  diagnostic dump (exit code 3)
//   --stall-ms N   arm the per-run watchdog: abort a CRI run in which
//                  no task completes for N ms (exit code 3)
//   --lock-budget-ms N  cap any single blocked lock acquisition
//   --chaos SEED:RATE[:KINDS[:SITES]]  arm the deterministic fault
//                  injector (grammar: FaultInjector::parse_spec); see
//                  :resilience for per-site counts
//   --profile[=N]  arm the sampling eval profiler (one sample per N
//                  eval steps, default 64, power of two >= 8) and print
//                  the collapsed hot-form report on exit
//   --mem-quota N  per-run GC-allocation quota in bytes (k/m/g
//                  suffixes; 0 = unlimited) — a crossing run dies with
//                  a ResourceExhausted diagnosis and exit code 6; in
//                  the REPL only that line dies and the session
//                  continues with a fresh budget per line
//   --fuel N       per-run eval-step budget (tree steps / VM
//                  instructions; 0 = unlimited), same exit code 6
//   --heap-soft N  arm the heap soft watermark: crossing it raises GC
//                  urgency (a collection at every next quiescent point
//                  while above)
//   --heap-hard N  arm the heap hard watermark: above it allocations
//                  fail with ResourceExhausted instead of growing
//                  toward the OS OOM killer
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "curare/curare.hpp"
#include "curare/struct_sapp.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/request.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/resilience.hpp"
#include "runtime/resource.hpp"
#include "serve/exit_codes.hpp"
#include "sexpr/list_ops.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"

namespace {

using curare::Curare;
using curare::Value;

/// A stalled run is its own exit condition (code 3), with the dump on
/// stderr so CI logs show *why* — not just that — a program died.
void print_stall(const curare::runtime::StallError& e) {
  std::fprintf(stderr, "stall: %s\n", e.what());
  if (!e.dump().empty()) std::fprintf(stderr, "%s", e.dump().c_str());
}

/// A fresh per-run budget context (quota/fuel), or null when no
/// governance flag was passed — RequestScope treats null as a no-op,
/// matching CancelScope's convention. Fresh per run/REPL line: a
/// clipped line must not tax the next one.
std::shared_ptr<curare::obs::RequestContext> fresh_budget(
    std::uint64_t mem_quota, std::uint64_t fuel) {
  if (mem_quota == 0 && fuel == 0) return nullptr;
  auto rc = std::make_shared<curare::obs::RequestContext>();
  rc->rid = curare::obs::RequestContext::next_rid();
  rc->mem_quota = mem_quota;
  rc->fuel_limit = fuel;
  return rc;
}

/// Deadline-killed runs exit 4, watchdog/cancel stalls exit 3 — the
/// shared table in serve/exit_codes.hpp, so a local run and a served
/// one report the same way. The cancel reason is the discriminator
/// ("deadline exceeded" is minted only by CancelState's deadline path).
int stall_exit_code(const curare::runtime::StallError& e) {
  return std::string_view(e.what()).find("deadline exceeded") !=
                 std::string_view::npos
             ? curare::serve::kExitDeadline
             : curare::serve::kExitStall;
}

void print_gc_stats(const curare::gc::GcHeap& gc, std::FILE* to) {
  const curare::gc::GcStats st = gc.stats();
  std::fprintf(to,
               "gc: %llu collection(s), pause last/max/total %llu/%llu/%llu "
               "us\n"
               "gc: reclaimed %llu object(s) / %llu bytes; live %llu "
               "object(s) / %llu bytes; heap %llu bytes in %llu block(s) "
               "(%llu free)\n",
               static_cast<unsigned long long>(st.collections),
               static_cast<unsigned long long>(st.last_pause_ns / 1000),
               static_cast<unsigned long long>(st.max_pause_ns / 1000),
               static_cast<unsigned long long>(st.total_pause_ns / 1000),
               static_cast<unsigned long long>(st.reclaimed_objects),
               static_cast<unsigned long long>(st.reclaimed_bytes),
               static_cast<unsigned long long>(st.live_objects),
               static_cast<unsigned long long>(st.live_bytes),
               static_cast<unsigned long long>(st.heap_bytes),
               static_cast<unsigned long long>(st.total_blocks),
               static_cast<unsigned long long>(st.free_blocks));
}

void batch_transform_all(Curare& cur, const std::string& source) {
  cur.load_program(source);
  // Loading evaluated every top-level form; surface what they printed.
  const std::string out = cur.interp().take_output();
  if (!out.empty()) std::printf("%s", out.c_str());

  // Find every defun in the program and try to restructure it. The
  // re-read forms live in a plain C++ vector, so they are pinned for
  // the duration of the walk — transforms and top-level runs inside the
  // loop may trigger collections.
  curare::sexpr::Ctx& ctx = cur.interp().ctx();
  curare::gc::GcHeap& gc = ctx.heap.gc();
  curare::gc::RootScope roots(gc);
  std::vector<Value> forms;
  {
    curare::gc::MutatorScope ms(gc);
    forms = curare::sexpr::read_all(ctx, source);
    for (Value f : forms) roots.add(f);
  }
  for (Value form : forms) {
    gc.maybe_collect();
    if (!form.is(curare::sexpr::Kind::Cons)) continue;
    Value head = curare::sexpr::car(form);
    if (!head.is(curare::sexpr::Kind::Symbol)) continue;
    if (curare::sexpr::as_symbol(head)->name != "defun") continue;
    const std::string name =
        curare::sexpr::as_symbol(curare::sexpr::cadr(form))->name;

    std::printf("────────────────────────────────────────────\n");
    std::printf(";; %s\n", name.c_str());
    curare::AnalysisReport report = cur.analyze(name);
    std::printf("%s\n", report.to_string().c_str());
    if (!report.info.is_recursive()) {
      std::printf(";; not recursive — left unchanged\n\n");
      continue;
    }
    curare::TransformPlan plan = cur.transform(name);
    std::printf("%s\n", plan.to_string().c_str());
    for (Value f : plan.forms)
      std::printf("%s\n", curare::sexpr::write_str(f).c_str());
    std::printf("\n");
  }
}

bool write_trace_file(const curare::obs::Recorder& rec,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return false;
  }
  rec.tracer.write_chrome_trace(out);
  std::fprintf(stderr,
               "trace: %zu event(s) from %zu thread(s) → %s "
               "(open in Perfetto / chrome://tracing)\n",
               rec.tracer.events_recorded(), rec.tracer.thread_count(),
               path.c_str());
  return true;
}

int repl(Curare& cur, std::uint64_t mem_quota, std::uint64_t fuel) {
  curare::sexpr::Ctx& ctx = cur.interp().ctx();
  std::string line;
  std::printf("curare> ");
  while (std::getline(std::cin, line)) {
    try {
      // Each line runs under its own budget, like each served request.
      curare::obs::RequestScope budget(fresh_budget(mem_quota, fuel));
      if (line.empty()) {
        // fallthrough to the prompt
      } else if (line == ":quit" || line == ":q") {
        return 0;
      } else if (line.rfind(":analyze ", 0) == 0) {
        std::printf("%s",
                    cur.analyze(line.substr(9)).to_string().c_str());
      } else if (line.rfind(":transform ", 0) == 0) {
        curare::TransformPlan plan = cur.transform(line.substr(11));
        std::printf("%s", plan.to_string().c_str());
        for (Value f : plan.forms)
          std::printf("%s\n", curare::sexpr::write_str(f).c_str());
      } else if (line.rfind(":par ", 0) == 0) {
        // :par S (fn arg...)
        std::istringstream iss(line.substr(5));
        std::size_t servers = 0;
        iss >> servers;
        std::string call;
        std::getline(iss, call);
        curare::gc::RootScope arg_roots(ctx.heap.gc());
        Value form;
        std::vector<Value> args;
        {
          // The parsed form and each evaluated argument must survive
          // the evaluation of the next one (and the parallel run).
          curare::gc::MutatorScope ms(ctx.heap.gc());
          form = curare::sexpr::read_one(ctx, call);
          arg_roots.add(form);
          for (Value a = curare::sexpr::cdr(form); !a.is_nil();
               a = curare::sexpr::cdr(a)) {
            Value v = cur.interp().eval_top(curare::sexpr::car(a));
            args.push_back(v);
            arg_roots.add(v);
          }
        }
        const std::string fname =
            curare::sexpr::as_symbol(curare::sexpr::car(form))->name;
        Value out = cur.run_parallel(fname, args, servers);
        std::printf("%s\n", curare::sexpr::write_str(out).c_str());
      } else if (line.rfind(":sapp ", 0) == 0) {
        Value v = cur.eval_program(line.substr(6));
        auto r = curare::check_struct_sapp(v, cur.declarations());
        std::printf("%s (%zu instances)%s%s\n",
                    r.holds ? "SAPP holds" : "SAPP violated",
                    r.instances, r.violation.empty() ? "" : ": ",
                    r.violation.c_str());
      } else if (line == ":gc") {
        const std::uint64_t freed = ctx.heap.gc().collect("repl");
        std::printf("collected: %llu byte(s) reclaimed, %zu object(s) "
                    "live\n",
                    static_cast<unsigned long long>(freed),
                    ctx.heap.live_objects());
      } else if (line == ":stats") {
        std::printf("%s",
                    curare::obs::full_report(cur.runtime().obs()).c_str());
      } else if (line == ":resilience") {
        std::printf("%s", cur.runtime().resilience_report().c_str());
      } else if (line.rfind(":trace ", 0) == 0) {
        // Dumps what the ring buffers currently hold; recording must
        // have been enabled (run the CLI with --trace, which also
        // writes a final dump on exit).
        write_trace_file(cur.runtime().obs(), line.substr(7));
      } else if (line == ":profile" || line.rfind(":profile ", 0) == 0) {
        auto& prof = curare::obs::Profiler::instance();
        const std::string sub =
            line.size() > 9 ? line.substr(9) : std::string("report");
        if (sub == "on") {
          prof.set_enabled(true);
          std::printf("profiler armed (1-in-%u eval steps)\n",
                      prof.period());
        } else if (sub == "off") {
          prof.set_enabled(false);
          std::printf("profiler disarmed (%llu sample(s) held; "
                      ":profile report to print)\n",
                      static_cast<unsigned long long>(prof.samples()));
        } else if (sub == "clear") {
          prof.clear();
          std::printf("profiler samples cleared\n");
        } else if (sub == "report") {
          std::printf("%s", prof.hot_report().c_str());
        } else {
          std::printf(":profile wants on, off, report, or clear\n");
        }
      } else if (line[0] == ':') {
        std::printf("unknown command; try :analyze :transform :par "
                    ":sapp :stats :resilience :trace :profile :gc "
                    ":quit\n");
      } else {
        // Plain Lisp. Loading through the driver keeps defuns known to
        // the transformer.
        cur.load_program(line);
        std::string out = cur.interp().take_output();
        if (!out.empty()) std::printf("%s", out.c_str());
      }
    } catch (const curare::runtime::StallError& e) {
      // The run died but the session survives: the CriRun drained its
      // queues on abort and a fresh run mints a fresh token.
      print_stall(e);
    } catch (const curare::runtime::ResourceExhausted& e) {
      // Same survival story as a stall: exactly this line was
      // clipped; the next line gets a fresh budget.
      std::printf("resource-exhausted: %s\n", e.what());
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
    // Each REPL line is a quiescent point: nothing typed so far holds
    // unrooted Values on this stack.
    ctx.heap.gc().maybe_collect();
    std::printf("curare> ");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool stats = false;
  bool gc_stats = false;
  bool have_threshold = false;
  std::uint64_t gc_threshold = 0;
  std::string eval_expr;
  bool have_eval = false;
  std::string file;
  std::int64_t deadline_ms = 0;
  std::int64_t stall_ms = 0;
  std::int64_t lock_budget_ms = 0;
  std::uint64_t mem_quota = 0;
  std::int64_t fuel = 0;
  std::uint64_t heap_soft = 0;
  std::uint64_t heap_hard = 0;
  std::optional<curare::runtime::FaultInjector::Spec> chaos;
  long long profile_period = 0;  // 0 = profiler off

  // Every value flag accepts both "--flag VALUE" and "--flag=VALUE"
  // spellings; take_value recognizes the flag and yields the value.
  auto take_value = [&](int& i, const std::string& arg,
                        const std::string& flag,
                        std::string& out) -> bool {
    if (arg.rfind(flag + "=", 0) == 0) {
      out = arg.substr(flag.size() + 1);
      return true;
    }
    if (arg != flag) return false;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires an argument\n", flag.c_str());
      std::exit(curare::serve::kExitUsage);
    }
    out = argv[++i];
    return true;
  };
  auto parse_ms = [](const std::string& flag, const std::string& text,
                     std::int64_t& out) -> bool {
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || v < 0) {
      std::fprintf(stderr, "%s: bad millisecond count '%s'\n",
                   flag.c_str(), text.c_str());
      return false;
    }
    out = v;
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (take_value(i, arg, "--gc-threshold", v)) {
      if (!curare::runtime::parse_bytes(v, gc_threshold)) {
        std::fprintf(stderr,
                     "--gc-threshold requires a byte count (k/m/g "
                     "suffixes accepted)\n");
        return curare::serve::kExitUsage;
      }
      have_threshold = true;
    } else if (arg == "--gc-stats") {
      gc_stats = true;
    } else if (take_value(i, arg, "--deadline-ms", v)) {
      if (!parse_ms("--deadline-ms", v, deadline_ms))
        return curare::serve::kExitUsage;
    } else if (take_value(i, arg, "--stall-ms", v)) {
      if (!parse_ms("--stall-ms", v, stall_ms))
        return curare::serve::kExitUsage;
    } else if (take_value(i, arg, "--lock-budget-ms", v)) {
      if (!parse_ms("--lock-budget-ms", v, lock_budget_ms))
        return curare::serve::kExitUsage;
    } else if (take_value(i, arg, "--mem-quota", v)) {
      if (!curare::runtime::parse_bytes(v, mem_quota)) {
        std::fprintf(stderr, "--mem-quota: bad byte count '%s'\n",
                     v.c_str());
        return curare::serve::kExitUsage;
      }
    } else if (take_value(i, arg, "--fuel", v)) {
      if (!parse_ms("--fuel", v, fuel))  // same nonneg-integer grammar
        return curare::serve::kExitUsage;
    } else if (take_value(i, arg, "--heap-soft", v)) {
      if (!curare::runtime::parse_bytes(v, heap_soft)) {
        std::fprintf(stderr, "--heap-soft: bad byte count '%s'\n",
                     v.c_str());
        return curare::serve::kExitUsage;
      }
    } else if (take_value(i, arg, "--heap-hard", v)) {
      if (!curare::runtime::parse_bytes(v, heap_hard)) {
        std::fprintf(stderr, "--heap-hard: bad byte count '%s'\n",
                     v.c_str());
        return curare::serve::kExitUsage;
      }
    } else if (take_value(i, arg, "--chaos", v)) {
      chaos = curare::runtime::FaultInjector::parse_spec(v);
      if (!chaos) {
        std::fprintf(stderr,
                     "--chaos requires SEED:RATE[:KINDS[:SITES]] with "
                     "RATE in (0,1], KINDS from delay,throw,wake,all "
                     "and SITES from lock.acquire,queue.push,"
                     "future.spawn,task.run,gc.alloc,queue.steal,all\n");
        return curare::serve::kExitUsage;
      }
    } else if (take_value(i, arg, "--trace", v)) {
      trace_path = v;
    } else if (take_value(i, arg, "-e", v)) {
      eval_expr = v;
      have_eval = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--profile") {
      profile_period = curare::obs::Profiler::kDefaultPeriod;
    } else if (arg.rfind("--profile=", 0) == 0) {
      char* end = nullptr;
      const std::string v2 = arg.substr(10);
      profile_period = std::strtoll(v2.c_str(), &end, 10);
      if (end == v2.c_str() || *end != '\0' || profile_period <= 0) {
        std::fprintf(stderr, "--profile: bad period '%s'\n", v2.c_str());
        return curare::serve::kExitUsage;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "unknown option %s\nusage: curare [--trace out.json] "
                   "[--stats] [--profile[=N]] [--gc-threshold N] "
                   "[--gc-stats] [--deadline-ms N] [--stall-ms N] "
                   "[--lock-budget-ms N] "
                   "[--mem-quota N] [--fuel N] "
                   "[--heap-soft N] [--heap-hard N] "
                   "[--chaos SEED:RATE[:KINDS[:SITES]]] "
                   "[-e EXPR | program.lisp]\n",
                   arg.c_str());
      return curare::serve::kExitUsage;
    } else if (!file.empty()) {
      // A silently dropped first file is worse than an error: the user
      // almost certainly misspelled a flag or forgot quoting.
      std::fprintf(stderr,
                   "multiple program files ('%s' and '%s'); pass one\n",
                   file.c_str(), arg.c_str());
      return curare::serve::kExitUsage;
    } else {
      file = arg;
    }
  }

  curare::sexpr::Ctx ctx;
  Curare cur(ctx);
  cur.interp().set_echo(false);
  if (have_threshold) ctx.heap.gc().set_threshold(gc_threshold);
  if (heap_soft != 0 || heap_hard != 0)
    ctx.heap.gc().set_heap_limits(heap_soft, heap_hard);
  if (!trace_path.empty()) cur.runtime().obs().tracer.set_enabled(true);
  cur.runtime().set_deadline_ms(deadline_ms);
  cur.runtime().set_stall_ms(stall_ms);
  cur.runtime().locks().set_wait_budget_ms(lock_budget_ms);
  // Armed only now: chaos targets the user's program, and a fault
  // thrown during interpreter bootstrap would escape every handler.
  if (chaos) {
    curare::runtime::FaultInjector::instance().configure(
        chaos->seed, chaos->rate, chaos->kinds, chaos->sites);
  }
  if (profile_period > 0) {
    auto& prof = curare::obs::Profiler::instance();
    prof.set_period(static_cast<unsigned>(profile_period));
    prof.set_enabled(true);
  }

  // Batch/-e evaluations get a top-level token too, so a deadline also
  // bounds Lisp that hangs *outside* any CRI run (top-level infinite
  // recursion, a lock wait on the main thread). CRI runs install their
  // own per-run token on their server threads; this one governs the
  // main thread only.
  curare::runtime::CancelState top_token;
  top_token.dump_fn = [&cur] {
    return cur.runtime().locks().dump_held();
  };
  if (deadline_ms > 0 && (have_eval || !file.empty())) {
    top_token.set_deadline_ms(deadline_ms);
  }
  curare::runtime::CancelScope top_scope(
      deadline_ms > 0 && (have_eval || !file.empty()) ? &top_token
                                                      : nullptr);

  // Deferred reporting so every mode (batch, -e, REPL) flushes the
  // trace and stats on the way out, including on error exits.
  auto finish = [&](int code) {
    if (!trace_path.empty() &&
        !write_trace_file(cur.runtime().obs(), trace_path)) {
      code = code == 0 ? 1 : code;
    }
    if (stats) {
      std::printf("%s",
                  curare::obs::full_report(cur.runtime().obs()).c_str());
    }
    // --stats already embeds the profile via full_report; avoid
    // printing the same table twice.
    if (profile_period > 0 && !stats) {
      std::printf("%s",
                  curare::obs::Profiler::instance().hot_report().c_str());
    }
    if (gc_stats) print_gc_stats(ctx.heap.gc(), stdout);
    return code;
  };

  if (have_eval) {
    try {
      curare::obs::RequestScope budget(
          fresh_budget(mem_quota, static_cast<std::uint64_t>(fuel)));
      Value v = cur.eval_program(eval_expr);
      std::string out = cur.interp().take_output();
      if (!out.empty()) std::printf("%s", out.c_str());
      std::printf("%s\n", curare::sexpr::write_str(v).c_str());
      return finish(curare::serve::kExitOk);
    } catch (const curare::runtime::StallError& e) {
      print_stall(e);
      return finish(stall_exit_code(e));
    } catch (const curare::runtime::ResourceExhausted& e) {
      std::fprintf(stderr, "resource-exhausted: %s\n", e.what());
      return finish(curare::serve::kExitResourceExhausted);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return finish(curare::serve::kExitError);
    }
  }

  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return curare::serve::kExitError;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    try {
      curare::obs::RequestScope budget(
          fresh_budget(mem_quota, static_cast<std::uint64_t>(fuel)));
      batch_transform_all(cur, ss.str());
      return finish(curare::serve::kExitOk);
    } catch (const curare::runtime::StallError& e) {
      print_stall(e);
      return finish(stall_exit_code(e));
    } catch (const curare::runtime::ResourceExhausted& e) {
      std::fprintf(stderr, "resource-exhausted: %s\n", e.what());
      return finish(curare::serve::kExitResourceExhausted);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return finish(curare::serve::kExitError);
    }
  }

  return finish(
      repl(cur, mem_quota, static_cast<std::uint64_t>(fuel)));
}
