// The argument grammar of curare, curare_serve and curare_client.
//
// Every value flag is spelled "--flag V" or "--flag=V". Counts are
// non-negative, decimal or 0x hex (as the chaos SEED is), byte counts
// take k/m/g suffixes
// (runtime::parse_bytes), and ports are range-checked before any socket
// sees them. A bad value prints "FLAG: bad KIND 'TEXT'" and exits 2
// (kExitUsage), whichever tool read it.
#pragma once

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "obs/profiler.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/resource.hpp"
#include "runtime/runtime.hpp"
#include "serve/exit_codes.hpp"

namespace curare::tools {

/// Print a usage error and exit with kExitUsage.
[[noreturn, gnu::format(printf, 1, 2)]] inline void usage_error(
    const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::exit(serve::kExitUsage);
}

/// A cursor over argv. Each matcher tests the current argument and, on
/// a match, consumes and checks its value.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Step to the next argument; false once argv is exhausted.
  bool next() {
    if (++i_ >= argc_) return false;
    arg_ = argv_[i_];
    return true;
  }
  const std::string& arg() const { return arg_; }

  /// A flag without a value.
  bool flag(std::string_view name) const { return arg_ == name; }

  /// A value flag: "NAME V" or "NAME=V".
  bool value(std::string_view name, std::string& out) {
    if (arg_.size() > name.size() && arg_.starts_with(name) &&
        arg_[name.size()] == '=') {
      out = arg_.substr(name.size() + 1);
      return true;
    }
    if (arg_ != name) return false;
    if (i_ + 1 >= argc_) usage_error("%s requires a value\n", arg_.c_str());
    out = argv_[++i_];
    return true;
  }

  /// An integer in [lo, hi] (lo >= 0).
  template <typename T>
  bool count(std::string_view name, T& out, T lo = 0,
             T hi = std::numeric_limits<T>::max(),
             const char* kind = "count") {
    std::string v;
    if (!value(name, v)) return false;
    const bool hex = v.size() > 2 && v[0] == '0' && (v[1] | 0x20) == 'x';
    const char* begin = v.data() + (hex ? 2 : 0);
    const char* end = v.data() + v.size();
    unsigned long long n = 0;
    const auto [stop, ec] = std::from_chars(begin, end, n, hex ? 16 : 10);
    if (begin == end || ec != std::errc() || stop != end ||
        n < static_cast<unsigned long long>(lo) ||
        n > static_cast<unsigned long long>(hi))
      bad(name, kind, v);
    out = static_cast<T>(n);
    return true;
  }

  /// A byte count with an optional k/m/g suffix.
  template <typename T>
  bool bytes(std::string_view name, T& out) {
    std::string v;
    if (!value(name, v)) return false;
    std::uint64_t n = 0;
    if (!runtime::parse_bytes(v, n) || n > std::numeric_limits<T>::max())
      bad(name, "byte count", v);
    out = static_cast<T>(n);
    return true;
  }

  /// A TCP port in [lo, 65535]: lo = 0 lets a listener ask the kernel
  /// for one, lo = 1 is for a port to connect to.
  bool port(std::string_view name, int& out, int lo) {
    return count(name, out, lo, 65535, "port");
  }

  /// The one program file a tool takes. False for anything that looks
  /// like a flag, so the caller can report it as unknown.
  bool file(std::string& out) const {
    if (!arg_.empty() && arg_[0] == '-') return false;
    if (!out.empty()) {
      // A silently dropped first file is worse than an error: the user
      // almost certainly misspelled a flag or forgot quoting.
      usage_error("multiple program files ('%s' and '%s'); pass one\n",
                  out.c_str(), arg_.c_str());
    }
    out = arg_;
    return true;
  }

 private:
  [[noreturn]] static void bad(std::string_view name, const char* kind,
                               const std::string& text) {
    usage_error("%.*s: bad %s '%s'\n", static_cast<int>(name.size()),
                name.data(), kind, text.c_str());
  }

  int argc_;
  char** argv_;
  int i_ = 0;
  std::string arg_;
};

/// The runtime flags curare and curare_serve share. Each tool routes
/// the deadline, quota, fuel and heap limits its own way; apply() sets
/// the three settings both apply alike.
struct RuntimeFlags {
  std::int64_t deadline_ms = 0;
  std::int64_t stall_ms = 0;
  std::uint64_t mem_quota = 0;
  std::uint64_t fuel = 0;
  std::uint64_t heap_soft = 0;
  std::uint64_t heap_hard = 0;
  std::optional<runtime::FaultInjector::Spec> chaos;
  unsigned profile_period = 0;  ///< 0 = profiler off

  /// Consume the current argument if it is one of these flags.
  bool parse(Args& args) {
    std::string v;
    if (args.value("--chaos", v)) {
      chaos = runtime::FaultInjector::parse_spec(v);
      if (!chaos) {
        usage_error(
            "--chaos requires SEED:RATE[:KINDS[:SITES]] with RATE in "
            "(0,1], KINDS from delay,throw,wake,all and SITES from "
            "lock.acquire,queue.push,future.spawn,task.run,gc.alloc,"
            "queue.steal,all\n");
      }
      return true;
    }
    if (args.flag("--profile")) {
      profile_period = obs::Profiler::kDefaultPeriod;
      return true;
    }
    return args.count("--deadline-ms", deadline_ms) ||
           args.count("--stall-ms", stall_ms) ||
           args.bytes("--mem-quota", mem_quota) ||
           args.count("--fuel", fuel) ||
           args.bytes("--heap-soft", heap_soft) ||
           args.bytes("--heap-hard", heap_hard) ||
           args.count("--profile", profile_period, 1u,
                      std::numeric_limits<unsigned>::max(), "period");
  }

  /// Set the stall window on `rt`, and arm chaos and the profiler.
  /// Call once the interpreter exists: a fault injected during its
  /// bootstrap would escape every handler.
  void apply(runtime::Runtime& rt) const {
    rt.set_stall_ms(stall_ms);
    if (chaos) {
      runtime::FaultInjector::instance().configure(
          chaos->seed, chaos->rate, chaos->kinds, chaos->sites);
    }
    if (profile_period > 0) {
      auto& prof = obs::Profiler::instance();
      prof.set_period(profile_period);
      prof.set_enabled(true);
    }
  }
};

}  // namespace curare::tools
