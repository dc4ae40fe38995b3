// A CRI run that the entry's §4.1 choice cannot turn into a call of the
// original defun.
//
// Once a function's measured shape gives one server, its f$parallel
// entry runs the original defun (runtime.hpp run_in_parallel). A check
// that needs the restructured code itself to run, at S=1 or with real
// overlap, goes through %cri-run, the raw primitive, as the entry's CRI
// branch does.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "curare/curare.hpp"

namespace curare::forced {

/// Defines (%forced-cri f$cri sites servers args…) in `cur`'s
/// interpreter: the entry's CRI branch, with a fresh destination cell,
/// returning the cell's value.
inline void install(Curare& cur) {
  if (!cur.interp().global("%forced-cri").is_nil()) return;
  cur.eval_program(
      "(defun %forced-cri (fn sites servers &rest args)"
      "  (let ((d (cons nil nil)))"
      "    (apply %cri-run fn sites servers d args)"
      "    (cdr d)))");
}

/// The Lisp call (%forced-cri f$cri sites servers ARGS) for a plan whose
/// entry would be called as (f$parallel servers ARGS).
inline std::string call(const TransformPlan& plan, std::size_t servers,
                        const std::string& args) {
  return "(%forced-cri " + plan.server->name + " " +
         std::to_string(plan.num_sites) + " " + std::to_string(servers) +
         " " + args + ")";
}

/// The plan's server function run by %cri-run on `servers` servers:
/// what the entry returns from a CRI run. A plan without a server
/// (rec2iter) runs its entry.
inline sexpr::Value cri(Curare& cur, const TransformPlan& plan,
                        std::span<const sexpr::Value> args,
                        std::size_t servers) {
  if (plan.server == nullptr)
    return cur.run_parallel(plan.entry->name, args, servers);
  install(cur);
  lisp::Interp& in = cur.interp();
  std::vector<sexpr::Value> full{
      in.global(plan.server->name),
      sexpr::Value::fixnum(static_cast<std::int64_t>(plan.num_sites)),
      sexpr::Value::fixnum(static_cast<std::int64_t>(servers))};
  full.insert(full.end(), args.begin(), args.end());
  return in.apply(in.global("%forced-cri"), full);
}

}  // namespace curare::forced
