// Process exit codes shared by every Curare front end (curare_cli,
// curare_serve, curare_client). One table, named constants — CI
// scripts assert on these numbers, so they are API.
//
//   0  kExitOk          success
//   1  kExitError       program or I/O error (Lisp error, bad file, …)
//   2  kExitUsage       bad command line
//   3  kExitStall       run aborted by the stall check / cancelled
//   4  kExitDeadline    run exceeded its deadline (CLI --deadline-ms,
//                       or a request's deadline_ms in serving mode)
//   5  kExitOverloaded  request rejected by the daemon's admission
//                       controller (accept queue full, or the heap
//                       soft watermark is shedding)
//   6  kExitResourceExhausted  run clipped by resource governance: a
//                       per-request memory quota, the heap hard
//                       watermark, the eval fuel budget, or the
//                       serve result cap (DESIGN.md §14)
//
// The serving protocol carries the same taxonomy as the response's
// "status" string; status_exit_code() maps one onto the other so
// curare_client's exit code equals what a local run would have
// returned, and classify_failure() maps a failed run's exception onto
// it, so the daemon and the local CLI classify failures alike.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "runtime/resource.hpp"

namespace curare::runtime {
class CancelState;
}

namespace curare::serve {

inline constexpr int kExitOk = 0;
inline constexpr int kExitError = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitStall = 3;
inline constexpr int kExitDeadline = 4;
inline constexpr int kExitOverloaded = 5;
inline constexpr int kExitResourceExhausted = 6;

/// Wire statuses (Response.status) in the serving protocol.
inline constexpr std::string_view kStatusOk = "ok";
inline constexpr std::string_view kStatusError = "error";
inline constexpr std::string_view kStatusStall = "stall";
inline constexpr std::string_view kStatusDeadline = "deadline";
inline constexpr std::string_view kStatusOverloaded = "overloaded";
inline constexpr std::string_view kStatusResourceExhausted =
    "resource-exhausted";

/// Map a wire status onto the shared exit-code table (unknown statuses
/// conservatively map to kExitError).
inline int status_exit_code(std::string_view status) {
  if (status == kStatusOk) return kExitOk;
  if (status == kStatusStall) return kExitStall;
  if (status == kStatusDeadline) return kExitDeadline;
  if (status == kStatusOverloaded) return kExitOverloaded;
  if (status == kStatusResourceExhausted) return kExitResourceExhausted;
  return kExitError;
}

/// A failed run, classified onto the wire statuses.
struct Failure {
  /// kStatusStall, kStatusDeadline, kStatusResourceExhausted or
  /// kStatusError.
  std::string_view status;
  std::string message;  ///< the exception's what()
  std::string dump;     ///< a stall's diagnostic dump (else empty)
  /// The limit that clipped a resource-exhausted run.
  std::optional<runtime::ResourceExhausted::Kind> exhausted;
};

/// Classify the exception being handled; call only from a catch block.
/// A stall is a deadline when its message, or the reason `tok` fired
/// with, says so: the stall check, the daemon's drain and every
/// deadline cancel through CancelState, and only its deadline path mints
/// "deadline exceeded" (runtime/resilience.hpp).
Failure classify_failure(const runtime::CancelState* tok = nullptr);

}  // namespace curare::serve
