// Client side of the serving protocol, shared by the curare_client
// tool, the serve tests, and bench_serve. Blocking, one request at a
// time per connection (the protocol is strictly request/response).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "runtime/splitmix.hpp"
#include "serve/protocol.hpp"

namespace curare::serve {

/// Deterministic jittered exponential backoff for the client's
/// retry loop (curare_client --retries/--backoff-ms). Retries apply
/// to *not-yet-executed* requests only — "overloaded" rejections and
/// refused connects — never to transport losses mid-request, where
/// the daemon may already have run the program.
///
/// The schedule is a pure function of (seed, attempt): base doubles
/// per attempt from `backoff_ms` (or takes the server's
/// retry_after_ms hint verbatim when present — the daemon knows when
/// pressure will recede better than a blind doubling), plus up to
/// +50% jitter drawn from a splitmix64 stream so a fleet of clients
/// bounced together does not reconverge on the same millisecond.
/// Seeded, so tests assert the exact delays.
class RetryPolicy {
 public:
  RetryPolicy(unsigned retries, std::int64_t backoff_ms,
              std::uint64_t seed)
      : retries_(retries), backoff_ms_(backoff_ms), seed_(seed) {}

  unsigned retries() const { return retries_; }

  /// Delay in ms before retry `attempt` (0-based). `retry_after_hint`
  /// is the overloaded response's retry_after_ms (0 = no hint).
  std::int64_t delay_ms(unsigned attempt,
                        std::int64_t retry_after_hint) const {
    std::int64_t base = retry_after_hint > 0
                            ? retry_after_hint
                            : backoff_ms_ << (attempt < 16 ? attempt : 16);
    if (base < 0) base = 0;
    const std::uint64_t x =
        runtime::splitmix64(seed_ ^ runtime::splitmix64(attempt + 1));
    const std::int64_t jitter =
        base > 0 ? static_cast<std::int64_t>(
                       x % static_cast<std::uint64_t>(base / 2 + 1))
                 : 0;
    return base + jitter;
  }

 private:
  unsigned retries_;
  std::int64_t backoff_ms_;
  std::uint64_t seed_;
};

class ClientConnection {
 public:
  ClientConnection() = default;
  ~ClientConnection() { close(); }
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;
  ClientConnection(ClientConnection&& other) noexcept
      : fd_(other.fd_) {
    other.fd_ = -1;
  }

  /// Connect to host:port; false (with *err filled) on failure.
  bool connect(const std::string& host, int port,
               std::string* err = nullptr);

  bool connected() const { return fd_ >= 0; }
  void close();

  /// One round trip. nullopt on a transport failure (torn connection,
  /// malformed frame); protocol-level failures come back as a Response
  /// with a non-ok status.
  std::optional<Response> request(const Request& req);

 private:
  int fd_ = -1;
};

}  // namespace curare::serve
