// curare_client — command-line client for curare_serve.
//
//   curare_client --port N [opts] -e "(+ 1 2)"     eval one expression
//   curare_client --port N [opts] program.lisp     eval a file
//   curare_client --port N --op stats              server-side report
//   curare_client --port N --op restructure [--name F] program.lisp
//   curare_client --port N --stats-format=prom     metrics exposition
//   curare_client --port N --op trace [--rid N]    one request's spans
//   curare_client --port N --op ping
//
// Options (every value flag also accepts --flag=value):
//   --port N         server port (required)
//   --host ADDR      server address (default 127.0.0.1)
//   --deadline-ms N  per-request deadline; the server cancels the run
//                    and answers status="deadline"
//   --op OP          eval | restructure | stats | metrics | trace |
//                    ping (default eval)
//   --name F         restructure: the defun to transform
//   --request-id ID  client-chosen id echoed in the reply's metrics
//                    (else the server generates one)
//   --rid N          trace: which request lane to export (default:
//                    the session's previous request)
//   --stats-format F metrics exposition format, prom or json
//                    (shorthand for --op metrics)
//   --retries N      retry budget for "overloaded" responses and
//                    refused connects (default 0 = fail fast);
//                    transport losses mid-request never retry — the
//                    daemon may already have run the program
//   --backoff-ms B   first retry delay, doubling per attempt with up
//                    to +50% deterministic jitter (default 100); a
//                    response's retry_after_ms hint overrides the
//                    doubling for that attempt
//   --retry-seed S   seed for the jitter stream (default 1), so
//                    scripted runs are reproducible
//   -e EXPR          inline program instead of a file
//
// The exit code mirrors the response status via the shared table in
// serve/exit_codes.hpp: ok=0, error=1, stall=3, deadline=4,
// overloaded=5, resource-exhausted=6 — so scripts treat a remote run
// exactly like a local `curare` invocation.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "args.hpp"
#include "serve/client.hpp"
#include "serve/exit_codes.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: curare_client --port N [--host ADDR] [--deadline-ms N]\n"
      "                     [--op eval|restructure|stats|metrics|trace|ping]\n"
      "                     [--name FN] [--request-id ID] [--rid N]\n"
      "                     [--stats-format prom|json]\n"
      "                     [--retries N] [--backoff-ms B] [--retry-seed S]\n"
      "                     [-e EXPR | program.lisp]\n");
  return curare::serve::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace curare::serve;
  std::string host = "127.0.0.1";
  int port = 0;
  Request req;
  req.op = "eval";
  std::string file;
  bool have_program = false;
  unsigned retries = 0;
  std::int64_t backoff_ms = 100;
  std::uint64_t retry_seed = 1;

  curare::tools::Args args(argc, argv);
  while (args.next()) {
    if (args.port("--port", port, 1) || args.value("--host", host) ||
        args.count("--deadline-ms", req.deadline_ms) ||
        args.value("--op", req.op) || args.value("--name", req.name) ||
        args.value("--request-id", req.request_id) ||
        args.count("--rid", req.rid, std::int64_t{1}) ||
        args.count("--retries", retries) ||
        args.count("--backoff-ms", backoff_ms) ||
        args.count("--retry-seed", retry_seed))
      continue;
    if (args.value("--stats-format", req.format)) {
      if (req.format != "prom" && req.format != "json") {
        curare::tools::usage_error(
            "--stats-format: want prom or json, got '%s'\n",
            req.format.c_str());
      }
      req.op = "metrics";
    } else if (args.value("-e", req.program)) {
      have_program = true;
    } else if (!args.file(file)) {
      std::fprintf(stderr, "unknown option %s\n", args.arg().c_str());
      return usage();
    }
  }

  if (port == 0) {
    std::fprintf(stderr, "--port is required\n");
    return usage();
  }
  if (!file.empty()) {
    if (have_program) {
      std::fprintf(stderr, "pass either -e or a file, not both\n");
      return kExitUsage;
    }
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return kExitError;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    req.program = ss.str();
    have_program = true;
  }
  if ((req.op == "eval" || req.op == "restructure") && !have_program &&
      req.name.empty()) {
    std::fprintf(stderr, "op %s needs a program (-e or a file)\n",
                 req.op.c_str());
    return usage();
  }

  // Retry loop: a refused connect or an "overloaded" rejection means
  // the request never executed, so trying again is always safe. A
  // torn connection mid-request is not retried — the daemon may have
  // run the program before the transport died.
  const RetryPolicy policy(retries, backoff_ms, retry_seed);
  auto backoff = [&](unsigned attempt, std::int64_t hint) {
    const std::int64_t ms = policy.delay_ms(attempt, hint);
    std::fprintf(stderr,
                 "curare_client: retrying in %lld ms (attempt %u of "
                 "%u)\n",
                 static_cast<long long>(ms), attempt + 1,
                 policy.retries());
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };

  ClientConnection conn;
  std::optional<Response> resp;
  for (unsigned attempt = 0;; ++attempt) {
    std::string err;
    if (!conn.connected() && !conn.connect(host, port, &err)) {
      if (attempt < policy.retries()) {
        backoff(attempt, 0);
        continue;
      }
      std::fprintf(stderr, "curare_client: %s\n", err.c_str());
      return kExitError;
    }
    resp = conn.request(req);
    if (!resp) {
      std::fprintf(stderr, "curare_client: connection lost\n");
      return kExitError;
    }
    if (resp->status == kStatusOverloaded && attempt < policy.retries()) {
      backoff(attempt, resp->retry_after_ms);
      continue;
    }
    break;
  }
  if (!resp->output.empty()) std::printf("%s", resp->output.c_str());
  if (!resp->result.empty()) std::printf("%s\n", resp->result.c_str());
  if (!resp->error.empty()) {
    std::fprintf(stderr, "%s: %s\n", resp->status.c_str(),
                 resp->error.c_str());
  }
  return status_exit_code(resp->status);
}
