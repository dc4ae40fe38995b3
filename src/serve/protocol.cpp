#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace curare::serve {

Json Request::to_json() const {
  JsonObject o;
  o["op"] = op;
  if (!program.empty()) o["program"] = program;
  if (!name.empty()) o["name"] = name;
  if (deadline_ms > 0) o["deadline_ms"] = deadline_ms;
  if (!request_id.empty()) o["request_id"] = request_id;
  if (!format.empty()) o["format"] = format;
  if (rid > 0) o["rid"] = rid;
  return Json(std::move(o));
}

std::optional<Request> Request::from_json(const Json& v) {
  if (!v.is_object()) return std::nullopt;
  Request r;
  r.op = v.get_string("op");
  if (r.op.empty()) return std::nullopt;
  r.program = v.get_string("program");
  r.name = v.get_string("name");
  r.deadline_ms = v.get_int("deadline_ms", 0);
  r.request_id = v.get_string("request_id");
  r.format = v.get_string("format");
  r.rid = v.get_int("rid", 0);
  return r;
}

Json Response::to_json() const {
  JsonObject o;
  o["status"] = status;
  if (!result.empty()) o["result"] = result;
  if (!output.empty()) o["output"] = output;
  if (!error.empty()) o["error"] = error;
  if (retry_after_ms > 0) o["retry_after_ms"] = retry_after_ms;
  if (!metrics.is_null()) o["metrics"] = metrics;
  return Json(std::move(o));
}

Response Response::from_json(const Json& v) {
  Response r;
  r.status = v.get_string("status", "error");
  r.result = v.get_string("result");
  r.output = v.get_string("output");
  r.error = v.get_string("error");
  r.retry_after_ms = v.get_int("retry_after_ms", 0);
  r.metrics = v.get("metrics");
  return r;
}

Response Response::ok(std::string result, std::string output) {
  Response r;
  r.status = "ok";
  r.result = std::move(result);
  r.output = std::move(output);
  return r;
}

Response Response::fail(std::string_view status, std::string error) {
  Response r;
  r.status = std::string(status);
  r.error = std::move(error);
  return r;
}

namespace {

// Frames travel over sockets only. MSG_NOSIGNAL turns a write to a
// peer that already hung up into EPIPE instead of a process-killing
// SIGPIPE: a torn connection costs that connection, never the process
// hosting the daemon or the client.
bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, data, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF mid-frame
    data += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Read up to and including one '\n'; false on EOF/error or if the
/// line exceeds `cap` bytes (a garbage length line, not a client).
bool read_line(int fd, std::string& line, std::size_t cap) {
  line.clear();
  char c = 0;
  while (line.size() <= cap) {
    const ssize_t r = ::read(fd, &c, 1);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    if (c == '\n') return true;
    line += c;
  }
  return false;
}

}  // namespace

bool write_frame(int fd, std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + 24);
  frame += std::to_string(payload.size());
  frame += '\n';
  frame.append(payload.data(), payload.size());
  frame += '\n';
  // One write_all for the whole frame: framing stays intact even when
  // several threads share a log-style fd by mistake, and it halves the
  // syscall count on the hot path.
  return write_all(fd, frame.data(), frame.size());
}

bool read_frame(int fd, std::string& out, std::size_t max_bytes) {
  std::string line;
  if (!read_line(fd, line, /*cap=*/24)) return false;
  if (line.empty() || line.size() > 20) return false;
  std::size_t len = 0;
  for (const char c : line) {
    if (c < '0' || c > '9') return false;
    len = len * 10 + static_cast<std::size_t>(c - '0');
  }
  if (len > max_bytes) return false;
  out.resize(len);
  if (len > 0 && !read_all(fd, out.data(), len)) return false;
  char trailer = 0;
  if (!read_all(fd, &trailer, 1)) return false;
  return trailer == '\n';
}

}  // namespace curare::serve
