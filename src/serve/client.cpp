#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace curare::serve {

bool ClientConnection::connect(const std::string& host, int port,
                               std::string* err) {
  auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = what + ": " + std::strerror(errno);
    close();
    return false;
  };
  close();
  if (port < 1 || port > 65535) {
    if (err != nullptr)
      *err = "port " + std::to_string(port) + " outside 1-65535";
    return false;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton " + host);
  }
  for (;;) {
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    return fail("connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return true;
}

void ClientConnection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<Response> ClientConnection::request(const Request& req) {
  if (fd_ < 0) return std::nullopt;
  if (!write_frame(fd_, req.to_json().dump())) return std::nullopt;
  std::string payload;
  if (!read_frame(fd_, payload)) return std::nullopt;
  auto parsed = Json::parse(payload);
  if (!parsed) return std::nullopt;
  return Response::from_json(*parsed);
}

}  // namespace curare::serve
