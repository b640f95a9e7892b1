#include "server/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace llhsc::server::net {

namespace {

std::string errno_text() { return std::strerror(errno); }

bool parse_port(const std::string& text, uint16_t* port, std::string* error) {
  if (text.empty()) {
    *error = "missing port";
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      *error = "port '" + text + "' is not a number";
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > 65535) {
      *error = "port '" + text + "' is out of range";
      return false;
    }
  }
  *port = static_cast<uint16_t>(value);
  return true;
}

bool resolve_ipv4(const std::string& host, in_addr* out, std::string* error) {
  if (host.empty()) {
    out->s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (host == "localhost") {
    out->s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  if (::inet_pton(AF_INET, host.c_str(), out) == 1) return true;
  *error = "cannot parse host '" + host + "' (use a dotted IPv4 address)";
  return false;
}

}  // namespace

bool parse_listen_spec(const std::string& spec, std::string* host,
                       uint16_t* port, std::string* error) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    host->clear();
    return parse_port(spec, port, error);
  }
  *host = spec.substr(0, colon);
  return parse_port(spec.substr(colon + 1), port, error);
}

bool unix_socket_is_live(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe < 0) return false;
  const bool live =
      ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(probe);
  return live;
}

int listen_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = "cannot create socket: " + errno_text();
    return -1;
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 128) < 0) {
    *error = "cannot bind/listen on " + path + ": " + errno_text();
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_tcp(const std::string& host, uint16_t port, uint16_t* bound_port,
               std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (!resolve_ipv4(host, &addr.sin_addr, error)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = "cannot create TCP socket: " + errno_text();
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 128) < 0) {
    *error = "cannot bind/listen on " + (host.empty() ? "*" : host) + ":" +
             std::to_string(port) + ": " + errno_text();
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  } else {
    *bound_port = port;
  }
  return fd;
}

int connect_tcp(const std::string& host, uint16_t port, std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (!resolve_ipv4(host.empty() ? "localhost" : host, &addr.sin_addr,
                    error)) {
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = "cannot create TCP socket: " + errno_text();
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = "cannot connect to " + host + ":" + std::to_string(port) + ": " +
             errno_text();
    ::close(fd);
    return -1;
  }
  set_tcp_nodelay(fd);
  return fd;
}

int connect_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = "cannot create socket: " + errno_text();
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = "cannot connect to " + path + ": " + errno_text();
    ::close(fd);
    return -1;
  }
  return fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::string describe_peer(int fd, bool tcp) {
  if (!tcp) return "unix";
  sockaddr_in peer{};
  socklen_t len = sizeof(peer);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0) {
    return "tcp";
  }
  char text[INET_ADDRSTRLEN] = {0};
  if (::inet_ntop(AF_INET, &peer.sin_addr, text, sizeof(text)) == nullptr) {
    return "tcp";
  }
  return std::string(text) + ":" + std::to_string(ntohs(peer.sin_port));
}

}  // namespace llhsc::server::net
