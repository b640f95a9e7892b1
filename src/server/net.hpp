// Socket plumbing for the llhscd front end: Unix-domain and TCP listeners,
// `host:port` parsing, and non-blocking fd helpers. Kept separate from the
// event loop so the daemon, the CLI client (`llhsc check --socket/--tcp`),
// the tests and the bench load driver share one implementation of the
// transport details (live-socket probing, SO_REUSEADDR, ephemeral-port
// discovery, TCP_NODELAY).
#pragma once

#include <cstdint>
#include <string>

namespace llhsc::server::net {

/// Splits a `--listen` spec into host and port. Accepted forms:
/// "host:port", ":port", "port". An empty host means INADDR_ANY. Returns
/// false (with *error set) on a malformed spec or non-numeric/overflow port.
[[nodiscard]] bool parse_listen_spec(const std::string& spec,
                                     std::string* host, uint16_t* port,
                                     std::string* error);

/// True when something is currently accepting connections on the Unix
/// socket path — the "never steal a live daemon's socket" probe.
[[nodiscard]] bool unix_socket_is_live(const std::string& path);

/// Creates, binds, and listens a Unix-domain stream socket. The caller must
/// have probed for liveness first; a stale socket file is unlinked before
/// bind. Returns the listening fd, or -1 with *error set.
[[nodiscard]] int listen_unix(const std::string& path, std::string* error);

/// Binds and listens a TCP socket (IPv4, SO_REUSEADDR). `port` 0 requests
/// an ephemeral port; on success *bound_port holds the actual port either
/// way. `host` "" binds INADDR_ANY. Returns the listening fd, or -1 with
/// *error set.
[[nodiscard]] int listen_tcp(const std::string& host, uint16_t port,
                             uint16_t* bound_port, std::string* error);

/// Connects a blocking TCP client socket to host:port ("" = loopback).
/// Returns the fd, or -1 with *error set ("cannot connect to host:port:
/// <reason>" when the connect itself fails).
[[nodiscard]] int connect_tcp(const std::string& host, uint16_t port,
                              std::string* error);

/// Connects a blocking Unix-domain client socket. Returns the fd, or -1
/// with *error set ("socket path too long: <path>", "cannot connect to
/// <path>: <reason>").
[[nodiscard]] int connect_unix(const std::string& path, std::string* error);

[[nodiscard]] bool set_nonblocking(int fd);

/// Disables Nagle on a TCP fd (best-effort; request/response round trips
/// should not wait out the coalescing timer).
void set_tcp_nodelay(int fd);

/// Human-readable peer description for logs and schema-v2 fields:
/// "ip:port" for TCP peers, "unix" otherwise.
[[nodiscard]] std::string describe_peer(int fd, bool tcp);

}  // namespace llhsc::server::net
