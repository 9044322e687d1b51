// Common types for the virtual network: endpoints and error codes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

#include "common/types.h"

namespace mead::net {

/// Sentinel for "no such node". Real node ids are assigned from 1 upward,
/// so this value never aliases an actual host.
inline constexpr NodeId kInvalidNode{0};

/// Host (virtual node name) + port. Plays the role of the host/port pair in
/// a CORBA IOR profile.
///
/// Deliberately NOT an aggregate: GCC 12 miscompiles aggregate-initialized
/// temporaries inside co_await expressions (double-destroy of the temporary's
/// members). Types that travel through coroutine calls in this project must
/// either be trivially destructible or have user-declared constructors.
struct Endpoint {
  Endpoint() = default;
  Endpoint(std::string h, std::uint16_t p) : host(std::move(h)), port(p) {}

  std::string host;
  std::uint16_t port = 0;

  static constexpr auto kFields = std::tuple{&Endpoint::host, &Endpoint::port};

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

[[nodiscard]] inline std::string to_string(const Endpoint& ep) {
  return ep.host + ":" + std::to_string(ep.port);
}

/// Errors surfaced by the socket layer. These map onto the POSIX failures
/// the paper's interceptor observes (EOF, ECONNREFUSED, EPIPE, timeout).
enum class NetErr {
  kBadFd,         // fd not in the process' descriptor table
  kClosed,        // operation on a locally-closed socket / dead process fd
  kConnRefused,   // no listener at the target endpoint
  kPeerReset,     // peer endpoint gone (write after peer close)
  kTimeout,       // blocking operation exceeded its timeout
  kProcessDead,   // the calling process was killed mid-operation
  kPortInUse,     // listen() on an occupied port
  kUnknownHost,   // endpoint host not present in the network
  kNotListener,   // accept() on a non-listening fd
};

[[nodiscard]] constexpr std::string_view to_string(NetErr e) {
  switch (e) {
    case NetErr::kBadFd: return "bad_fd";
    case NetErr::kClosed: return "closed";
    case NetErr::kConnRefused: return "conn_refused";
    case NetErr::kPeerReset: return "peer_reset";
    case NetErr::kTimeout: return "timeout";
    case NetErr::kProcessDead: return "process_dead";
    case NetErr::kPortInUse: return "port_in_use";
    case NetErr::kUnknownHost: return "unknown_host";
    case NetErr::kNotListener: return "not_listener";
  }
  return "?";
}

}  // namespace mead::net
