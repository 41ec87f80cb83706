// FramedClient: the blocking, one-request-at-a-time framed socket behind
// NetClient and frontdoor::RouterClient. It connects, says Hello as a
// client, and runs request/response exchanges; any socket error, timeout
// or unusable response closes it. Nothing here is thread-safe -- each
// bench/test client thread owns one.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "erasure/buffer.h"
#include "net/frame.h"
#include "net/socket.h"

namespace causalec::net {

class FramedClient {
 public:
  /// Connects ("host:port") and sends the client Hello. False on failure.
  bool connect(const std::string& host_port, int timeout_ms);

  bool connected() const { return fd_.valid(); }

  /// Per-request receive timeout; a request that times out (or hits any
  /// socket/framing error) returns nullopt and closes the connection.
  void set_io_timeout_ms(int ms) { io_timeout_ms_ = ms; }

  /// Sends `request`, blocks for the next frame and decodes it. A frame
  /// that does not decode, or whose response `matches` rejects (a stale
  /// correlation id), closes the connection and yields nullopt.
  template <typename Decode, typename Match>
  auto call(const std::vector<std::uint8_t>& request, Decode decode,
            Match matches) -> decltype(decode(erasure::Buffer{})) {
    if (!send_payload(request)) return std::nullopt;
    auto frame = next_frame();
    if (!frame.has_value()) return std::nullopt;
    auto resp = decode(std::move(*frame));
    if (!resp.has_value() || !matches(*resp)) {
      fail();
      return std::nullopt;
    }
    return resp;
  }
  template <typename Decode>
  auto call(const std::vector<std::uint8_t>& request, Decode decode) {
    return call(request, decode, [](const auto&) { return true; });
  }

 private:
  bool send_payload(const std::vector<std::uint8_t>& payload);
  /// The next complete payload frame, or nullopt on timeout/error.
  std::optional<erasure::Buffer> next_frame();
  void fail();

  int io_timeout_ms_ = 10'000;
  ScopedFd fd_;
  FrameReader reader_;
  /// Frames received but not yet returned by next_frame().
  std::deque<erasure::Buffer> frames_;
};

}  // namespace causalec::net
