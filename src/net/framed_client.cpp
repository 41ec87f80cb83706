#include "net/framed_client.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>

#include "net/client_proto.h"

namespace causalec::net {

bool FramedClient::connect(const std::string& host_port, int timeout_ms) {
  const auto addr = parse_host_port(host_port);
  if (!addr.has_value()) return false;
  fd_ = connect_tcp_blocking(addr->first, addr->second, timeout_ms);
  if (!fd_.valid()) return false;
  reader_ = FrameReader{};  // nothing of an earlier connection carries over
  Hello hello;
  hello.role = PeerRole::kClient;
  return send_payload(encode_hello(hello));
}

bool FramedClient::send_payload(const std::vector<std::uint8_t>& payload) {
  if (!fd_.valid()) return false;
  const erasure::Buffer frame = encode_frame(payload);
  std::size_t written = 0;
  while (written < frame.size()) {
    const auto n = ::send(fd_.get(), frame.data() + written,
                          frame.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail();
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<erasure::Buffer> FramedClient::next_frame() {
  while (fd_.valid()) {
    if (auto payload = reader_.next(); payload.has_value()) {
      return payload;
    }
    if (reader_.failed()) {
      fail();
      return std::nullopt;
    }
    pollfd pfd{fd_.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, io_timeout_ms_);
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      fail();  // timeout or poll error
      return std::nullopt;
    }
    std::vector<std::uint8_t> chunk(64 * 1024);
    const auto n = ::recv(fd_.get(), chunk.data(), chunk.size(), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      fail();  // peer closed or error
      return std::nullopt;
    }
    chunk.resize(static_cast<std::size_t>(n));
    reader_.feed(erasure::Buffer::adopt(std::move(chunk)));
  }
  return std::nullopt;
}

void FramedClient::fail() { fd_.reset(); }

}  // namespace causalec::net
