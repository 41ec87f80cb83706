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
  // Nothing of an earlier connection carries over.
  reader_ = FrameReader{};
  frames_.clear();
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
    if (!frames_.empty()) {
      erasure::Buffer payload = std::move(frames_.front());
      frames_.pop_front();
      return payload;
    }
    pollfd pfd{fd_.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, io_timeout_ms_);
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      fail();  // timeout or poll error
      return std::nullopt;
    }
    const auto n = recv_frames(fd_.get(), reader_, [this](erasure::Buffer p) {
      frames_.push_back(std::move(p));
    });
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || reader_.failed()) {
      fail();  // peer closed, socket error or framing violation
      return std::nullopt;
    }
  }
  return std::nullopt;
}

void FramedClient::fail() { fd_.reset(); }

}  // namespace causalec::net
