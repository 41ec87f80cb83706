#include "net/frame.h"

#include <algorithm>
#include <cstring>
#include <memory>

namespace causalec::net {

erasure::Buffer encode_frame(std::span<const std::uint8_t> payload) {
  erasure::Buffer out =
      erasure::Buffer::alloc_uninit(kFrameHeaderBytes + payload.size());
  std::uint8_t* p = out.mutable_data();
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  if (!payload.empty()) {
    std::memcpy(p + kFrameHeaderBytes, payload.data(), payload.size());
  }
  return out;
}

std::optional<erasure::Buffer> FrameReader::take(
    std::span<const std::uint8_t>& bytes) {
  if (failed()) return std::nullopt;
  if (header_have_ < kFrameHeaderBytes) {
    if (bytes.empty()) return std::nullopt;
    const std::size_t n =
        std::min(kFrameHeaderBytes - header_have_, bytes.size());
    std::memcpy(header_ + header_have_, bytes.data(), n);
    header_have_ += n;
    bytes = bytes.subspan(n);
    if (header_have_ < kFrameHeaderBytes) return std::nullopt;
    std::size_t len = 0;
    for (int i = 3; i >= 0; --i) len = (len << 8) | header_[i];
    if (len > kMaxFrameBytes) {
      fail("frame length exceeds kMaxFrameBytes");
      return std::nullopt;
    }
    body_ = len == 0 ? erasure::Buffer{} : erasure::Buffer::alloc_uninit(len);
    body_have_ = 0;
  }
  const std::size_t n = std::min(body_.size() - body_have_, bytes.size());
  if (n != 0) {
    std::memcpy(body_.mutable_data() + body_have_, bytes.data(), n);
    body_have_ += n;
    bytes = bytes.subspan(n);
  }
  if (body_have_ < body_.size()) return std::nullopt;  // needs a later feed
  header_have_ = 0;
  body_have_ = 0;
  return std::move(body_);
}

std::span<std::uint8_t> recv_buffer() {
  thread_local const std::unique_ptr<std::uint8_t[]> buffer =
      std::make_unique_for_overwrite<std::uint8_t[]>(kRecvBufferBytes);
  return {buffer.get(), kRecvBufferBytes};
}

}  // namespace causalec::net
