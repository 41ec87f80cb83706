// Length-prefixed framing over the existing binary wire format.
//
// On a TCP stream every frame is `len:u32 (little-endian)` followed by
// `len` payload bytes. The payload's first byte disambiguates the two
// traffic classes that share a connection:
//   * bytes 1..9:  a CausalEC protocol frame (causalec/codec.h) -- the
//     exact bytes serialize_message produces, decoded with
//     try_deserialize_message because the peer is untrusted;
//   * bytes >= 64: a client/control message (net/client_proto.h).
//
// Receiving copies each frame exactly once. recv_frames() reads the socket
// into the calling thread's reused receive buffer, and FrameReader copies
// every payload out of it into an exact-size arena of its own, taken from
// the thread's BufferPool when one is installed. The codec's zero-copy
// decode then slices that arena, so a value that outlives its frame (a
// HistoryList or InQueue entry) pins its own frame's bytes and nothing
// else, and a recv allocates nothing beyond the frames it completes.
#pragma once

#include <sys/socket.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "erasure/buffer.h"

namespace causalec::net {

/// Upper bound on one frame's payload. A hostile or corrupted length
/// prefix beyond this latches the reader into an error state (the
/// connection must be dropped) instead of driving a giant allocation.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

/// Frame header size: the u32 length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// One arena holding `header + payload`, ready to write to a socket.
erasure::Buffer encode_frame(std::span<const std::uint8_t> payload);

class FrameReader {
 public:
  /// Consumes the next stream bytes and calls `on_frame(erasure::Buffer)`
  /// for every payload frame they complete, in stream order. Each payload
  /// is copied into its own arena, allocated as soon as the frame's length
  /// prefix is known, and handed over before the next one is allocated;
  /// only a split length prefix is ever staged. Nothing keeps a reference
  /// to `bytes`.
  template <typename OnFrame>
  void feed(std::span<const std::uint8_t> bytes, OnFrame&& on_frame) {
    while (auto payload = take(bytes)) on_frame(std::move(*payload));
  }

  bool failed() const { return !error_.empty(); }
  const std::string& error() const { return error_; }

  /// Bytes of the frame in progress fed so far, length prefix included
  /// (diagnostics/tests).
  std::size_t buffered_bytes() const { return header_have_ + body_have_; }

 private:
  /// Consumes `bytes` from the front until one frame completes (returned)
  /// or they run out (nullopt; also once the reader has failed).
  std::optional<erasure::Buffer> take(std::span<const std::uint8_t>& bytes);

  void fail(const char* what) {
    if (error_.empty()) error_ = what;
  }

  // Frame in progress. header_have_ < kFrameHeaderBytes means the length
  // prefix itself is still arriving; afterwards body_ is the frame's
  // exact-size arena, of which body_have_ bytes have arrived.
  std::uint8_t header_[kFrameHeaderBytes] = {};
  std::size_t header_have_ = 0;
  erasure::Buffer body_;
  std::size_t body_have_ = 0;

  std::string error_;
};

/// Size of the per-thread receive buffer: the most one recv_frames() call
/// reads from the socket.
inline constexpr std::size_t kRecvBufferBytes = 64 * 1024;

/// The calling thread's receive buffer (kRecvBufferBytes, allocated once
/// per thread and never zero-filled).
std::span<std::uint8_t> recv_buffer();

/// One recv() from `fd` into the calling thread's receive buffer, fed to
/// `reader` (see FrameReader::feed for `on_frame`). Returns recv()'s
/// result: the bytes read, 0 at orderly peer shutdown, or -1 with errno
/// set.
template <typename OnFrame>
ssize_t recv_frames(int fd, FrameReader& reader, OnFrame&& on_frame) {
  const std::span<std::uint8_t> buffer = recv_buffer();
  const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
  if (n > 0) {
    reader.feed(buffer.first(static_cast<std::size_t>(n)),
                std::forward<OnFrame>(on_frame));
  }
  return n;
}

}  // namespace causalec::net
