// One established TCP connection on an event loop: owns the fd, the
// FrameReader and the outbound write queue.
//
// Reads go through recv_frames (net/frame.h): the loop thread's reused
// receive buffer, out of which every completed frame is copied once into
// an exact-size arena from the thread's BufferPool (NodeDaemon and the
// Router install one per shard loop), so frames the handler drops are
// recycled and a frame the automaton keeps pins only its own bytes.
//
// Reads, EPOLLOUT flushing and the close handler run on the owning loop's
// thread. send() and close() may be called from any thread: send() writes
// the frame inline on the calling thread when nothing is queued ahead of
// it, so a reply from the automaton thread reaches the socket without
// waiting for the loop to wake. A per-connection mutex guards the write
// side (queue, partial-write offset, EPOLLOUT subscription, closed flag
// and the fd itself), so frames from all threads go out FIFO in the order
// their send() calls took the lock, and no write can land on the fd after
// close. Lifetime is shared_ptr-based: the loop's fd handler closure keeps
// the connection alive until close, and response routing across threads
// holds weak_ptrs so a dead connection drops its responses instead of
// dangling.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>

#include "erasure/buffer.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"

namespace causalec::net {

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Called on the loop thread for every complete payload frame.
  using FrameHandler =
      std::function<void(const std::shared_ptr<Connection>&,
                         erasure::Buffer payload)>;
  /// Called on the loop thread exactly once when the connection dies
  /// (peer hangup, read/write error, framing violation, or local close()).
  using CloseHandler = std::function<void(const std::shared_ptr<Connection>&)>;

  Connection(EventLoop* loop, ScopedFd fd);
  ~Connection() = default;

  /// Registers with the loop and starts reading. Loop thread only.
  void open(FrameHandler on_frame, CloseHandler on_close);

  /// Send a ready-made frame (header + payload, see encode_frame). Any
  /// thread. With an empty write queue the frame is written inline; what
  /// the socket does not take is queued and the loop finishes it on
  /// EPOLLOUT. The Buffer's arena is shared, not copied, so a multicast
  /// frame sent on n connections costs one allocation total.
  void send(erasure::Buffer frame);

  /// Any thread. Stops all further writes at once and drops the queue;
  /// the fd is closed and the close handler fired on the loop thread.
  void close();

  /// True once no further frame will be written (close() or a failure).
  bool closed() const;

  /// Bytes queued but not yet written.
  std::size_t write_backlog() const;

 private:
  void handle_events(std::uint32_t events);
  void handle_readable();
  /// Writes the queue until empty or EAGAIN; false on a socket error.
  /// Caller holds mu_.
  bool write_queued();
  /// Marks the connection closed for writing and drops the queue. Caller
  /// holds mu_.
  void stop_writes();
  /// Loop thread: write what the socket takes, then match the EPOLLOUT
  /// subscription to the queue (or close on a socket error).
  void flush_on_loop();
  void close_on_loop();

  EventLoop* loop_;
  FrameHandler on_frame_;
  CloseHandler on_close_;
  FrameReader reader_;

  /// Guards the write side below. The fd is only reset (by the loop
  /// thread) under it, so the loop thread may read fd_ without it.
  mutable std::mutex mu_;
  ScopedFd fd_;
  /// Outbound frames; front_written_ bytes of the front one already went
  /// out (partial-write bookkeeping).
  std::deque<erasure::Buffer> write_queue_;
  std::size_t front_written_ = 0;
  bool want_write_ = false;  // EPOLLOUT currently subscribed
  bool closed_ = false;      // no more writes; the fd may still be open
};

}  // namespace causalec::net
