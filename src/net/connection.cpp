#include "net/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/expect.h"

namespace causalec::net {

Connection::Connection(EventLoop* loop, ScopedFd fd)
    : loop_(loop), fd_(std::move(fd)) {}

void Connection::open(FrameHandler on_frame, CloseHandler on_close) {
  CEC_DCHECK(loop_->on_loop_thread());
  CEC_CHECK(fd_.valid());
  on_frame_ = std::move(on_frame);
  on_close_ = std::move(on_close);
  auto self = shared_from_this();
  loop_->watch(fd_.get(), /*want_read=*/true, /*want_write=*/false,
               [self](std::uint32_t events) { self->handle_events(events); });
}

void Connection::send(erasure::Buffer frame) {
  if (frame.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    const bool queued_ahead = !write_queue_.empty();
    write_queue_.push_back(std::move(frame));
    // Behind a queued frame: the loop's EPOLLOUT flush (armed, or about to
    // be by the send that queued it) writes this one in turn.
    if (queued_ahead) return;
    if (write_queued()) {
      if (write_queue_.empty()) return;
    } else {
      stop_writes();
    }
  }
  // A partial write or an error: the loop thread subscribes EPOLLOUT for
  // the remainder, or closes.
  if (loop_->on_loop_thread()) {
    flush_on_loop();
    return;
  }
  auto self = shared_from_this();
  loop_->post([self] { self->flush_on_loop(); });
}

void Connection::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_writes();
  }
  if (loop_->on_loop_thread()) {
    close_on_loop();
    return;
  }
  auto self = shared_from_this();
  loop_->post([self] { self->close_on_loop(); });
}

bool Connection::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t Connection::write_backlog() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& b : write_queue_) total += b.size();
  return total - front_written_;
}

void Connection::stop_writes() {
  closed_ = true;
  write_queue_.clear();
  front_written_ = 0;
}

bool Connection::write_queued() {
  while (!write_queue_.empty()) {
    const erasure::Buffer& front = write_queue_.front();
    const std::size_t remaining = front.size() - front_written_;
    const ssize_t n = ::send(fd_.get(), front.data() + front_written_,
                             remaining, MSG_NOSIGNAL);
    if (n > 0) {
      front_written_ += static_cast<std::size_t>(n);
      if (front_written_ == front.size()) {
        write_queue_.pop_front();
        front_written_ = 0;
      }
      continue;
    }
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

void Connection::flush_on_loop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!fd_.valid()) return;
    if (!closed_ && write_queued()) {
      const bool want = !write_queue_.empty();
      if (want != want_write_) {
        want_write_ = want;
        loop_->update(fd_.get(), /*want_read=*/true, want);
      }
      return;
    }
  }
  close_on_loop();
}

void Connection::handle_events(std::uint32_t events) {
  if (!fd_.valid()) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_on_loop();
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    flush_on_loop();
    if (!fd_.valid()) return;
  }
  if ((events & EPOLLIN) != 0) handle_readable();
}

void Connection::handle_readable() {
  // Drain the socket. recv_frames copies each completed frame into its own
  // arena before the handler sees it, so the loop thread's receive buffer
  // is free again for the next read.
  auto self = shared_from_this();  // a frame handler may close us
  while (fd_.valid()) {
    const ssize_t n =
        recv_frames(fd_.get(), reader_, [&](erasure::Buffer payload) {
          // Frames behind a close() made by the handler are dropped.
          if (fd_.valid()) on_frame_(self, std::move(payload));
        });
    if (!fd_.valid()) return;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_on_loop();
      return;
    }
    if (n == 0 || reader_.failed()) {
      // Orderly peer shutdown, or a framing violation (oversized length
      // prefix): a hostile or broken peer; drop the connection rather
      // than guess at resync.
      close_on_loop();
      return;
    }
    if (static_cast<std::size_t>(n) < kRecvBufferBytes) return;  // drained
  }
}

void Connection::close_on_loop() {
  // unwatch() drops the fd handler, which may hold the last reference.
  auto self = shared_from_this();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!fd_.valid()) return;
    stop_writes();
    loop_->unwatch(fd_.get());
    fd_.reset();
  }
  // on_frame_ is deliberately left in place: close() may run from inside
  // it, and destroying an executing std::function is undefined behavior.
  // The invalid fd guarantees it is never invoked again.
  if (on_close_) {
    CloseHandler handler = std::move(on_close_);
    on_close_ = nullptr;
    handler(self);
  }
}

}  // namespace causalec::net
