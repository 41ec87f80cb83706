#include "net/net_transport.h"

#include <sys/epoll.h>

#include <chrono>

#include "causalec/codec.h"
#include "common/expect.h"
#include "common/logging.h"
#include "net/client_proto.h"
#include "net/frame.h"

namespace causalec::net {

namespace {

constexpr auto kReconnectDelay = std::chrono::milliseconds(100);

}  // namespace

PeerLink::PeerLink(EventLoop* loop, NodeId self, NodeId peer,
                   std::string host, std::uint16_t port,
                   std::function<void(NodeId, bool)> on_liveness)
    : loop_(loop),
      self_(self),
      peer_(peer),
      host_(std::move(host)),
      port_(port),
      on_liveness_(std::move(on_liveness)) {}

void PeerLink::start() {
  loop_->post([this] { dial(); });
}

void PeerLink::shutdown() {
  loop_->post([this] {
    shutdown_ = true;
    if (connecting_.valid()) {
      loop_->unwatch(connecting_.get());
      connecting_.reset();
    }
    if (conn_ != nullptr) {
      auto conn = std::move(conn_);
      conn_ = nullptr;
      conn->close();
    }
    pending_.clear();
  });
}

void PeerLink::send_frame(erasure::Buffer frame) {
  if (loop_->on_loop_thread()) {
    send_on_loop(std::move(frame));
    return;
  }
  loop_->post([this, frame = std::move(frame)]() mutable {
    send_on_loop(std::move(frame));
  });
}

void PeerLink::send_on_loop(erasure::Buffer frame) {
  if (shutdown_) return;
  if (conn_ != nullptr) {
    conn_->send(std::move(frame));
    return;
  }
  if (ever_established_) return;  // crash semantics: the frame is lost
  // Start-up grace: queue until the first establishment.
  if (pending_.size() >= kMaxPendingFrames) pending_.pop_front();
  pending_.push_back(std::move(frame));
}

void PeerLink::dial() {
  if (shutdown_ || conn_ != nullptr || connecting_.valid()) return;
  connecting_ = connect_tcp_nonblocking(host_, port_);
  if (!connecting_.valid()) {
    retry_later();
    return;
  }
  loop_->watch(connecting_.get(), /*want_read=*/false, /*want_write=*/true,
               [this](std::uint32_t events) { on_connect_ready(events); });
}

void PeerLink::on_connect_ready(std::uint32_t events) {
  loop_->unwatch(connecting_.get());
  ScopedFd fd = std::move(connecting_);
  if (shutdown_) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 ||
      take_socket_error(fd.get()) != 0) {
    retry_later();
    return;
  }
  conn_ = std::make_shared<Connection>(loop_, std::move(fd));
  conn_->open(
      // Outbound protocol links are send-only; anything the peer writes
      // back on one is a protocol violation we simply ignore.
      [](const std::shared_ptr<Connection>&, erasure::Buffer) {},
      [this](const std::shared_ptr<Connection>& dead) {
        if (conn_ == dead) on_lost();
      });
  on_established();
}

void PeerLink::on_established() {
  // Identify ourselves so the acceptor attributes our frames to node
  // self_ (the codec's frames carry no sender field; the channel does).
  Hello hello;
  hello.role = PeerRole::kServer;
  hello.node = self_;
  conn_->send(encode_frame(encode_hello(hello)));
  for (auto& frame : pending_) conn_->send(std::move(frame));
  pending_.clear();
  ever_established_ = true;
  if (down_reported_) {
    down_reported_ = false;
    on_liveness_(peer_, /*down=*/false);
  }
}

void PeerLink::on_lost() {
  conn_ = nullptr;
  if (shutdown_) return;
  if (!down_reported_) {
    down_reported_ = true;
    on_liveness_(peer_, /*down=*/true);
  }
  retry_later();
}

void PeerLink::retry_later() {
  if (shutdown_) return;
  loop_->schedule_after(kReconnectDelay, [this] { dial(); });
}

NetTransport::NetTransport(std::vector<PeerLink*> links)
    : links_(std::move(links)) {}

void NetTransport::send(NodeId /*from*/, NodeId to, sim::MessagePtr message) {
  CEC_CHECK(to < links_.size() && links_[to] != nullptr);
  links_[to]->send_frame(
      encode_frame(causalec::serialize_message_frame(*message).span()));
}

void NetTransport::multicast(NodeId /*from*/, std::span<const NodeId> targets,
                             const std::function<sim::MessagePtr()>& make) {
  if (targets.empty()) return;
  // Serialize once; every destination link queues the same frame arena.
  const sim::MessagePtr message = make();
  const erasure::Buffer frame =
      encode_frame(causalec::serialize_message_frame(*message).span());
  for (NodeId to : targets) {
    CEC_CHECK(to < links_.size() && links_[to] != nullptr);
    links_[to]->send_frame(frame);
  }
}

}  // namespace causalec::net
