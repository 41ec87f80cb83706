// NetTransport: the Transport seam (causalec/server.h) over real TCP.
//
// Outbound topology: every daemon *dials* every peer and sends its protocol
// frames on its own outbound links only; accepted connections are
// receive-only for protocol traffic. This gives each ordered channel a
// single writer and makes "who is connected to whom" trivial to reason
// about after crashes.
//
// PeerLink is one such outbound link, owned by one event-loop shard. Its
// delivery semantics match the crash-stop channel model of the in-process
// runtimes:
//   * before the link is first established (cluster start-up), frames are
//     queued (bounded) so no protocol traffic is lost to boot-order races;
//   * after an established link is lost, frames are dropped -- exactly the
//     "crashed node loses its mailbox" behavior the rejoin protocol
//     (DESIGN.md §9) is built to repair -- and the automaton is told via
//     set_peer_down until the link re-establishes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "causalec/server.h"
#include "erasure/buffer.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "runtime/automaton_host.h"

namespace causalec::net {

class PeerLink {
 public:
  /// `on_liveness(down)` fires on the loop thread at every established /
  /// lost transition (the daemon marshals it to set_peer_down).
  PeerLink(EventLoop* loop, NodeId self, NodeId peer, std::string host,
           std::uint16_t port,
           std::function<void(NodeId peer, bool down)> on_liveness);

  /// Begin dialing (posts to the loop; any thread).
  void start();
  /// Drop the connection and stop reconnecting (posts to the loop).
  void shutdown();

  /// Queue one ready-made frame (see delivery semantics above). Any
  /// thread; multicast callers pass the same Buffer to every link, so the
  /// arena is shared across all n-1 destinations.
  void send_frame(erasure::Buffer frame);

  NodeId peer() const { return peer_; }

  /// Frames queued while the link was never yet established are capped;
  /// beyond this the oldest are dropped (rejoin repairs the loss).
  static constexpr std::size_t kMaxPendingFrames = 4096;

 private:
  // All of the below runs on the loop thread.
  void dial();
  void on_connect_ready(std::uint32_t events);
  void on_established();
  void on_lost();
  void retry_later();
  void send_on_loop(erasure::Buffer frame);

  EventLoop* loop_;
  NodeId self_;
  NodeId peer_;
  std::string host_;
  std::uint16_t port_;
  std::function<void(NodeId, bool)> on_liveness_;

  ScopedFd connecting_;  // fd mid-connect (watched for EPOLLOUT)
  std::shared_ptr<Connection> conn_;
  std::deque<erasure::Buffer> pending_;  // pre-first-establishment queue
  bool ever_established_ = false;
  bool down_reported_ = false;
  bool shutdown_ = false;
};

/// The automaton's outbound side over TCP (runtime::AutomatonHost hosts the
/// automaton and owns its timers and muting). send/multicast serialize
/// through the codec, wrap the bytes in one frame arena (serialize once,
/// share everywhere), and queue on the per-peer links.
class NetTransport final : public runtime::Outbound {
 public:
  /// `links[j]` is the link to node j (null at the self index).
  explicit NetTransport(std::vector<PeerLink*> links);

  void send(NodeId from, NodeId to, sim::MessagePtr message) override;
  void multicast(NodeId from, std::span<const NodeId> targets,
                 const std::function<sim::MessagePtr()>& make) override;

 private:
  std::vector<PeerLink*> links_;
};

}  // namespace causalec::net
