// RouterClient: a blocking, one-request-at-a-time session against a
// causalec_router (the front-door analogue of net::NetClient; nothing here
// is thread-safe -- each bench/test session thread owns one).
//
// The client maintains the session's *causal frontier*: the component-wise
// merge of every response vector clock it has seen. Each routed request
// carries the frontier, which is what makes the session guarantees hold
// end to end -- the router's edge cache only serves witnesses at or beyond
// it, and a backend parks the request until its clock dominates it. The
// frontier is the *entire* session state: it can be extracted with
// frontier() and re-installed with set_frontier() on a fresh client (e.g.
// across a router restart, or to splice in clocks observed out of band),
// and the session's guarantees carry over.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "causalec/tag.h"
#include "common/types.h"
#include "erasure/value.h"
#include "net/client_proto.h"
#include "net/framed_client.h"

namespace causalec::frontdoor {

class RouterClient {
 public:
  explicit RouterClient(ClientId client) : client_(client) {}

  /// Connects ("host:port") and sends the client Hello. False on failure.
  bool connect(const std::string& host_port, int timeout_ms = 5000) {
    return conn_.connect(host_port, timeout_ms);
  }

  bool connected() const { return conn_.connected(); }
  ClientId client() const { return client_; }

  /// Per-request receive timeout; a request that times out (or hits any
  /// socket/framing error) returns nullopt and closes the connection.
  void set_io_timeout_ms(int ms) { conn_.set_io_timeout_ms(ms); }

  // Each call issues one request and blocks for its response, then merges
  // the response clock into the session frontier. `opid` is a caller-chosen
  // correlation id echoed back by the router.
  std::optional<net::WriteResp> write(OpId opid, ObjectId object,
                                      erasure::Value value);
  std::optional<net::RoutedReadResp> read(OpId opid, ObjectId object);
  std::optional<net::Pong> ping(std::uint64_t token);
  std::optional<net::RouterStatsResp> router_stats();

  /// The session's causal frontier (empty until the first response).
  const VectorClock& frontier() const { return frontier_; }
  /// Replaces the frontier wholesale -- session hand-off across router
  /// restarts, or tests forcing a frontier ahead of the cache.
  void set_frontier(VectorClock frontier) { frontier_ = std::move(frontier); }
  /// Merges `vc` into the frontier (adopts it when the frontier is empty).
  void advance_frontier(const VectorClock& vc);

 private:
  ClientId client_;
  VectorClock frontier_;
  net::FramedClient conn_;
};

}  // namespace causalec::frontdoor
