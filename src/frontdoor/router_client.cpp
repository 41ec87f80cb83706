#include "frontdoor/router_client.h"

#include <utility>

namespace causalec::frontdoor {

void RouterClient::advance_frontier(const VectorClock& vc) {
  if (vc.size() == 0) return;
  if (frontier_.size() == 0) {
    frontier_ = vc;
    return;
  }
  if (frontier_.size() != vc.size()) return;  // cluster-shape confusion
  frontier_.merge(vc);
}

std::optional<net::WriteResp> RouterClient::write(OpId opid, ObjectId object,
                                                  erasure::Value value) {
  net::RoutedWriteReq req;
  req.opid = opid;
  req.client = client_;
  req.object = object;
  req.frontier = frontier_;
  req.value = std::move(value);
  auto resp = conn_.call(
      net::encode_routed_write_req(req), net::decode_write_resp,
      [opid](const net::WriteResp& r) { return r.opid == opid; });
  if (resp.has_value()) advance_frontier(resp->vc);
  return resp;
}

std::optional<net::RoutedReadResp> RouterClient::read(OpId opid,
                                                      ObjectId object) {
  net::RoutedReadReq req;
  req.opid = opid;
  req.client = client_;
  req.object = object;
  req.frontier = frontier_;
  auto resp = conn_.call(
      net::encode_routed_read_req(req), net::decode_routed_read_resp,
      [opid](const net::RoutedReadResp& r) { return r.opid == opid; });
  if (resp.has_value()) advance_frontier(resp->vc);
  return resp;
}

std::optional<net::Pong> RouterClient::ping(std::uint64_t token) {
  return conn_.call(net::encode_ping(net::Ping{token}), net::decode_pong,
                    [token](const net::Pong& r) { return r.token == token; });
}

std::optional<net::RouterStatsResp> RouterClient::router_stats() {
  return conn_.call(net::encode_router_stats_req(),
                    net::decode_router_stats_resp);
}

}  // namespace causalec::frontdoor
