#include "net/net_client.h"

namespace causalec::net {

std::optional<WriteResp> NetClient::write(OpId opid, ObjectId object,
                                          erasure::Value value) {
  WriteReq req;
  req.opid = opid;
  req.client = client_;
  req.object = object;
  req.value = std::move(value);
  return conn_.call(encode_write_req(req), decode_write_resp,
                    [opid](const WriteResp& r) { return r.opid == opid; });
}

std::optional<ReadResp> NetClient::read(OpId opid, ObjectId object) {
  ReadReq req;
  req.opid = opid;
  req.client = client_;
  req.object = object;
  return conn_.call(encode_read_req(req), decode_read_resp,
                    [opid](const ReadResp& r) { return r.opid == opid; });
}

std::optional<Pong> NetClient::ping(std::uint64_t token) {
  return conn_.call(encode_ping(Ping{token}), decode_pong,
                    [token](const Pong& r) { return r.token == token; });
}

std::optional<StatsResp> NetClient::stats() {
  return conn_.call(encode_stats_req(), decode_stats_resp);
}

}  // namespace causalec::net
