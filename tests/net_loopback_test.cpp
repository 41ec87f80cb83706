// In-process NodeDaemons over real loopback TCP, gated by the
// src/consistency checkers. Running the daemons inside one process keeps
// every thread visible to TSan (tools/run_sanitized_tests.sh runs this
// under all three sanitizers); tests/net_cluster_test.cpp is the separate
// multi-process battery.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "consistency/causal_checker.h"
#include "consistency/history.h"
#include "erasure/codes.h"
#include "net/client_proto.h"
#include "net/frame.h"
#include "net/net_client.h"
#include "net/node_daemon.h"
#include "net/process_cluster.h"
#include "net/socket.h"

namespace causalec::net {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kServers = 5;
constexpr std::size_t kObjects = 3;
constexpr std::size_t kValueBytes = 64;

/// Monotonic per-process tick for OpRecord invoked_at/responded_at.
SimTime next_tick() {
  static std::atomic<SimTime> tick{0};
  return tick.fetch_add(1, std::memory_order_relaxed) + 1;
}

erasure::Value value_for(ClientId client, std::uint64_t seq) {
  erasure::Value v(kValueBytes);
  std::uint8_t* bytes = v.begin();
  for (std::size_t i = 0; i < kValueBytes; ++i) {
    bytes[i] = static_cast<std::uint8_t>(client * 151 + seq * 7 + i);
  }
  return v;
}

/// Blocking write of a whole frame (MSG_NOSIGNAL: the peer may hang up).
bool send_frame(int fd, std::span<const std::uint8_t> payload) {
  const erasure::Buffer frame = encode_frame(payload);
  std::size_t written = 0;
  while (written < frame.size()) {
    const auto n = ::send(fd, frame.data() + written, frame.size() - written,
                          MSG_NOSIGNAL);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// One client session pinned to one server, recording every completed
/// operation with the Definition 6 metadata the checkers consume.
struct Session {
  Session(ClientId id_in, NodeId server_in, const std::string& endpoint)
      : id(id_in), server(server_in), client(id_in) {
    connected = client.connect(endpoint, 2000);
    client.set_io_timeout_ms(5000);
  }

  bool write_op(ObjectId object) {
    const std::uint64_t seq = seq_++;
    const erasure::Value value = value_for(id, seq);
    consistency::OpRecord record;
    record.client = id;
    record.session_seq = seq;
    record.is_write = true;
    record.object = object;
    record.server = server;
    record.value_hash =
        consistency::hash_value_bytes({value.data(), value.size()});
    record.invoked_at = next_tick();
    const auto resp = client.write(seq, object, value);
    if (!resp.has_value()) return false;
    record.tag = resp->tag;
    record.timestamp = resp->vc;
    record.responded_at = next_tick();
    ops.push_back(std::move(record));
    return true;
  }

  bool read_op(ObjectId object) {
    const std::uint64_t seq = seq_++;
    consistency::OpRecord record;
    record.client = id;
    record.session_seq = seq;
    record.is_write = false;
    record.object = object;
    record.server = server;
    record.invoked_at = next_tick();
    const auto resp = client.read(seq, object);
    if (!resp.has_value()) return false;
    record.tag = resp->tag;
    record.timestamp = resp->vc;
    record.value_hash = consistency::hash_value_bytes(
        {resp->value.data(), resp->value.size()});
    record.responded_at = next_tick();
    ops.push_back(std::move(record));
    return true;
  }

  ClientId id;
  NodeId server;
  NetClient client;
  bool connected = false;
  std::vector<consistency::OpRecord> ops;

 private:
  std::uint64_t seq_ = 0;
};

class NetLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::vector<std::uint16_t> ports = reserve_loopback_ports(kServers);
    ASSERT_EQ(ports.size(), kServers);
    std::vector<std::string> peers;
    for (const std::uint16_t port : ports) {
      peers.push_back("127.0.0.1:" + std::to_string(port));
    }
    endpoints_ = peers;
    for (std::size_t i = 0; i < kServers; ++i) {
      NodeDaemonConfig config;
      config.node = static_cast<NodeId>(i);
      config.listen_port = ports[i];
      config.peers = peers;
      config.shards = 2;
      daemons_.push_back(std::make_unique<NodeDaemon>(
          erasure::make_systematic_rs(kServers, kObjects, kValueBytes),
          std::move(config)));
    }
    for (auto& d : daemons_) d->start();
    for (std::size_t i = 0; i < kServers; ++i) {
      ASSERT_TRUE(await_server_ready(i)) << "server " << i << " never ready";
    }
  }

  void TearDown() override {
    for (auto& d : daemons_) d->stop();
  }

  bool await_server_ready(std::size_t i) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      NetClient probe(9000 + static_cast<ClientId>(i));
      if (probe.connect(endpoints_[i], 250)) {
        probe.set_io_timeout_ms(1000);
        const auto pong = probe.ping(42);
        if (pong.has_value() && pong->ready) return true;
      }
      std::this_thread::sleep_for(20ms);
    }
    return false;
  }

  /// VC equality + drained transient state across all servers, stable for
  /// two polls -- the same oracle as ProcessCluster::await_convergence.
  bool await_convergence(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    int stable = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      bool converged = true;
      std::optional<VectorClock> reference;
      for (std::size_t i = 0; i < kServers && converged; ++i) {
        NetClient probe(9100 + static_cast<ClientId>(i));
        if (!probe.connect(endpoints_[i], 500)) {
          converged = false;
          break;
        }
        probe.set_io_timeout_ms(2000);
        const auto s = probe.stats();
        if (!s.has_value() || s->history_entries != 0 ||
            s->inqueue_entries != 0 || s->readl_entries != 0) {
          converged = false;
          break;
        }
        if (!reference.has_value()) {
          reference = s->vc;
        } else if (!(*reference == s->vc)) {
          converged = false;
        }
      }
      if (converged && ++stable >= 2) return true;
      if (!converged) stable = 0;
      std::this_thread::sleep_for(20ms);
    }
    return false;
  }

  std::uint64_t total_error_events() {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kServers; ++i) {
      NetClient probe(9200 + static_cast<ClientId>(i));
      if (!probe.connect(endpoints_[i], 500)) continue;
      const auto s = probe.stats();
      if (s.has_value()) total += s->error_events;
    }
    return total;
  }

  /// Reads every object through every server after convergence; these are
  /// the `final_reads` of check_convergence.
  std::vector<consistency::OpRecord> final_reads() {
    std::vector<consistency::OpRecord> reads;
    for (std::size_t i = 0; i < kServers; ++i) {
      Session session(500 + static_cast<ClientId>(i),
                      static_cast<NodeId>(i), endpoints_[i]);
      EXPECT_TRUE(session.connected);
      for (ObjectId g = 0; g < kObjects; ++g) {
        EXPECT_TRUE(session.read_op(g));
      }
      for (auto& r : session.ops) reads.push_back(std::move(r));
    }
    return reads;
  }

  void run_checkers(const consistency::History& history,
                    const std::vector<consistency::OpRecord>& finals) {
    const auto causal = consistency::check_causal_consistency(history);
    EXPECT_TRUE(causal.ok) << (causal.violations.empty()
                                   ? std::string("?")
                                   : causal.violations.front());
    const auto session = consistency::check_session_guarantees(history);
    EXPECT_TRUE(session.ok) << (session.violations.empty()
                                    ? std::string("?")
                                    : session.violations.front());
    const auto conv = consistency::check_convergence(history, finals);
    EXPECT_TRUE(conv.ok) << (conv.violations.empty()
                                 ? std::string("?")
                                 : conv.violations.front());
  }

  std::vector<std::string> endpoints_;
  std::vector<std::unique_ptr<NodeDaemon>> daemons_;
};

TEST_F(NetLoopbackTest, SequentialSessionsSatisfyTheCheckers) {
  // One session per server, single test thread interleaving them: every
  // write propagates over real TCP multicast before some later read on
  // another server observes (or legitimately misses) it.
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t i = 0; i < kServers; ++i) {
    sessions.push_back(std::make_unique<Session>(
        100 + static_cast<ClientId>(i), static_cast<NodeId>(i),
        endpoints_[i]));
    ASSERT_TRUE(sessions.back()->connected);
  }
  for (int round = 0; round < 12; ++round) {
    for (auto& s : sessions) {
      const auto object = static_cast<ObjectId>(round % kObjects);
      if ((round + s->id) % 3 == 0) {
        ASSERT_TRUE(s->read_op(object));
      } else {
        ASSERT_TRUE(s->write_op(object));
      }
    }
  }
  ASSERT_TRUE(await_convergence(15s));

  consistency::History history;
  for (auto& s : sessions) {
    for (auto& op : s->ops) history.record(std::move(op));
  }
  run_checkers(history, final_reads());
  EXPECT_EQ(total_error_events(), 0u);
}

TEST_F(NetLoopbackTest, TruncatedPeerFrameIsDroppedAndServingContinues) {
  // A raw connection to server 0 that says it is server 1, then sends a
  // protocol frame cut short: an app header (type 1, wire size, object)
  // with no tag or value behind it. Untrusted bytes must be dropped by the
  // automaton, never abort it.
  const auto addr = parse_host_port(endpoints_[0]);
  ASSERT_TRUE(addr.has_value());
  ScopedFd raw = connect_tcp_blocking(addr->first, addr->second, 2000);
  ASSERT_TRUE(raw.valid());
  Hello hello;
  hello.role = PeerRole::kServer;
  hello.node = 1;
  ASSERT_TRUE(send_frame(raw.get(), encode_hello(hello)));
  const std::vector<std::uint8_t> truncated = {1, 64, 0, 0, 0, 0, 0, 0, 0,
                                               0, 0, 0, 0};
  ASSERT_LT(truncated.front(), kClientProtoBase);
  ASSERT_TRUE(send_frame(raw.get(), truncated));
  // A client frame on a protocol link makes the shard close the
  // connection; the EOF proves the truncated frame before it was already
  // handed to the automaton.
  ASSERT_TRUE(send_frame(raw.get(), encode_ping(Ping{7})));
  std::uint8_t byte = 0;
  EXPECT_LE(::recv(raw.get(), &byte, 1, 0), 0);

  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t i = 0; i < kServers; ++i) {
    sessions.push_back(std::make_unique<Session>(
        300 + static_cast<ClientId>(i), static_cast<NodeId>(i),
        endpoints_[i]));
    ASSERT_TRUE(sessions.back()->connected);
  }
  for (int round = 0; round < 6; ++round) {
    for (auto& s : sessions) {
      const auto object = static_cast<ObjectId>(round % kObjects);
      if ((round + s->id) % 2 == 0) {
        ASSERT_TRUE(s->read_op(object));
      } else {
        ASSERT_TRUE(s->write_op(object));
      }
    }
  }
  ASSERT_TRUE(await_convergence(15s));

  consistency::History history;
  for (auto& s : sessions) {
    for (auto& op : s->ops) history.record(std::move(op));
  }
  run_checkers(history, final_reads());
  EXPECT_EQ(total_error_events(), 0u);
}

TEST_F(NetLoopbackTest, ConcurrentClientsSatisfyTheCheckers) {
  // Two concurrent sessions per server hammering mixed reads/writes from
  // their own threads: the TSan-visible version of the real deployment.
  constexpr std::size_t kThreads = 2 * kServers;
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t t = 0; t < kThreads; ++t) {
    sessions.push_back(std::make_unique<Session>(
        200 + static_cast<ClientId>(t),
        static_cast<NodeId>(t % kServers), endpoints_[t % kServers]));
    ASSERT_TRUE(sessions[t]->connected);
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session& s = *sessions[t];
      for (int op = 0; op < 40; ++op) {
        const auto object = static_cast<ObjectId>((op + t) % kObjects);
        const bool ok = ((op + t) % 2 == 0) ? s.write_op(object)
                                            : s.read_op(object);
        if (!ok) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed.load()) << "a client operation failed";
  ASSERT_TRUE(await_convergence(15s));

  consistency::History history;
  for (auto& s : sessions) {
    for (auto& op : s->ops) history.record(std::move(op));
  }
  EXPECT_EQ(history.size(), kThreads * 40);
  run_checkers(history, final_reads());
  EXPECT_EQ(total_error_events(), 0u);
}

}  // namespace
}  // namespace causalec::net
