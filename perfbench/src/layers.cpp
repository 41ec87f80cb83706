// Layer-level measurements taken by calling each module's public functions
// directly: a single-threaded replay of the workload's op stream through
// causalec::Server over an in-memory transport (whose history also feeds
// the consistency checkers), and timed calls into gf, erasure, persist and
// frontdoor on the workload's shapes and streams.
#include <deque>
#include <filesystem>
#include <functional>
#include <map>

#include "bench.h"
#include "causalec/codec.h"
#include "causalec/server.h"
#include "consistency/causal_checker.h"
#include "frontdoor/edge_cache.h"
#include "frontdoor/hash_ring.h"
#include "gf/kernels.h"
#include "net/net_client.h"
#include "net/node_daemon.h"
#include "obs/metrics.h"
#include "persist/backend.h"
#include "persist/journal.h"
#include "runtime/threaded_cluster.h"

namespace perfbench {

namespace {

using causalec::SimTime;
using causalec::VectorClock;
using causalec::consistency::OpRecord;
using causalec::erasure::Buffer;
using causalec::erasure::Value;


/// The benchmark-owned network: one FIFO of frames (FIFO per channel, as
/// the protocol requires), every message passed through the wire codec,
/// and virtual-time timers.
class MemNet {
 public:
  struct Frame {
    NodeId from;
    NodeId to;
    causalec::sim::MessagePtr message;
  };

  /// Wire frames kept for the persist measurement: (receiver, sender, bytes).
  struct Captured {
    NodeId to;
    NodeId from;
    std::vector<std::uint8_t> bytes;
  };

  void send(NodeId from, NodeId to, causalec::sim::MessagePtr message) {
    const std::int64_t t0 = now_ns();
    Buffer frame = causalec::serialize_message_frame(*message);
    const std::int64_t t1 = now_ns();
    std::string error;
    auto back = causalec::try_deserialize_message(frame, &error);
    const std::int64_t t2 = now_ns();
    serialize.add(t1 - t0);
    deserialize.add(t2 - t1);
    ++messages;
    wire_bytes += frame.size();
    if (back == nullptr) {
      decode_errors.push_back(error);
      return;
    }
    if (captured_bytes < capture_limit) {
      captured.push_back({to, from, {frame.data(), frame.data() + frame.size()}});
      captured_bytes += frame.size();
    }
    queue.push_back(Frame{from, to, std::move(back)});
  }

  void schedule_after(SimTime delta, std::function<void()> fn) {
    timers.emplace(now + std::max<SimTime>(delta, 0), std::move(fn));
  }

  /// Advances virtual time, firing timers that came due.
  void advance(SimTime delta) {
    now += delta;
    while (!timers.empty() && timers.begin()->first <= now) {
      auto fn = std::move(timers.begin()->second);
      timers.erase(timers.begin());
      fn();
    }
  }

  std::deque<Frame> queue;
  std::multimap<SimTime, std::function<void()>> timers;
  SimTime now = 0;
  MeanNs serialize;
  MeanNs deserialize;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  std::vector<std::string> decode_errors;
  std::vector<Captured> captured;
  std::size_t captured_bytes = 0;
  std::size_t capture_limit = 0;
};

class Port final : public causalec::Transport {
 public:
  Port(MemNet* net, NodeId self) : net_(net), self_(self) {}
  void send(NodeId to, causalec::sim::MessagePtr message) override {
    net_->send(self_, to, std::move(message));
  }
  void schedule_after(SimTime delta, std::function<void()> fn) override {
    net_->schedule_after(delta, std::move(fn));
  }
  SimTime now() const override { return net_->now; }

 private:
  MemNet* net_;
  NodeId self_;
};

struct Replay {
  MeanNs write;
  MeanNs read_local;
  MeanNs read_remote;
  MeanNs gc;
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t user_bytes = 0;
  double history_sum = 0;
  std::uint64_t history_samples = 0;
  std::vector<OpRecord> history;
  std::vector<OpRecord> finals;
  // Persist input: the client writes accepted while frames were captured.
  struct CapturedWrite {
    NodeId at;
    ClientId client;
    causalec::OpId opid;
    ObjectId object;
    Value value;
  };
  std::vector<CapturedWrite> captured_writes;
  std::vector<MemNet::Captured> captured_frames;
  causalec::erasure::PlanCacheStats plan_cache;
  MeanNs serialize;
  MeanNs deserialize;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
};

/// Replays `num_ops` ops of the workload's sessions (pinned to their home
/// servers) through the Server API. Between ops a seeded number of queued
/// frames is delivered, so remote reads race concurrent writes.
Replay replay(const Shape& shape, std::uint64_t seed, std::size_t num_ops,
              Spans& spans, std::size_t capture_bytes,
              std::vector<std::string>& violations) {
  Replay out;
  MemNet net;
  net.capture_limit = capture_bytes;
  auto code = make_code(shape);
  std::vector<std::unique_ptr<Port>> ports;
  std::vector<std::unique_ptr<causalec::Server>> servers;
  causalec::ServerConfig config;
  config.flight_recorder = false;
  for (NodeId i = 0; i < shape.n; ++i) {
    ports.push_back(std::make_unique<Port>(&net, i));
    servers.push_back(std::make_unique<causalec::Server>(i, code, config,
                                                         ports.back().get()));
  }
  auto deliver_one = [&] {
    MemNet::Frame f = std::move(net.queue.front());
    net.queue.pop_front();
    servers[f.to]->on_message(f.from, std::move(f.message));
  };
  auto run_gc = [&] {
    for (auto& s : servers) {
      const std::int64_t t0 = now_ns();
      s->run_garbage_collection();
      out.gc.add(now_ns() - t0);
    }
  };

  const std::size_t num_sessions = shape.homes.size();
  std::vector<OpStream> streams;
  std::vector<std::uint64_t> seqs(num_sessions, 0);
  std::vector<std::uint64_t> session_pos(num_sessions, 0);
  for (std::size_t i = 0; i < num_sessions; ++i) {
    streams.emplace_back(shape, seed, i);
  }
  causalec::Rng pick(seed ^ 0xBADC0FFEEull);
  causalec::OpId opid = 1;
  const std::uint32_t tid = 0;

  // Issues one read and pumps frames until its callback fires. False when
  // it cannot complete; the replay then stops (the callback still refers
  // to this frame's locals).
  auto do_read = [&](std::size_t session, NodeId home, ObjectId object,
                     bool timed, OpRecord* rec) -> bool {
    bool done = false;
    Value got;
    Tag got_tag;
    VectorClock got_ts;
    const std::uint64_t op = spans.on() ? spans.new_id() : 0;
    const std::int64_t t0 = now_ns();
    {
      Span span(spans, tid, "causalec.client_read", op);
      servers[home]->client_read(
          session + 1, opid++, object,
          [&](const Value& v, const Tag& t, const VectorClock& ts) {
            got = v;
            got_tag = t;
            got_ts = ts;
            done = true;
          });
    }
    const bool local = done;
    int idle_rounds = 0;
    while (!done) {
      if (!net.queue.empty()) {
        deliver_one();
      } else if (!net.timers.empty()) {
        net.advance(net.timers.begin()->first - net.now);
      } else if (++idle_rounds > 3) {
        violations.push_back("a read never completed");
        return false;
      } else {
        run_gc();
      }
    }
    if (timed) (local ? out.read_local : out.read_remote).add(now_ns() - t0);
    const ValueCheck check = check_value(got.data(), got.size(), object);
    if (!check.ok) violations.push_back("replay read: " + check.error);
    rec->client = session + 1;
    rec->is_write = false;
    rec->object = object;
    rec->server = home;
    rec->tag = got_tag;
    rec->timestamp = got_ts;
    rec->value_hash = causalec::consistency::hash_value_bytes(got.span());
    return true;
  };

  for (std::size_t i = 0; i < num_ops; ++i) {
    const std::size_t s = pick.next_below(num_sessions);
    const NodeId home = shape.homes[s];
    const Op op = streams[s].next();
    OpRecord rec;
    rec.session_seq = session_pos[s]++;
    rec.invoked_at = static_cast<SimTime>(i);
    if (op.is_write) {
      const std::uint64_t seq = seqs[s]++;
      Buffer buf = Buffer::alloc_uninit(shape.value_bytes);
      fill_value(buf.mutable_data(), shape.value_bytes, op.object, s, seq);
      Value value(std::move(buf));
      rec.value_hash = causalec::consistency::hash_value_bytes(value.span());
      if (net.captured_bytes < net.capture_limit) {
        out.captured_writes.push_back({home, s + 1, opid, op.object, value});
      }
      const std::uint64_t span_op = spans.on() ? spans.new_id() : 0;
      const std::int64_t t0 = now_ns();
      Tag tag;
      {
        Span span(spans, tid, "causalec.client_write", span_op);
        tag = servers[home]->client_write(s + 1, opid++, op.object, value);
      }
      out.write.add(now_ns() - t0);
      rec.client = s + 1;
      rec.is_write = true;
      rec.object = op.object;
      rec.server = home;
      rec.tag = tag;
      rec.timestamp = tag.ts;
      ++out.writes;
      out.user_bytes += shape.value_bytes;
    } else {
      if (!do_read(s, home, op.object, true, &rec)) return out;
      ++out.reads;
    }
    rec.responded_at = static_cast<SimTime>(i);
    out.history.push_back(std::move(rec));
    ++out.ops;

    // Leave a seeded backlog of undelivered frames (0..31) behind.
    const std::size_t backlog = pick.next_below(32);
    while (net.queue.size() > backlog) deliver_one();
    net.advance(1000);
    if (i % 16 == 15) run_gc();
    if (i % 8 == 7) {
      std::size_t entries = 0;
      for (auto& srv : servers) entries += srv->storage().history_entries;
      out.history_sum += static_cast<double>(entries);
      ++out.history_samples;
    }
  }

  // Quiesce: deliver everything and collect garbage until nothing moves.
  for (int round = 0; round < 64; ++round) {
    while (!net.queue.empty()) deliver_one();
    run_gc();
    if (net.queue.empty()) break;
  }
  for (NodeId at = 0; at < shape.n; ++at) {
    for (ObjectId x = 0; x < shape.k; ++x) {
      OpRecord rec;
      if (!do_read(num_sessions, at, x, false, &rec)) return out;
      rec.client = 0;
      out.finals.push_back(std::move(rec));
    }
  }
  for (auto& srv : servers) {
    const auto& c = srv->counters();
    if (c.error1_events + c.error2_events != 0) {
      violations.push_back("replay: Error1/Error2 events at server " +
                           std::to_string(srv->id()));
    }
  }
  for (const auto& e : net.decode_errors) {
    violations.push_back("replay: a frame failed to decode: " + e);
  }
  out.plan_cache = code->decode_plan_cache_stats();
  out.serialize = net.serialize;
  out.deserialize = net.deserialize;
  out.messages = net.messages;
  out.wire_bytes = net.wire_bytes;
  out.captured_frames = std::move(net.captured);
  return out;
}

/// Calls `body` repeatedly for about `budget_s`; returns mean ns per call.
/// `batch` calls share one clock read and one span.
template <typename F>
double time_calls(Spans& spans, const char* name, double budget_s,
                  std::size_t batch, F&& body) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  std::uint64_t calls = 0;
  std::int64_t busy = 0;
  do {
    const std::uint64_t op = spans.on() ? spans.new_id() : 0;
    const std::int64_t t0 = now_ns();
    {
      Span span(spans, 0, name, op);
      for (std::size_t i = 0; i < batch; ++i) body();
    }
    busy += now_ns() - t0;
    calls += batch;
  } while (now_ns() < deadline);
  return static_cast<double>(busy) / static_cast<double>(calls);
}

std::vector<std::uint8_t> random_bytes(causalec::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

void bench_gf(const LayerInputs& in, RunResult& r) {
  namespace k = causalec::gf::kernels;
  const std::size_t row = in.shape->value_bytes;
  const std::size_t terms =
      std::min<std::size_t>(2 * in.shape->homes.size(), k::kMaxBatchTerms);
  causalec::Rng rng(in.seed ^ 0x6F6F);
  std::vector<std::vector<std::uint8_t>> src;
  std::vector<k::BatchTerm> batch;
  for (std::size_t t = 0; t < terms; ++t) {
    src.push_back(random_bytes(rng, row));
    batch.push_back(k::BatchTerm{
        static_cast<std::uint8_t>(1 + rng.next_below(255)), src.back().data()});
  }
  std::vector<std::uint8_t> dst = random_bytes(rng, row);
  const double ns = time_calls(*in.spans, "gf.axpy_batch", in.budget_s, 8, [&] {
    k::axpy_batch_gf256(dst.data(), batch, row);
  });
  r.set(r.layer, "gf.axpy_batch_gbps",
        static_cast<double>(terms * row) / ns, "GB/s");
}

void bench_erasure(const LayerInputs& in, RunResult& r) {
  const Shape& shape = *in.shape;
  auto code = make_code(shape);
  causalec::Rng rng(in.seed ^ 0xEC);
  std::vector<Value> values;
  for (std::size_t x = 0; x < shape.k; ++x) {
    values.emplace_back(random_bytes(rng, shape.value_bytes));
  }

  // Re-encode: the server whose symbol depends on the most objects, one
  // entry per session (a drained batch when every session wrote once).
  NodeId widest = 0;
  for (NodeId i = 0; i < shape.n; ++i) {
    if (code->support(i).size() > code->support(widest).size()) widest = i;
  }
  const auto& support = code->support(widest);
  std::vector<Value> fresh;
  std::vector<causalec::erasure::Code::ReencodeEntry> entries;
  for (std::size_t e = 0; e < shape.homes.size(); ++e) {
    fresh.emplace_back(random_bytes(rng, shape.value_bytes));
  }
  for (std::size_t e = 0; e < shape.homes.size(); ++e) {
    const ObjectId x = support[e % support.size()];
    entries.push_back({x, values[x].span(), fresh[e].span()});
  }
  Value symbol = code->encode(widest, values);
  const double reencode_ns =
      time_calls(*in.spans, "erasure.reencode_batch", in.budget_s, 1,
                 [&] { code->reencode_batch(widest, symbol, entries); });
  r.set(r.layer, "erasure.reencode_batch_us", reencode_ns / 1e3, "us");

  // Decode: each (home, object) pair a home cannot read locally, on the
  // smallest recovery set that includes the home (what its read fans in).
  struct Pair {
    ObjectId object;
    std::vector<NodeId> servers;
    std::vector<Value> symbols;
  };
  std::vector<Pair> pairs;
  for (NodeId home : shape.homes) {
    for (ObjectId x = 0; x < shape.k; ++x) {
      if (code->is_local(home, x)) continue;
      const auto& sets = code->recovery_sets(x);
      const auto* chosen = &sets.front();
      for (const auto& set : sets) {
        if (std::find(set.begin(), set.end(), home) != set.end()) {
          chosen = &set;
          break;
        }
      }
      Pair p{x, *chosen, {}};
      for (NodeId s : p.servers) p.symbols.push_back(code->encode(s, values));
      pairs.push_back(std::move(p));
    }
  }
  if (!pairs.empty()) {
    std::size_t next = 0;
    bool wrong = false;
    const double decode_ns =
        time_calls(*in.spans, "erasure.decode", in.budget_s, 1, [&] {
          const Pair& p = pairs[next++ % pairs.size()];
          const Value v = code->decode(p.object, p.servers, p.symbols);
          wrong |= !(v == values[p.object]);
        });
    if (wrong) r.violations.push_back("erasure: a decode returned wrong bytes");
    r.set(r.layer, "erasure.decode_us", decode_ns / 1e3, "us");
  }
}

void bench_persist(const LayerInputs& in, const Replay& rep, RunResult& r) {
  const std::filesystem::path dir =
      std::filesystem::path(in.work_dir) / "persist-layer";
  std::filesystem::remove_all(dir);
  {
    causalec::persist::DirBackend backend(dir.string());
    std::vector<std::unique_ptr<causalec::persist::Journal>> journals;
    for (NodeId i = 0; i < in.shape->n; ++i) {
      std::string key = "s";
      key += std::to_string(i);
      journals.push_back(
          std::make_unique<causalec::persist::Journal>(&backend, key));
    }
    MeanNs append;
    for (const auto& f : rep.captured_frames) {
      const std::uint64_t op = in.spans->on() ? in.spans->new_id() : 0;
      const std::int64_t t0 = now_ns();
      {
        Span span(*in.spans, 0, "persist.record_message", op);
        journals[f.to]->record_message(f.from, f.bytes);
      }
      append.add(now_ns() - t0);
    }
    std::uint64_t user = 0;
    for (const auto& w : rep.captured_writes) {
      journals[w.at]->record_client_write(w.client, w.opid, w.object,
                                          w.value.span());
      user += w.value.size();
    }
    std::uint64_t wal = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      wal += e.file_size();
    }
    r.set(r.layer, "persist.journal_append_us", append.mean_us(), "us");
    r.set(r.layer, "persist.bytes_per_user_byte",
          user == 0 ? 0 : static_cast<double>(wal) / static_cast<double>(user),
          "ratio");
  }
  std::filesystem::remove_all(dir);
}

void bench_frontdoor(const LayerInputs& in, const Replay& rep, RunResult& r) {
  const Shape& shape = *in.shape;
  causalec::frontdoor::EdgeCache cache(4096, std::chrono::milliseconds(2000));
  const Value witness(shape.value_bytes, 0);
  std::map<ClientId, VectorClock> frontier;
  std::size_t next = 0;
  const double cache_ns =
      time_calls(*in.spans, "frontdoor.cache", in.budget_s, 64, [&] {
        const OpRecord& op = rep.history[next++ % rep.history.size()];
        auto [it, fresh] = frontier.try_emplace(op.client, shape.n);
        if (op.is_write) {
          it->second.merge(op.tag.ts);
          return;
        }
        causalec::frontdoor::EdgeCache::Entry entry;
        if (cache.lookup(op.object, it->second, &entry) !=
            causalec::frontdoor::EdgeCache::Outcome::kHit) {
          cache.put(op.object, witness, op.tag, op.timestamp);
        }
        it->second.merge(op.timestamp);
      });
  r.set(r.layer, "frontdoor.cache_lookup_ns", cache_ns, "ns");

  causalec::frontdoor::HashRing ring(shape.n, 64, 0x5EEDu);
  std::size_t sink = 0;
  next = 0;
  const double ring_ns =
      time_calls(*in.spans, "frontdoor.ring", in.budget_s, 1024, [&] {
        sink += ring.owner(rep.history[next++ % rep.history.size()].object);
      });
  if (sink == SIZE_MAX) r.notes.push_back("ring: empty");
  r.set(r.layer, "frontdoor.ring_lookup_ns", ring_ns, "ns");
}

/// runtime.* on workloads that do not run ThreadedCluster themselves: one
/// session's ops on the workload's shape, single-threaded.
void probe_runtime(const LayerInputs& in, RunResult& r) {
  const Shape& shape = *in.shape;
  causalec::obs::MetricsRegistry registry;
  causalec::runtime::ThreadedClusterConfig config;
  config.obs.metrics = &registry;
  causalec::runtime::ThreadedCluster cluster(make_code(shape), config);
  OpStream stream(shape, in.seed, 77);
  const NodeId home = shape.homes.front();
  const std::uint64_t session = shape.homes.size();
  std::uint64_t seq = 0;
  MeanNs write, read;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(in.budget_s * 1e9);
  while (now_ns() < deadline) {
    const Op op = stream.next();
    const std::uint64_t span_op = in.spans->on() ? in.spans->new_id() : 0;
    const std::int64_t t0 = now_ns();
    if (op.is_write) {
      Buffer buf = Buffer::alloc_uninit(shape.value_bytes);
      fill_value(buf.mutable_data(), shape.value_bytes, op.object, session, seq++);
      {
        Span span(*in.spans, 0, "runtime.write", span_op);
        cluster.write(home, session + 1, op.object, Value(std::move(buf)));
      }
      write.add(now_ns() - t0);
    } else {
      std::pair<Value, Tag> got;
      {
        Span span(*in.spans, 0, "runtime.read", span_op);
        got = cluster.read(home, session + 1, op.object);
      }
      read.add(now_ns() - t0);
      const ValueCheck check =
          check_value(got.first.data(), got.first.size(), op.object);
      if (!check.ok) r.violations.push_back("runtime probe read: " + check.error);
    }
  }
  r.set(r.layer, "runtime.write_us", write.mean_us(), "us");
  r.set(r.layer, "runtime.read_us", read.mean_us(), "us");
  const auto snap = registry.snapshot();
  if (auto it = snap.histograms.find("phase.queue_wait_ns");
      it != snap.histograms.end()) {
    r.set(r.layer, "runtime.queue_wait_us", it->second.mean() / 1e3, "us");
  }
}

/// net.ping_us on the in-process workload: NetClient::ping against one
/// in-process NodeDaemon on the workload's code (socket plus shard; the
/// automaton and peers are not involved).
void probe_ping(const LayerInputs& in, RunResult& r) {
  causalec::net::NodeDaemonConfig config;
  config.node = 0;
  config.shards = 1;
  // Peers are never dialed successfully; ping is answered by the shard.
  config.peers.assign(in.shape->n, "127.0.0.1:1");
  causalec::net::NodeDaemon daemon(make_code(*in.shape), config);
  daemon.start();
  causalec::net::NetClient client(0);
  std::vector<std::int64_t> rtt;
  if (client.connect("127.0.0.1:" + std::to_string(daemon.listen_port()), 2000)) {
    for (std::uint64_t i = 1; i <= 2000; ++i) {
      const std::int64_t t0 = now_ns();
      if (!client.ping(i).has_value()) break;
      rtt.push_back(now_ns() - t0);
    }
  }
  daemon.stop();
  r.set(r.layer, "net.ping_us", percentile(rtt, 0.5) / 1e3, "us");
}

}  // namespace

void run_layers(const LayerInputs& in, bool timed, RunResult& r) {
  const Shape& shape = *in.shape;
  // The checked replay is small (the causal checker is quadratic in
  // writes); the timed one is longer and captures frames for persist.
  const std::size_t ops = timed ? 1500 : 400;
  const std::size_t capture =
      timed ? std::max<std::size_t>(std::size_t{4} << 20, 16 * shape.value_bytes)
            : 0;
  in.spans->set_on(timed);
  std::vector<std::string> violations;
  const Replay rep = replay(shape, in.seed, ops, *in.spans, capture, violations);

  causalec::consistency::History history;
  for (const OpRecord& op : rep.history) history.record(op);
  for (const auto& v : causalec::consistency::check_causal_consistency(history).violations) {
    violations.push_back("causal checker: " + v);
  }
  for (const auto& v : causalec::consistency::check_session_guarantees(history).violations) {
    violations.push_back("session checker: " + v);
  }
  for (const auto& v : causalec::consistency::check_convergence(history, rep.finals).violations) {
    violations.push_back("convergence checker: " + v);
  }
  for (std::size_t i = 0; i < violations.size() && i < 10; ++i) {
    r.violations.push_back("replay: " + violations[i]);
  }
  r.notes.push_back("replay: " + std::to_string(rep.ops) + " ops (" +
                    std::to_string(rep.writes) + " writes) through " +
                    "causal, session and convergence checkers");
  if (!timed) return;

  const double ops_d = static_cast<double>(rep.ops);
  r.set(r.layer, "causalec.write_us", rep.write.mean_us(), "us");
  r.set(r.layer, "causalec.read_local_us", rep.read_local.mean_us(), "us");
  r.set(r.layer, "causalec.read_remote_us", rep.read_remote.mean_us(), "us");
  r.set(r.layer, "causalec.gc_us", rep.gc.mean_us(), "us");
  r.set(r.layer, "causalec.msgs_per_op", static_cast<double>(rep.messages) / ops_d,
        "count");
  r.set(r.layer, "causalec.wire_bytes_per_op",
        static_cast<double>(rep.wire_bytes) / ops_d, "B");
  r.set(r.layer, "causalec.history_entries_mean",
        rep.history_sum / static_cast<double>(rep.history_samples), "count");
  r.set(r.layer, "causalec.serialize_us", rep.serialize.mean_us(), "us");
  r.set(r.layer, "causalec.deserialize_us", rep.deserialize.mean_us(), "us");
  const double read_ns = rep.read_local.total_ns + rep.read_remote.total_ns;
  r.set(r.layer, "causalec.op_us",
        (rep.write.total_ns + read_ns) / ops_d / 1e3, "us");
  r.set(r.layer, "erasure.plan_cache_hit_rate", rep.plan_cache.hit_rate(),
        "ratio");

  bench_gf(in, r);
  bench_erasure(in, r);
  bench_persist(in, rep, r);
  bench_frontdoor(in, rep, r);
  if (in.probe_runtime) probe_runtime(in, r);
  if (in.probe_ping) probe_ping(in, r);
  in.spans->set_on(false);
  r.set(r.layer, "runtime.overhead_us",
        r.layer["runtime.write_us"].value - rep.write.mean_us(), "us");
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"gf.axpy_batch_gbps", "GB/s"},
      {"erasure.reencode_batch_us", "us"},
      {"erasure.decode_us", "us"},
      {"erasure.plan_cache_hit_rate", "ratio"},
      {"erasure.payload_allocs_per_op", "count"},
      {"erasure.recycle_rate", "ratio"},
      {"causalec.write_us", "us"},
      {"causalec.read_local_us", "us"},
      {"causalec.read_remote_us", "us"},
      {"causalec.gc_us", "us"},
      {"causalec.op_us", "us"},
      {"causalec.msgs_per_op", "count"},
      {"causalec.wire_bytes_per_op", "B"},
      {"causalec.history_entries_mean", "count"},
      {"causalec.serialize_us", "us"},
      {"causalec.deserialize_us", "us"},
      {"runtime.write_us", "us"},
      {"runtime.read_us", "us"},
      {"runtime.overhead_us", "us"},
      {"runtime.queue_wait_us", "us"},
      {"net.ping_us", "us"},
      {"net.unaccounted_us", "us"},
      {"net.inqueue_depth_mean", "count"},
      {"net.history_entries_mean", "count"},
      {"net.shard_imbalance", "ratio"},
      {"persist.journal_append_us", "us"},
      {"persist.bytes_per_user_byte", "ratio"},
      {"frontdoor.hit_rate", "ratio"},
      {"frontdoor.stale_rate", "ratio"},
      {"frontdoor.hit_read_us", "us"},
      {"frontdoor.origin_read_us", "us"},
      {"frontdoor.cache_lookup_ns", "ns"},
      {"frontdoor.ring_lookup_ns", "ns"},
      {"obs.trace_overhead", "ratio"},
      {"failed_frac", "ratio"},
      {"self.workload_us", "us"},
      {"self.call_us", "us"},
  };
  return units;
}

void add_self_times(const Spans& spans, RunResult& r) {
  r.set(r.layer, "self.workload_us", spans.self_us_per_op("workload.op", false),
        "us");
  r.set(r.layer, "self.call_us", spans.self_us_per_op("workload.op", true), "us");
}

}  // namespace perfbench
