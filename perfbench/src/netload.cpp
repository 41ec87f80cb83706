// routed-read-1k: the in-process frontdoor::Router in front of five
// causalec_server daemons on loopback, driven by closed-loop RouterClient
// sessions.
#include <unistd.h>

#include <filesystem>
#include <thread>

#include "bench.h"
#include "consistency/causal_checker.h"
#include "erasure/buffer.h"
#include "frontdoor/router.h"
#include "frontdoor/router_client.h"
#include "net/client_proto.h"
#include "net/net_client.h"
#include "net/process_cluster.h"

namespace perfbench {

namespace {

namespace net = causalec::net;
using causalec::erasure::Buffer;
using causalec::erasure::Value;

// -- Cluster lifecycle ----------------------------------------------------------

struct Deployment {
  std::string work_dir;
  std::unique_ptr<net::ProcessCluster> cluster;
  std::unique_ptr<causalec::frontdoor::Router> router;
  std::vector<int> pids;  // the spawned servers
  void reset() {
    router.reset();
    cluster.reset();  // SIGTERM, then SIGKILL, and reaps every server
    pids.clear();
  }
};

/// Spawns the servers and the router into a fresh work directory. A start
/// that fails -- e.g. a reserved port taken by another process before the
/// server bound it -- is torn down and retried on fresh ports; the retry
/// counts toward set-up time.
bool deploy(const Args& args, const Shape& shape, int& counter, Deployment& d,
            RunResult& r) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    d.reset();
    net::ProcessClusterConfig c;
    c.server_bin = args.server_bin;
    c.num_servers = shape.n;
    c.num_objects = shape.k;
    c.value_bytes = shape.value_bytes;
    c.shards = 1;
    c.persistence = false;  // crash-stop: no --data-dir, no journal
    c.work_dir = args.work_dir + "/cluster" + std::to_string(counter++);
    std::filesystem::create_directories(c.work_dir);
    d.work_dir = c.work_dir;
    const std::vector<int> before = child_pids();
    d.cluster = std::make_unique<net::ProcessCluster>(c);
    bool ok = d.cluster->start() &&
              d.cluster->await_ready(std::chrono::seconds(10));
    for (int pid : child_pids()) {
      if (std::find(before.begin(), before.end(), pid) == before.end()) {
        d.pids.push_back(pid);
      }
    }
    if (ok) {
      causalec::frontdoor::RouterConfig rc;
      rc.cluster = d.cluster->cluster();
      // One shard, as on the daemons: with two, SO_REUSEPORT hashes each
      // session's connection onto a shard by its ephemeral port, and runs
      // split into a mode where both sessions share a shard and one where
      // they do not.
      rc.shards = 1;
      d.router = std::make_unique<causalec::frontdoor::Router>(rc);
      d.router->start();
      ok = d.router->await_backends(std::chrono::seconds(10));
    }
    if (ok) return true;
    r.notes.push_back("set-up attempt " + std::to_string(attempt) +
                      " failed; retrying on fresh ports");
    d.reset();
    std::filesystem::remove_all(c.work_dir);
  }
  return false;
}

/// Set-up seven times (the median is reported); the last deployment stays.
bool deploy_measured(const Args& args, const Shape& shape, Deployment& d,
                     RunResult& r) {
  int counter = 0;
  std::vector<double> times;
  for (int i = 0; i < 7; ++i) {
    d.reset();
    if (!d.work_dir.empty()) std::filesystem::remove_all(d.work_dir);
    const std::int64_t t0 = now_ns();
    if (!deploy(args, shape, counter, d, r)) return false;
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  r.set(r.e2e, "setup_s", median_of(times), "s");
  return true;
}

// -- Server-side sampling over existing connections -------------------------------

class Sampler {
 public:
  Sampler(const Deployment& d, const Shape& shape)
      : shape_(shape), pids_(d.pids) {
    pids_.push_back(static_cast<int>(::getpid()));
    auto code = make_code(shape);
    for (NodeId i = 0; i < shape.n; ++i) codeword_ += code->symbol_bytes(i);
    for (NodeId i = 0; i < shape.n; ++i) {
      auto c = std::make_unique<net::NetClient>(0);
      c->connect(d.cluster->endpoint(i), 2000);
      c->set_io_timeout_ms(2000);
      clients_.push_back(std::move(c));
    }
  }
  ~Sampler() { stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start() {
    first_shards_ = poll_shards();
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(23));
        sample();
      }
    });
  }
  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    last_shards_ = poll_shards();
  }

  /// Medians over the summary's windows of the samples inside them.
  double storage_ratio(const Windows::Summary& s) const {
    return s.median_of_window_means(storage_);
  }
  double rss_mib(const Windows::Summary& s) const {
    return s.median_of_window_means(rss_);
  }
  double history_mean() const { return mean_of(history_); }
  double inqueue_mean() const { return mean_of(inqueue_); }
  /// Busiest shard's share of a server's client ops over the mean share,
  /// averaged over the servers that served clients.
  double shard_imbalance() const {
    double sum = 0;
    int servers = 0;
    for (std::size_t i = 0; i < first_shards_.size() && i < last_shards_.size(); ++i) {
      const auto& a = first_shards_[i];
      const auto& b = last_shards_[i];
      if (a.size() != b.size() || a.empty()) continue;
      double total = 0, peak = 0;
      for (std::size_t s = 0; s < a.size(); ++s) {
        const double ops = static_cast<double>(b[s] - a[s]);
        total += ops;
        peak = std::max(peak, ops);
      }
      if (total <= 0) continue;
      sum += peak / (total / static_cast<double>(a.size()));
      ++servers;
    }
    return servers == 0 ? 0 : sum / servers;
  }

 private:
  using Series = std::vector<std::pair<std::int64_t, double>>;
  std::vector<std::vector<std::uint64_t>> poll_shards() {
    std::vector<std::vector<std::uint64_t>> out;
    for (auto& c : clients_) {
      const auto s = c->stats();
      out.push_back(s.has_value() ? s->shard_ops : std::vector<std::uint64_t>{});
    }
    return out;
  }
  void sample() {
    std::uint64_t hist = 0, inq = 0;
    for (auto& c : clients_) {
      const auto s = c->stats();
      if (!s.has_value()) return;
      hist += s->history_entries;
      inq += s->inqueue_entries;
    }
    // Every history / inqueue entry holds one full value.
    const std::int64_t t = now_ns();
    storage_.emplace_back(
        t, static_cast<double>(codeword_ + (hist + inq) * shape_.value_bytes) /
               static_cast<double>(shape_.k * shape_.value_bytes));
    history_.push_back(static_cast<double>(hist));
    double rss = 0;
    for (int pid : pids_) rss += perfbench::rss_mib(pid);
    rss_.emplace_back(t, rss);
    inqueue_.push_back(static_cast<double>(inq) / static_cast<double>(shape_.n));
  }

  const Shape& shape_;
  std::size_t codeword_ = 0;
  std::vector<std::unique_ptr<net::NetClient>> clients_;
  std::vector<int> pids_;  // the servers and this process
  Series storage_, rss_;
  std::vector<double> history_, inqueue_;
  std::vector<std::vector<std::uint64_t>> first_shards_, last_shards_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// -- End-of-run checks ------------------------------------------------------------------

void finish_checks(const Deployment& d, const Shape& shape, Ledger& ledger,
                   std::size_t final_session) {
  if (!d.cluster->await_convergence(std::chrono::seconds(20))) {
    ledger.fail("servers did not converge within 20 s after the run");
  }
  if (const auto errors = d.cluster->total_error_events(); errors != 0) {
    ledger.fail("Error1/Error2 events: " + std::to_string(errors));
  }
  std::vector<causalec::consistency::OpRecord> finals;
  causalec::OpId opid = 1;
  for (NodeId at = 0; at < shape.n; ++at) {
    net::NetClient c(final_session + 1);
    if (!c.connect(d.cluster->endpoint(at), 2000)) {
      ledger.fail("final read: cannot connect to server " + std::to_string(at));
      continue;
    }
    for (ObjectId x = 0; x < shape.k; ++x) {
      const auto resp = c.read(opid++, x);
      if (!resp.has_value()) {
        ledger.fail("final read failed at server " + std::to_string(at));
        continue;
      }
      ledger.note_read(0, final_session, x,
                       check_value(resp->value.data(), resp->value.size(), x),
                       resp->tag);
      causalec::consistency::OpRecord rec;
      rec.object = x;
      rec.tag = resp->tag;
      rec.server = at;
      finals.push_back(std::move(rec));
    }
  }
  ledger.verify();
  causalec::consistency::History max_writes;
  for (const auto& [x, rec] : ledger.max_writes()) max_writes.record(rec);
  for (const auto& v :
       causalec::consistency::check_convergence(max_writes, finals).violations) {
    ledger.fail("convergence checker: " + v);
  }
}

double ping_us(const Deployment& d) {
  net::NetClient c(0);
  if (!c.connect(d.cluster->endpoint(0), 2000)) return 0;
  std::vector<std::int64_t> rtt;
  for (std::uint64_t i = 1; i <= 2000; ++i) {
    const std::int64_t t0 = now_ns();
    if (!c.ping(i).has_value()) break;
    rtt.push_back(now_ns() - t0);
  }
  return percentile(rtt, 0.5) / 1e3;
}

Value make_value(const Shape& shape, ObjectId object, std::uint64_t session,
                 std::uint64_t seq) {
  Buffer buf = Buffer::alloc_uninit(shape.value_bytes);
  fill_value(buf.mutable_data(), shape.value_bytes, object, session, seq);
  return Value(std::move(buf));
}

void common_layer_metrics(const Args& args, const Shape& shape, Spans& spans,
                          const Deployment& d, const Sampler& sampler,
                          double mean_op_us, RunResult& r) {
  LayerInputs in;
  in.shape = &shape;
  in.seed = args.seed;
  in.work_dir = args.work_dir;
  in.spans = &spans;
  run_layers(in, args.trace, r);
  if (!args.trace) return;
  const double ping = ping_us(d);
  r.set(r.layer, "net.ping_us", ping, "us");
  r.set(r.layer, "net.unaccounted_us",
        mean_op_us - ping - r.layer["causalec.op_us"].value, "us");
  r.set(r.layer, "net.inqueue_depth_mean", sampler.inqueue_mean(), "count");
  r.set(r.layer, "net.history_entries_mean", sampler.history_mean(), "count");
  r.set(r.layer, "net.shard_imbalance", sampler.shard_imbalance(), "ratio");
}

void alloc_metrics(const Buffer::AllocStats& a, const Buffer::AllocStats& b,
                   std::uint64_t ops, RunResult& r) {
  const double fresh = static_cast<double>(b.allocations - a.allocations);
  const double recycled = static_cast<double>(b.recycled - a.recycled);
  r.set(r.layer, "erasure.payload_allocs_per_op",
        ops == 0 ? 0 : fresh / static_cast<double>(ops), "count");
  r.set(r.layer, "erasure.recycle_rate",
        fresh + recycled > 0 ? recycled / (fresh + recycled) : 0, "ratio");
}

// -- Closed loop through the router -------------------------------------------------

struct ClosedResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double seconds = 0;
  LatencyLog log;              // per session; merged runs leave it empty
  Windows::Summary summary;    // the timings of the measured phase
  MeanNs hit_read;             // reads answered by the edge cache
  MeanNs origin_read;          // reads that went to a backend
};

/// One closed-loop RouterClient session per entry of shape.homes, each on
/// its own thread and connection to the router.
class ClosedLoop {
 public:
  ClosedLoop(const Args& args, const Shape& shape, const Deployment& d,
             Ledger& ledger, Spans& spans)
      : args_(args), shape_(shape), d_(d), ledger_(ledger), spans_(spans) {
    for (std::size_t s = 0; s < shape.homes.size(); ++s) {
      sessions_.push_back(std::make_unique<Sess>(shape, args.seed, s));
    }
  }

  /// Runs every session for `seconds`. With `windows`, latencies are
  /// recorded and the phase is cut into windows.
  ClosedResult run(double seconds, Windows* windows) {
    const bool record = windows != nullptr;
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    std::vector<ClosedResult> per(sessions_.size());
    if (record) windows->start();
    const std::int64_t start = now_ns();
    for (std::size_t s = 0; s < sessions_.size(); ++s) {
      if (record) {
        per[s].log.reserve(static_cast<std::size_t>(
            (seconds + 2) * Windows::kSamplesPerWindow));
      }
      threads.emplace_back([&, s] { session_loop(s, stop, per[s], windows); });
    }
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < end) {
      std::this_thread::sleep_for(
          std::min<std::chrono::nanoseconds>(Windows::kWindow,
                                             std::chrono::nanoseconds(end - now_ns())));
      if (record) windows->tick();
    }
    stop.store(true);
    for (auto& t : threads) t.join();
    ClosedResult out;
    out.seconds = static_cast<double>(now_ns() - start) / 1e9;
    if (record) {
      std::vector<const LatencyLog*> logs;
      for (const auto& p : per) logs.push_back(&p.log);
      out.summary = windows->summarize(logs);
    }
    for (auto& p : per) {
      out.ops += p.ops;
      out.failed += p.failed;
      out.hit_read.merge(p.hit_read);
      out.origin_read.merge(p.origin_read);
    }
    return out;
  }

 private:
  struct Sess {
    Sess(const Shape& shape, std::uint64_t seed, std::size_t i)
        : index(i), stream(shape, seed, i), client(i + 1) {}
    std::size_t index;
    OpStream stream;
    std::uint64_t next_seq = 0;
    causalec::OpId next_opid = 1;
    causalec::frontdoor::RouterClient client;
  };

  bool ensure_connected(Sess& s) {
    if (s.client.connected()) return true;
    const auto frontier = s.client.frontier();
    if (!s.client.connect("127.0.0.1:" + std::to_string(d_.router->listen_port()), 2000)) {
      return false;
    }
    s.client.set_frontier(frontier);  // the session survives a reconnect
    s.client.set_io_timeout_ms(10'000);
    return true;
  }

  void session_loop(std::size_t index, std::atomic<bool>& stop,
                    ClosedResult& out, Windows* windows) {
    const bool record = windows != nullptr;
    Sess& s = *sessions_[index];
    const auto tid = static_cast<std::uint32_t>(index);
    while (!stop.load(std::memory_order_relaxed)) {
      if (!ensure_connected(s)) {
        ++out.failed;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      const Op op = s.stream.next();
      const std::uint64_t op_id = spans_.on() ? spans_.new_id() : 0;
      const std::int64_t t0 = now_ns();
      Span root(spans_, tid, "workload.op", op_id);
      // The live causal check needs each op's response clock and bytes.
      const bool witness = ledger_.wants_witness(s.index);
      Witness w;
      w.invoked_ns = t0;
      ++out.ops;
      if (op.is_write) {
        const std::uint64_t seq = s.next_seq;
        Value value = make_value(shape_, op.object, s.index, seq);
        if (witness) {
          w.value_hash = causalec::consistency::hash_value_bytes(value.span());
        }
        ledger_.note_issue(s.index, seq);
        std::optional<net::WriteResp> resp;
        {
          Span call(spans_, tid, "frontdoor.request", op_id, root.id());
          resp = s.client.write(s.next_opid++, op.object, std::move(value));
        }
        // A failed write's fate is unknown; its seq is not reused.
        ++s.next_seq;
        if (!resp.has_value()) {
          ++out.failed;
          ledger_.note_failure(s.index, t0);
          continue;
        }
        w.done_ns = now_ns();
        w.ts = std::move(resp->vc);
        ledger_.note_write(tid, s.index, seq, op.object, resp->tag,
                           witness ? &w : nullptr);
        if (record) windows->record(index, out.log, true, w.done_ns - t0);
      } else {
        std::optional<net::RoutedReadResp> resp;
        {
          Span call(spans_, tid, "frontdoor.request", op_id, root.id());
          resp = s.client.read(s.next_opid++, op.object);
        }
        if (!resp.has_value()) {
          ++out.failed;
          ledger_.note_failure(s.index, t0);
          continue;
        }
        w.done_ns = now_ns();
        Value& value = resp->value;
        if (should_corrupt_read(args_) && !value.empty()) {
          value.mutable_span()[value.size() / 2] ^= 0x5A;
        }
        if (witness) {
          w.value_hash = causalec::consistency::hash_value_bytes(value.span());
          w.ts = std::move(resp->vc);
        }
        ledger_.note_read(tid, s.index, op.object,
                          check_value(value.data(), value.size(), op.object),
                          resp->tag, witness ? &w : nullptr);
        const std::int64_t lat = w.done_ns - t0;
        if (record) {
          (resp->cached ? out.hit_read : out.origin_read).add(lat);
          windows->record(index, out.log, false, lat);
        }
      }
    }
  }

  const Args& args_;
  const Shape& shape_;
  const Deployment& d_;
  Ledger& ledger_;
  Spans& spans_;
  std::vector<std::unique_ptr<Sess>> sessions_;
};

}  // namespace

RunResult run_routed(const Args& args, const Shape& shape, Spans& spans) {
  RunResult r;
  Deployment d;
  if (!deploy_measured(args, shape, d, r)) {
    r.violations.push_back("could not start the server processes");
    return r;
  }
  Ledger ledger(shape.homes.size() + 1);
  Sampler sampler(d, shape);
  ClosedResult main, traced;
  Buffer::AllocStats a0, a1;
  net::RouterStatsResp rs0, rs1;
  {
    ClosedLoop load(args, shape, d, ledger, spans);
    load.run(0.5, nullptr);  // warm-up
    rs0 = d.router->stats();
    a0 = Buffer::alloc_stats();
    sampler.start();
    Windows windows(shape.homes.size());
    main = load.run(args.trace ? args.seconds / 2 : args.seconds, &windows);
    sampler.stop();
    a1 = Buffer::alloc_stats();
    rs1 = d.router->stats();
    if (args.trace) {
      spans.set_on(true);
      traced = load.run(args.seconds / 2, nullptr);
      spans.set_on(false);
    }
  }
  r.attempted = main.ops + traced.ops;
  r.failed = main.failed + traced.failed;
  finish_checks(d, shape, ledger, shape.homes.size());
  r.violations = ledger.violations();
  r.notes.push_back("causal checker: " +
                    std::to_string(ledger.causally_checked()) +
                    " live ops (the first of every session)");

  add_window_metrics(main.summary, shape.name, r);
  r.set(r.e2e, "storage_bytes_per_user_byte",
        sampler.storage_ratio(main.summary), "ratio");
  r.set(r.e2e, "rss_mib", sampler.rss_mib(main.summary), "MiB");

  if (args.trace) {
    alloc_metrics(a0, a1, main.ops, r);
    const auto rate = [](const ClosedResult& c) {
      return static_cast<double>(c.ops - c.failed) / c.seconds;
    };
    r.set(r.layer, "obs.trace_overhead",
          traced.ops == 0 ? 0 : rate(main) / rate(traced), "ratio");
    const double reads = static_cast<double>(rs1.routed_reads - rs0.routed_reads);
    r.set(r.layer, "frontdoor.hit_rate",
          reads == 0 ? 0 : static_cast<double>(rs1.cache_hits - rs0.cache_hits) / reads,
          "ratio");
    r.set(r.layer, "frontdoor.stale_rate",
          reads == 0 ? 0 : static_cast<double>(rs1.cache_stale - rs0.cache_stale) / reads,
          "ratio");
    r.set(r.layer, "frontdoor.hit_read_us", main.hit_read.mean_us(), "us");
    r.set(r.layer, "frontdoor.origin_read_us", main.origin_read.mean_us(), "us");
  }
  common_layer_metrics(args, shape, spans, d, sampler,
                       main.summary.mean_op_ns / 1e3, r);
  d.reset();
  return r;
}

}  // namespace perfbench
