// inproc-write-64k: runtime::ThreadedCluster on the six-DC cross-object
// code, closed-loop sessions pinned to home servers, no sockets.
#include <unistd.h>

#include <thread>

#include "bench.h"
#include "consistency/causal_checker.h"
#include "erasure/buffer.h"
#include "obs/metrics.h"
#include "runtime/threaded_cluster.h"

namespace perfbench {

namespace {

using causalec::erasure::Buffer;
using causalec::erasure::Value;
using causalec::runtime::ThreadedCluster;
using causalec::runtime::ThreadedClusterConfig;

struct Session {
  std::size_t index = 0;
  NodeId home = 0;
  OpStream stream;
  std::uint64_t next_seq = 0;
  LatencyLog log;
  std::uint64_t ops = 0;
};

constexpr auto kSamplePeriod = std::chrono::milliseconds(7);

struct PhaseResult {
  std::uint64_t ops = 0;
  double seconds = 0;
  // (time, value) samples taken every window.
  std::vector<std::pair<std::int64_t, double>> storage_ratio;
  std::vector<std::pair<std::int64_t, double>> rss_mib;
};

/// Runs every session closed-loop for `seconds`; samples storage and RSS
/// from the calling thread meanwhile, every kSamplePeriod: the servers
/// collect garbage every 20 ms, so a period that does not divide it keeps
/// the samples from locking onto one phase of that cycle.
PhaseResult run_phase(const Args& args, const Shape& shape,
                      ThreadedCluster& cluster, std::vector<Session>& sessions,
                      Ledger& ledger, Spans& spans, double seconds,
                      Windows* windows) {
  const bool record_latency = windows != nullptr;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  if (windows != nullptr) windows->start();
  const std::int64_t start = now_ns();
  for (Session& s : sessions) {
    s.ops = 0;
    if (record_latency) {
      s.log.reserve(static_cast<std::size_t>(
          (seconds + 2) * Windows::kSamplesPerWindow));
    }
    threads.emplace_back([&, sp = &s] {
      Session& s = *sp;
      const auto tid = static_cast<std::uint32_t>(s.index);
      const ClientId client = s.index + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const Op op = s.stream.next();
        const std::uint64_t op_id = spans.on() ? spans.new_id() : 0;
        const std::int64_t t0 = now_ns();
        Span root(spans, tid, "workload.op", op_id);
        if (op.is_write) {
          const std::uint64_t seq = s.next_seq++;
          Buffer buf = Buffer::alloc_uninit(shape.value_bytes);
          fill_value(buf.mutable_data(), shape.value_bytes, op.object,
                     s.index, seq);
          Tag tag;
          ledger.note_issue(s.index, seq);
          {
            Span call(spans, tid, "runtime.write", op_id, root.id());
            tag = cluster.write(s.home, client, op.object,
                                Value(std::move(buf)));
          }
          ledger.note_write(tid, s.index, seq, op.object, tag);
          if (record_latency) {
            windows->record(s.index, s.log, true, now_ns() - t0);
          }
        } else {
          std::pair<Value, Tag> got;
          {
            Span call(spans, tid, "runtime.read", op_id, root.id());
            got = cluster.read(s.home, client, op.object);
          }
          Value& value = got.first;
          if (should_corrupt_read(args) && !value.empty()) {
            value.mutable_span()[value.size() / 2] ^= 0x5A;
          }
          ledger.note_read(tid, s.index, op.object,
                           check_value(value.data(), value.size(), op.object),
                           got.second);
          if (record_latency) {
            windows->record(s.index, s.log, false, now_ns() - t0);
          }
        }
        ++s.ops;
      }
    });
  }
  const auto code = make_code(shape);
  std::size_t codeword = 0;
  for (NodeId i = 0; i < shape.n; ++i) codeword += code->symbol_bytes(i);
  PhaseResult out;
  const int self = static_cast<int>(::getpid());
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t window_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Windows::kWindow).count();
  std::int64_t next_tick = start + window_ns;
  while (now_ns() < end) {
    std::this_thread::sleep_for(kSamplePeriod);
    if (windows != nullptr && now_ns() >= next_tick) {
      windows->tick();
      next_tick += window_ns;
    }
    std::size_t bytes = codeword;
    for (NodeId i = 0; i < shape.n; ++i) {
      const auto st = cluster.storage(i);
      bytes += st.history_bytes + st.inqueue_bytes;
    }
    const std::int64_t t = now_ns();
    out.storage_ratio.emplace_back(
        t, static_cast<double>(bytes) /
               static_cast<double>(shape.k * shape.value_bytes));
    out.rss_mib.emplace_back(t, rss_mib(self));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  out.seconds = static_cast<double>(now_ns() - start) / 1e9;
  for (const Session& s : sessions) out.ops += s.ops;
  return out;
}

}  // namespace

RunResult run_inproc(const Args& args, const Shape& shape, Spans& spans) {
  RunResult r;
  causalec::obs::MetricsRegistry registry;
  ThreadedClusterConfig config;
  if (args.trace) config.obs.metrics = &registry;

  // Set-up: build the code and start the cluster's node threads. It takes
  // well under a millisecond, so one host hiccup would dominate a single
  // sample: it is done 100 times, 10 ms apart, and the median is reported.
  // The last cluster is used.
  std::vector<double> setups;
  std::unique_ptr<ThreadedCluster> cluster;
  causalec::erasure::CodePtr code;
  for (int i = 0; i < 100; ++i) {
    cluster.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::int64_t t0 = now_ns();
    code = make_code(shape);
    cluster = std::make_unique<ThreadedCluster>(code, config);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const std::size_t num_sessions = shape.homes.size();
  Ledger ledger(num_sessions + 1);  // the last session makes the final reads
  std::vector<Session> sessions;
  for (std::size_t i = 0; i < num_sessions; ++i) {
    sessions.push_back(Session{i, shape.homes[i], OpStream(shape, args.seed, i),
                               0, {}, 0});
  }

  run_phase(args, shape, *cluster, sessions, ledger, spans, 0.5, nullptr);
  const double measured = args.trace ? args.seconds / 2 : args.seconds;
  const auto allocs0 = Buffer::alloc_stats();
  Windows windows(num_sessions);
  const PhaseResult main =
      run_phase(args, shape, *cluster, sessions, ledger, spans, measured, &windows);
  const auto allocs1 = Buffer::alloc_stats();
  PhaseResult traced;
  if (args.trace) {
    spans.set_on(true);
    traced = run_phase(args, shape, *cluster, sessions, ledger, spans,
                       args.seconds / 2, nullptr);
    spans.set_on(false);
  }
  r.attempted = main.ops + traced.ops;

  // End-of-run correctness: convergence, Error1/Error2, final reads.
  if (!cluster->await_convergence(std::chrono::seconds(20))) {
    ledger.fail("cluster did not converge within 20 s after the run");
  }
  if (const auto errors = cluster->total_error_events(); errors != 0) {
    ledger.fail("Error1/Error2 events: " + std::to_string(errors));
  }
  std::vector<causalec::consistency::OpRecord> finals;
  for (NodeId at = 0; at < shape.n; ++at) {
    for (ObjectId x = 0; x < shape.k; ++x) {
      auto [value, tag] = cluster->read(at, num_sessions + 1, x);
      ledger.note_read(0, num_sessions, x,
                       check_value(value.data(), value.size(), x), tag);
      causalec::consistency::OpRecord rec;
      rec.object = x;
      rec.tag = tag;
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
  r.violations = ledger.violations();

  std::vector<const LatencyLog*> logs;
  for (const Session& s : sessions) logs.push_back(&s.log);
  const Windows::Summary summary = windows.summarize(logs);
  add_window_metrics(summary, shape.name, r);
  r.set(r.e2e, "storage_bytes_per_user_byte",
        summary.median_of_window_means(main.storage_ratio), "ratio");
  r.set(r.e2e, "setup_s", median_of(setups), "s");

  if (args.trace) {
    const double ops = static_cast<double>(main.ops);
    const double fresh = static_cast<double>(allocs1.allocations - allocs0.allocations);
    const double recycled = static_cast<double>(allocs1.recycled - allocs0.recycled);
    r.set(r.layer, "erasure.payload_allocs_per_op", fresh / ops, "count");
    r.set(r.layer, "erasure.recycle_rate",
          fresh + recycled > 0 ? recycled / (fresh + recycled) : 0, "ratio");
    r.set(r.layer, "runtime.write_us", spans.mean_us("runtime.write"), "us");
    r.set(r.layer, "runtime.read_us", spans.mean_us("runtime.read"), "us");
    const auto snap = registry.snapshot();
    if (auto it = snap.histograms.find("phase.queue_wait_ns");
        it != snap.histograms.end()) {
      r.set(r.layer, "runtime.queue_wait_us", it->second.mean() / 1e3, "us");
    }
    r.set(r.layer, "obs.trace_overhead",
          traced.ops == 0 ? 0
                          : (static_cast<double>(main.ops) / main.seconds) /
                                (static_cast<double>(traced.ops) / traced.seconds),
          "ratio");
  }
  r.set(r.e2e, "rss_mib", summary.median_of_window_means(main.rss_mib),
        "MiB");

  LayerInputs in;
  in.shape = &shape;
  in.seed = args.seed;
  in.work_dir = args.work_dir;
  in.spans = &spans;
  in.probe_runtime = false;  // measured on the live run above
  in.probe_ping = true;
  run_layers(in, args.trace, r);
  if (args.trace) {
    r.set(r.layer, "erasure.plan_cache_hit_rate",
          code->decode_plan_cache_stats().hit_rate(), "ratio");
  }
  return r;
}

}  // namespace perfbench
