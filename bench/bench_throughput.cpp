// E2b -- The Sec. 1.1 Little's-law throughput argument, measured.
//
// The paper: "Due to Little's law, we use the average latency as a
// proportional estimate for the average throughput... the erasure coding
// based data store is likely to have a much lower throughput (66%) of the
// replication-based scheme" -- 88.25 / 132.5 = 0.666.
//
// We run identical closed-loop client populations (read-only, uniform over
// DCs and groups, zero think time) against all three designs on the Fig. 1
// network and report measured ops/s. With closed loops, throughput is
// sessions / avg-latency, so the measured ratios reproduce the claim
// directly from live executions.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/intra_object_store.h"
#include "baselines/replicated_store.h"
#include "causalec/cluster.h"
#include "erasure/buffer.h"
#include "erasure/codes.h"
#include "obs/bench_report.h"
#include "placement/rtt_matrix.h"
#include "runtime/threaded_cluster.h"
#include "sim/latency.h"
#include "workload/driver.h"

using namespace causalec;
using erasure::Value;
using sim::kMillisecond;
using sim::kSecond;

namespace {

constexpr std::size_t kValueBytes = 1024;
constexpr std::size_t kGroups = 4;
constexpr std::size_t kDcs = 6;
constexpr SimTime kRunFor = 60 * kSecond;
constexpr int kSessionsPerDc = 4;

struct Throughput {
  double ops_per_s = 0;
  double avg_read_ms = 0;
};

Throughput drive(sim::Simulation& sim,
                 const std::function<void(NodeId, ObjectId,
                                          std::function<void()>)>& read) {
  workload::OpMix mix;
  mix.write_fraction = 0.0;  // read-only: the latency-vs-throughput claim
  auto picker = std::make_shared<workload::KeyPicker>(kGroups, 0.0, 11);
  // Near-zero think time: sessions are always busy.
  workload::ClosedLoopDriver driver(&sim, mix, picker, /*think_rate_hz=*/1e5,
                                    13);
  for (NodeId dc = 0; dc < kDcs; ++dc) {
    for (int c = 0; c < kSessionsPerDc; ++c) {
      workload::ClosedLoopDriver::Session session;
      session.issue_write = [](ObjectId, std::function<void()> done) {
        done();
      };
      session.issue_read = [&read, dc](ObjectId g,
                                       std::function<void()> done) {
        read(dc, g, std::move(done));
      };
      driver.add_session(std::move(session));
    }
  }
  const SimTime start = sim.now();
  driver.start(start + kRunFor);
  sim.run_until(start + kRunFor + 10 * kSecond);
  Throughput out;
  const auto& stats = driver.stats();
  out.ops_per_s = static_cast<double>(stats.read_latencies.size()) /
                  (static_cast<double>(kRunFor) / 1e9);
  out.avg_read_ms = workload::DriverStats::mean_ms(stats.read_latencies);
  return out;
}

Throughput run_partial() {
  sim::Simulation sim(
      sim::MatrixLatency::from_rtt_ms(placement::six_dc_rtt_ms()), 1);
  baselines::ReplicatedStoreConfig config;
  config.num_objects = kGroups;
  config.value_bytes = kValueBytes;
  config.placement = {{0}, {1}, {0}, {1}, {3}, {2}};
  config.rtt_ms = placement::six_dc_rtt_ms();
  baselines::ReplicatedStore store(&sim, std::move(config));
  for (ObjectId g = 0; g < kGroups; ++g) {
    store.write(g % kDcs, g, Value(kValueBytes, 1));
  }
  sim.run_until_idle();
  return drive(sim, [&](NodeId dc, ObjectId g, std::function<void()> done) {
    store.read(dc, g, [done](const Value&, const Tag&) { done(); });
  });
}

Throughput run_intra() {
  sim::Simulation sim(
      sim::MatrixLatency::from_rtt_ms(placement::six_dc_rtt_ms()), 1);
  baselines::IntraObjectStoreConfig config;
  config.num_servers = kDcs;
  config.num_objects = kGroups;
  config.value_bytes = kValueBytes;
  config.k = 4;
  config.rtt_ms = placement::six_dc_rtt_ms();
  baselines::IntraObjectStore store(&sim, std::move(config));
  for (ObjectId g = 0; g < kGroups; ++g) {
    store.write(g % kDcs, g, Value(kValueBytes, 1));
  }
  sim.run_until_idle();
  return drive(sim, [&](NodeId dc, ObjectId g, std::function<void()> done) {
    store.read(dc, g, [done](const Value&, const Tag&) { done(); });
  });
}

Throughput run_causalec() {
  ClusterConfig config;
  config.gc_period = 500 * kMillisecond;
  config.server.fanout = ReadFanout::kNearestRecoverySet;
  config.proximity_matrix = placement::six_dc_rtt_ms();
  auto cluster = std::make_unique<Cluster>(
      erasure::make_six_dc_cross_object(kValueBytes),
      sim::MatrixLatency::from_rtt_ms(placement::six_dc_rtt_ms()), config);
  for (ObjectId g = 0; g < kGroups; ++g) {
    cluster->make_client(g % kDcs).write(g, Value(kValueBytes, 1));
  }
  cluster->settle();
  auto result = drive(
      cluster->sim(),
      [c = cluster.get()](NodeId dc, ObjectId g, std::function<void()> done) {
        c->make_client(dc).read(
            g,
            [done](const Value&, const Tag&, const VectorClock&) { done(); });
      });
  (void)cluster.release();  // bench exits immediately after
  return result;
}

// ---------------------------------------------------------------------------
// --saturate: the threaded runtime under a multi-client closed loop.
//
// Unlike the simulated Little's-law runs above, this drives the real
// ThreadedCluster (one OS thread per server, codec bytes on every hop) with
// blocking clients on external threads, so the measured ops/s reflects the
// actual per-hop serialization / copy / mailbox cost of the data path.
// ---------------------------------------------------------------------------

constexpr std::size_t kSatValueBytes = 4096;

struct SaturateResult {
  double ops_per_s = 0;
  double writes_per_s = 0;
  double reads_per_s = 0;
  double seconds = 0;
  int clients = 0;
  double payload_allocs_per_op = 0;  // fresh Buffer arenas per operation
  double payload_alloc_mib_per_s = 0;
  double payload_recycle_rate = 0;  // pool hits / (pool hits + fresh arenas)
  // Headroom below the 1-malloc-per-op line (higher is better, so the
  // baseline gate can pin a floor on it): 1 - allocs/op, clamped at 0.
  double alloc_headroom = 0;
};

SaturateResult run_saturate(bool smoke) {
  using namespace std::chrono_literals;
  runtime::ThreadedClusterConfig config;
  config.gc_period = 10ms;
  runtime::ThreadedCluster cluster(
      erasure::make_six_dc_cross_object(kSatValueBytes), config);
  const std::size_t n = cluster.num_servers();
  const auto num_objects = static_cast<ObjectId>(kGroups);
  const int clients = static_cast<int>(2 * n);
  const auto warmup = smoke ? 200ms : 500ms;
  const auto measure = smoke ? 1000ms : 4000ms;

  // Seed every object so reads never race an empty store.
  for (ObjectId g = 0; g < num_objects; ++g) {
    cluster.write(static_cast<NodeId>(g % n), /*client=*/1, g,
                  Value(kSatValueBytes, static_cast<std::uint8_t>(g + 1)));
  }
  cluster.await_convergence(5000ms);

  std::atomic<bool> counting{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      const NodeId at = static_cast<NodeId>(t % n);
      const ClientId client = 100 + static_cast<ClientId>(t);
      const auto object = static_cast<ObjectId>(t % num_objects);
      const Value payload(kSatValueBytes, static_cast<std::uint8_t>(t + 1));
      bool do_write = (t % 2) == 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (do_write) {
          cluster.write(at, client, object, payload);
          if (counting.load(std::memory_order_relaxed)) {
            writes.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          (void)cluster.read(at, client, object);
          if (counting.load(std::memory_order_relaxed)) {
            reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
        do_write = !do_write;
      }
    });
  }
  std::this_thread::sleep_for(warmup);
  const auto alloc_before = erasure::Buffer::alloc_stats();
  const auto start = std::chrono::steady_clock::now();
  counting.store(true);
  std::this_thread::sleep_for(measure);
  counting.store(false);
  const auto end = std::chrono::steady_clock::now();
  const auto alloc_after = erasure::Buffer::alloc_stats();
  stop.store(true);
  for (auto& th : threads) th.join();

  SaturateResult out;
  out.seconds = std::chrono::duration<double>(end - start).count();
  out.clients = clients;
  out.writes_per_s = static_cast<double>(writes.load()) / out.seconds;
  out.reads_per_s = static_cast<double>(reads.load()) / out.seconds;
  out.ops_per_s = out.writes_per_s + out.reads_per_s;
  const double ops = static_cast<double>(writes.load() + reads.load());
  if (ops > 0) {
    out.payload_allocs_per_op =
        static_cast<double>(alloc_after.allocations -
                            alloc_before.allocations) / ops;
  }
  out.alloc_headroom = std::max(0.0, 1.0 - out.payload_allocs_per_op);
  const double fresh = static_cast<double>(alloc_after.allocations -
                                           alloc_before.allocations);
  const double recycled =
      static_cast<double>(alloc_after.recycled - alloc_before.recycled);
  if (fresh + recycled > 0) {
    out.payload_recycle_rate = recycled / (fresh + recycled);
  }
  out.payload_alloc_mib_per_s =
      static_cast<double>(alloc_after.bytes - alloc_before.bytes) /
      (1024.0 * 1024.0) / out.seconds;
  return out;
}

int main_saturate(bool smoke) {
  std::printf("E2b --saturate: threaded runtime, %zu-byte values, "
              "closed-loop blocking clients (50/50 write/read)\n\n",
              kSatValueBytes);
  const SaturateResult r = run_saturate(smoke);
  std::printf("%-24s %12s %12s %12s %14s %14s %14s\n", "row", "ops/s",
              "writes/s", "reads/s", "allocs/op", "alloc MiB/s",
              "recycle rate");
  std::printf("%-24s %12.1f %12.1f %12.1f %14.2f %14.1f %14.3f\n", "saturate",
              r.ops_per_s, r.writes_per_s, r.reads_per_s,
              r.payload_allocs_per_op, r.payload_alloc_mib_per_s,
              r.payload_recycle_rate);

  obs::BenchReport report("throughput");
  report.set_config("mode", "saturate");
  report.set_config("smoke", smoke);
  report.set_config("value_bytes", kSatValueBytes);
  report.set_config("clients", r.clients);
  report.set_config("measured_s", r.seconds);
  report.add_row("saturate")
      .metric("ops_per_s", r.ops_per_s)
      .metric("writes_per_s", r.writes_per_s)
      .metric("reads_per_s", r.reads_per_s)
      .metric("payload_allocs_per_op", r.payload_allocs_per_op)
      .metric("payload_alloc_mib_per_s", r.payload_alloc_mib_per_s)
      .metric("payload_recycle_rate", r.payload_recycle_rate)
      .metric("alloc_headroom", r.alloc_headroom);
  report.write_default();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool saturate = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--saturate") == 0) saturate = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (saturate) return main_saturate(smoke);
  std::printf("E2b: Little's-law throughput (Sec. 1.1) -- %d closed-loop "
              "read sessions per DC, 60 s\n\n", kSessionsPerDc);
  std::printf("%-24s %12s %12s %14s\n", "scheme", "ops/s", "avg ms",
              "vs partial");
  const Throughput partial = run_partial();
  const Throughput intra = run_intra();
  const Throughput cross = run_causalec();
  std::printf("%-24s %12.1f %12.2f %13.0f%%\n", "partial replication",
              partial.ops_per_s, partial.avg_read_ms, 100.0);
  std::printf("%-24s %12.1f %12.2f %13.0f%%\n", "intra-object RS(6,4)",
              intra.ops_per_s, intra.avg_read_ms,
              100.0 * intra.ops_per_s / partial.ops_per_s);
  std::printf("%-24s %12.1f %12.2f %13.0f%%\n", "cross-object CausalEC",
              cross.ops_per_s, cross.avg_read_ms,
              100.0 * cross.ops_per_s / partial.ops_per_s);

  obs::BenchReport report("throughput");
  report.set_config("value_bytes", kValueBytes);
  report.set_config("sessions_per_dc", kSessionsPerDc);
  report.set_config("run_for_s", static_cast<double>(kRunFor) / 1e9);
  const auto add = [&report, &partial](const char* name,
                                       const Throughput& t) {
    report.add_row(name)
        .metric("ops_per_s", t.ops_per_s)
        .metric("avg_read_ms", t.avg_read_ms)
        .metric("vs_partial", t.ops_per_s / partial.ops_per_s);
  };
  add("partial replication", partial);
  add("intra-object RS(6,4)", intra);
  add("cross-object CausalEC", cross);
  report.write_default();
  std::printf("\npaper: intra-object throughput ~66%% of replication "
              "(88.25/132.5); cross-object ~parity.\n");
  return 0;
}
