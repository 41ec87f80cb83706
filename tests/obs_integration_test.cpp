// End-to-end observability: a traced simulated cluster must produce span
// counts that agree exactly with the ServerCounters the protocol already
// keeps, the metrics registry must mirror them, and the storage sampler
// must record the transient-storage time series. A second test drives the
// threaded runtime against the same (thread-safe) sinks.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>

#include "causalec/cluster.h"
#include "common/random.h"
#include "erasure/codes.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "runtime/threaded_cluster.h"
#include "sim/latency.h"

namespace causalec {
namespace {

using erasure::Value;
using sim::kMillisecond;
using sim::kSecond;

ServerCounters sum_counters(Cluster& cluster) {
  ServerCounters total;
  for (NodeId s = 0; s < cluster.num_servers(); ++s) {
    const ServerCounters& c = cluster.server(s).counters();
    total.writes += c.writes;
    total.reads += c.reads;
    total.reads_served_from_history += c.reads_served_from_history;
    total.reads_served_local_decode += c.reads_served_local_decode;
    total.reads_registered_remote += c.reads_registered_remote;
    total.internal_reads_started += c.internal_reads_started;
    total.reencodes += c.reencodes;
    total.gc_runs += c.gc_runs;
    total.history_entries_collected += c.history_entries_collected;
  }
  return total;
}

TEST(ObsIntegrationTest, SpanCountsMatchServerCounters) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::TimeSeries series(Cluster::storage_series_columns());

  ClusterConfig config;
  config.gc_period = 50 * kMillisecond;
  config.seed = 5;
  config.obs.tracer = &tracer;
  config.obs.metrics = &metrics;
  config.storage_series = &series;
  config.storage_sample_period = 20 * kMillisecond;
  auto cluster = std::make_unique<Cluster>(
      erasure::make_systematic_rs(5, 3, 64),
      std::make_unique<sim::ConstantLatency>(5 * kMillisecond), config);

  // Seeded write mix from every server, then remote reads from the parity
  // servers (which never hold an uncoded copy, forcing the read protocol).
  Rng rng(42);
  std::vector<Client*> writers;
  for (NodeId s = 0; s < 5; ++s) writers.push_back(&cluster->make_client(s));
  for (int op = 0; op < 40; ++op) {
    writers[rng.next_below(5)]->write(
        static_cast<ObjectId>(rng.next_below(3)),
        Value(64, static_cast<std::uint8_t>(rng.next_u64())));
    cluster->run_for(rng.next_below(15) * kMillisecond);
  }
  cluster->settle();

  int completed_reads = 0;
  for (int i = 0; i < 12; ++i) {
    cluster->make_client(static_cast<NodeId>(3 + i % 2))
        .read(static_cast<ObjectId>(i % 3),
              [&completed_reads](const Value&, const Tag&,
                                 const VectorClock&) { ++completed_reads; });
    cluster->run_for(kSecond);
  }
  cluster->settle();
  EXPECT_EQ(completed_reads, 12);

  const ServerCounters total = sum_counters(*cluster);
  EXPECT_GT(total.reads_registered_remote, 0u);

  // Spans agree exactly with the protocol's own counters.
  EXPECT_EQ(tracer.count("write", 'X'), total.writes);
  EXPECT_EQ(tracer.count("read", 'X') + tracer.count("read.remote", 'b'),
            total.reads);
  EXPECT_EQ(tracer.count("read.remote", 'b'), total.reads_registered_remote);
  EXPECT_EQ(tracer.count("read.remote", 'e'),
            tracer.count("read.remote", 'b'));
  EXPECT_EQ(tracer.count("read.internal", 'b'),
            total.internal_reads_started);
  EXPECT_EQ(tracer.count("read.internal", 'e'),
            tracer.count("read.internal", 'b'));
  EXPECT_EQ(tracer.count("reencode", 'i'), total.reencodes);
  EXPECT_EQ(tracer.count("gc", 'X'), total.gc_runs);

  // Message events agree with the simulator's accounting, one send and one
  // delivery per message (no server was halted).
  const auto& net = cluster->sim().stats();
  EXPECT_EQ(tracer.count("msg.send", 'i'), net.total_messages);
  EXPECT_EQ(tracer.count("msg.deliver", 'i'), net.total_messages);

  // The metrics registry mirrors both.
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("server.writes"), total.writes);
  EXPECT_EQ(snap.counters.at("server.reads"), total.reads);
  EXPECT_EQ(snap.counters.at("server.reads_remote"),
            total.reads_registered_remote);
  EXPECT_EQ(snap.counters.at("server.reencodes"), total.reencodes);
  EXPECT_EQ(snap.counters.at("server.gc_collected"),
            total.history_entries_collected);
  EXPECT_EQ(snap.counters.at("net.messages"), net.total_messages);
  EXPECT_EQ(snap.counters.at("net.bytes"), net.total_bytes);
  // Every completed read observed one end-to-end latency sample.
  EXPECT_EQ(snap.histograms.at("server.read_latency_ns").count, total.reads);
  EXPECT_EQ(snap.histograms.at("server.write_bytes").count, total.writes);

  // The storage sampler recorded per-server rows of the right shape.
  EXPECT_GT(series.size(), 0u);
  for (const auto& row : series.rows()) {
    EXPECT_LT(row.node, 5u);
    EXPECT_EQ(row.values.size(), Cluster::storage_series_columns().size());
  }

  // And the whole trace exports as well-formed Chrome JSON.
  EXPECT_EQ(tracer.dropped(), 0u);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  EXPECT_TRUE(obs::is_valid_json(out.str()));
}

TEST(ObsIntegrationTest, ThreadedClusterSharesSinksAcrossNodeThreads) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;

  runtime::ThreadedClusterConfig config;
  config.gc_period = std::chrono::milliseconds(10);
  config.obs.tracer = &tracer;
  config.obs.metrics = &metrics;
  runtime::ThreadedCluster cluster(erasure::make_systematic_rs(5, 3, 32),
                                   config);

  constexpr int kWrites = 20;
  for (int i = 0; i < kWrites; ++i) {
    cluster.write(static_cast<NodeId>(i % 5), /*client=*/1,
                  static_cast<ObjectId>(i % 3),
                  Value(32, static_cast<std::uint8_t>(i)));
  }
  for (ObjectId x = 0; x < 3; ++x) {
    const auto [value, tag] = cluster.read(/*at=*/4, /*client=*/2, x);
    EXPECT_EQ(value.size(), 32u);
  }
  EXPECT_TRUE(
      cluster.await_convergence(std::chrono::milliseconds(5000)));

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("server.writes"), kWrites);
  EXPECT_EQ(snap.counters.at("server.reads"), 3u);
  EXPECT_GT(snap.counters.at("net.messages"), 0u);
  // The per-type counters partition the totals (each send counts once in
  // net.messages.<type> and once in net.messages, likewise for bytes).
  std::uint64_t typed_messages = 0, typed_bytes = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.starts_with("net.messages.")) typed_messages += value;
    if (name.starts_with("net.bytes.")) typed_bytes += value;
  }
  EXPECT_GT(snap.counters.at("net.messages.app"), 0u);
  EXPECT_EQ(typed_messages, snap.counters.at("net.messages"));
  EXPECT_EQ(typed_bytes, snap.counters.at("net.bytes"));
  EXPECT_EQ(tracer.count("write", 'X'), kWrites);
  EXPECT_EQ(tracer.count("msg.send", 'i'),
            snap.counters.at("net.messages"));
  EXPECT_GT(tracer.count("msg.deliver", 'i'), 0u);

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  EXPECT_TRUE(obs::is_valid_json(out.str()));
}

}  // namespace
}  // namespace causalec
