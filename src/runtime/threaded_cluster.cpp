#include "runtime/threaded_cluster.h"

#include <future>
#include <thread>

#include "causalec/codec.h"
#include "common/expect.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace causalec::runtime {

namespace {

using Clock = std::chrono::steady_clock;

SimTime to_ns(Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

}  // namespace

ThreadedCluster::ThreadedCluster(erasure::CodePtr code,
                                 ThreadedClusterConfig config)
    : code_(std::move(code)), config_(std::move(config)) {
  if (config_.obs.tracer != nullptr) {
    config_.server.obs.tracer = config_.obs.tracer;
  }
  if (config_.obs.metrics != nullptr) {
    config_.server.obs.metrics = config_.obs.metrics;
    m_serialize_ = &config_.obs.metrics->histogram("phase.serialize_ns");
  }
  const std::size_t n = code_->num_servers();
  AutomatonHostOptions options;
  options.gc_period = config_.gc_period;
  options.snapshot_period = config_.snapshot_period;
  options.obs = config_.obs;
  Outbound* outbound = this;
  nodes_.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    nodes_.push_back(std::make_unique<AutomatonHost>(s, code_, config_.server,
                                                     outbound, options));
  }
  if (config_.persistence != nullptr) {
    journals_.reserve(n);
    for (NodeId s = 0; s < n; ++s) {
      std::string key = "s";
      key += std::to_string(s);
      journals_.push_back(std::make_unique<persist::Journal>(
          config_.persistence, std::move(key)));
      nodes_[s]->attach_journal(journals_[s].get());
    }
  }
  for (auto& node : nodes_) node->start();
}

ThreadedCluster::~ThreadedCluster() {
  for (auto& node : nodes_) node->stop();
}

std::size_t ThreadedCluster::num_servers() const { return nodes_.size(); }

const ThreadedCluster::TypeCounters& ThreadedCluster::type_counters(
    const char* type) {
  for (const TypeCounters& slot : type_counters_) {
    const char* seen = slot.type.load(std::memory_order_acquire);
    if (seen == type) return slot;
    if (seen == nullptr) break;
  }
  std::lock_guard<std::mutex> lock(type_counters_mu_);
  obs::MetricsRegistry& metrics = *config_.obs.metrics;
  if (m_messages_ == nullptr) {
    m_messages_ = &metrics.counter("net.messages");
    m_bytes_ = &metrics.counter("net.bytes");
  }
  for (TypeCounters& slot : type_counters_) {
    const char* seen = slot.type.load(std::memory_order_relaxed);
    if (seen == type) return slot;
    if (seen != nullptr) continue;
    slot.messages = &metrics.counter(std::string("net.messages.") + type);
    slot.bytes = &metrics.counter(std::string("net.bytes.") + type);
    slot.type.store(type, std::memory_order_release);
    return slot;
  }
  CEC_CHECK_MSG(false, "note_send: more than " << type_counters_.size()
                                               << " message types");
  return type_counters_.front();
}

void ThreadedCluster::note_send(NodeId from, NodeId to,
                                const sim::Message& message) {
  const std::size_t bytes = message.wire_bytes();
  if (config_.obs.metrics != nullptr) {
    const TypeCounters& counters = type_counters(message.type_name());
    m_messages_->inc();
    m_bytes_->inc(bytes);
    counters.messages->inc();
    counters.bytes->inc(bytes);
  }
  if (obs::Tracer* tracer = config_.obs.tracer) {
    const SimTime now_ns = to_ns(Clock::now());
    tracer->instant("msg.send", from, now_ns,
                    {{"to", std::uint64_t{to}},
                     {"type", message.type_name()},
                     {"bytes", std::uint64_t{bytes}}});
    if (message.trace.traced()) {
      // A multicast shares one span id: one start, one finish per receiver.
      tracer->flow_start(std::string("flow.") + message.type_name(), from,
                         now_ns, message.trace.span_id,
                         {{"trace", message.trace.trace_id}});
    }
  }
}

erasure::Buffer ThreadedCluster::serialize(const sim::Message& message) {
  if (m_serialize_ == nullptr) return serialize_message_frame(message);
  const SimTime t0 = to_ns(Clock::now());
  erasure::Buffer frame = serialize_message_frame(message);
  m_serialize_->observe(static_cast<std::uint64_t>(to_ns(Clock::now()) - t0));
  return frame;
}

void ThreadedCluster::send(NodeId from, NodeId to, sim::MessagePtr message) {
  CEC_CHECK(to < nodes_.size());
  note_send(from, to, *message);
  if (!nodes_[to]->accepting()) return;  // crashed node: frame is lost
  nodes_[to]->deliver(from, serialize(*message));
}

void ThreadedCluster::multicast(NodeId from, std::span<const NodeId> targets,
                                const std::function<sim::MessagePtr()>& make) {
  if (targets.empty()) return;
  // Serialize once; every destination inbox shares the frame's arena.
  const sim::MessagePtr message = make();
  const erasure::Buffer frame = serialize(*message);
  for (NodeId to : targets) {
    CEC_CHECK(to < nodes_.size());
    note_send(from, to, *message);
    if (!nodes_[to]->accepting()) continue;  // crashed node: frame is lost
    nodes_[to]->deliver(from, frame);
  }
}

void ThreadedCluster::stop_node(NodeId id) {
  CEC_CHECK(id < nodes_.size());
  CEC_CHECK_MSG(nodes_[id]->accepting(),
                "stop_node: node " << id << " is already stopped");
  nodes_[id]->stop();
}

void ThreadedCluster::start_node(NodeId id) {
  CEC_CHECK(id < nodes_.size());
  CEC_CHECK_MSG(config_.persistence != nullptr,
                "start_node requires ThreadedClusterConfig::persistence");
  CEC_CHECK_MSG(!nodes_[id]->accepting(),
                "start_node: node " << id << " is running");
  nodes_[id]->restore(journals_[id]->load());
  nodes_[id]->start();
}

bool ThreadedCluster::node_running(NodeId id) const {
  CEC_CHECK(id < nodes_.size());
  return nodes_[id]->accepting();
}

Tag ThreadedCluster::write(NodeId at, ClientId client, ObjectId object,
                           erasure::Value value) {
  CEC_CHECK(at < nodes_.size());
  CEC_CHECK_MSG(nodes_[at]->accepting(),
                "write: node " << at << " is stopped");
  const OpId opid = next_opid_.fetch_add(1);
  return nodes_[at]->call([&, opid] {
    return nodes_[at]->server().client_write(client, opid, object,
                                             std::move(value));
  });
}

std::pair<erasure::Value, Tag> ThreadedCluster::read(NodeId at,
                                                     ClientId client,
                                                     ObjectId object) {
  std::promise<std::pair<erasure::Value, Tag>> promise;
  auto future = promise.get_future();
  read_async(at, client, object,
             [&promise](erasure::Value value, Tag tag) {
               promise.set_value({std::move(value), std::move(tag)});
             });
  return future.get();
}

void ThreadedCluster::read_async(
    NodeId at, ClientId client, ObjectId object,
    std::function<void(erasure::Value, Tag)> done) {
  CEC_CHECK(at < nodes_.size());
  CEC_CHECK_MSG(nodes_[at]->accepting(),
                "read: node " << at << " is stopped");
  const OpId opid = next_opid_.fetch_add(1);
  AutomatonHost* node = nodes_[at].get();
  node->post([node, client, opid, object, done = std::move(done)] {
    node->server().client_read(
        client, opid, object,
        [done](const erasure::Value& value, const Tag& tag,
               const VectorClock&) { done(value, tag); });
  });
}

StorageStats ThreadedCluster::storage(NodeId at) {
  CEC_CHECK(at < nodes_.size());
  CEC_CHECK_MSG(nodes_[at]->accepting(),
                "storage: node " << at << " is stopped");
  return nodes_[at]->call([&] { return nodes_[at]->server().storage(); });
}

std::uint64_t ThreadedCluster::total_error_events() {
  std::uint64_t total = 0;
  for (auto& node : nodes_) {
    if (!node->accepting()) continue;
    total += node->call([&node_ref = *node] {
      const auto& c = node_ref.server().counters();
      return c.error1_events + c.error2_events;
    });
  }
  return total;
}

bool ThreadedCluster::await_convergence(std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  int stable_polls = 0;
  while (Clock::now() < deadline) {
    bool converged = true;
    for (NodeId s = 0; s < nodes_.size(); ++s) {
      if (!nodes_[s]->accepting()) continue;
      const StorageStats stats = storage(s);
      if (stats.history_entries != 0 || stats.inqueue_entries != 0 ||
          stats.readl_entries != 0) {
        converged = false;
        break;
      }
    }
    if (converged) {
      if (++stable_polls >= 2) return true;
    } else {
      stable_polls = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

}  // namespace causalec::runtime
