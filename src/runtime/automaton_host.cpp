#include "runtime/automaton_host.h"

#include <algorithm>
#include <string>

#include "causalec/codec.h"
#include "common/expect.h"
#include "common/logging.h"
#include "erasure/arena_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace causalec::runtime {

namespace {

SimTime to_ns(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

}  // namespace

AutomatonHost::AutomatonHost(NodeId id, erasure::CodePtr code,
                             const ServerConfig& config, Outbound* outbound,
                             AutomatonHostOptions options)
    : id_(id),
      outbound_(outbound),
      options_(std::move(options)),
      server_(id, std::move(code), config, this) {
  if (obs::MetricsRegistry* metrics = options_.obs.metrics) {
    m_queue_wait_ = &metrics->histogram("phase.queue_wait_ns");
    m_deserialize_ = &metrics->histogram("phase.deserialize_ns");
    m_mailbox_depth_ =
        &metrics->gauge("runtime.mailbox_depth.s" + std::to_string(id));
  }
}

AutomatonHost::~AutomatonHost() { stop(); }

void AutomatonHost::attach_journal(persist::Journal* journal) {
  journal_ = journal;
  server_.attach_journal(journal);
}

void AutomatonHost::start() {
  CEC_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { run(); });
}

void AutomatonHost::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void AutomatonHost::restore(const persist::RecoveredState& state) {
  CEC_CHECK(!thread_.joinable());
  CEC_CHECK(journal_ != nullptr);
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.clear();
    inbox_ready_.store(false, std::memory_order_release);
  }
  timers_.clear();
  // Post-mortem: dump the last protocol events the node recorded before
  // its crash, before journal replay starts reusing the ring.
  obs::log_flight_tail(static_cast<int>(id_), server_.flight_recorder());
  // Muted: the replayed handlers re-run their sends, which already reached
  // the network before the crash.
  muted_ = true;
  server_.restore_from_journal(state);
  // Checkpoint the replayed state so a second crash before the next
  // snapshot timer does not replay the whole WAL again.
  journal_->save_snapshot(server_.capture_image());
  muted_ = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.clear();
    tasks_.push_back([this] { server_.begin_rejoin(); });
    stopped_.store(false, std::memory_order_release);
  }
}

void AutomatonHost::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_.load(std::memory_order_relaxed)) return;
    tasks_.push_back(std::move(task));
  }
  cv_.notify_all();
}

void AutomatonHost::deliver(NodeId from, erasure::Buffer frame) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(Inbound{from, std::move(frame), Clock::now()});
    inbox_ready_.store(true, std::memory_order_release);
  }
  // The data lock is disjoint from the consumer's wait lock; this empty
  // critical section on `mu_` fences against the lost-wakeup race (the
  // consumer either sees `inbox_ready_` in its predicate or is already
  // waiting when we notify).
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

void AutomatonHost::send(NodeId to, sim::MessagePtr message) {
  if (muted_) return;
  outbound_->send(id_, to, std::move(message));
}

void AutomatonHost::multicast(std::span<const NodeId> targets,
                              const std::function<sim::MessagePtr()>& make) {
  if (muted_) return;
  outbound_->multicast(id_, targets, make);
}

void AutomatonHost::schedule_after(SimTime delta_ns,
                                   std::function<void()> fn) {
  timers_.push_back(
      {Clock::now() + std::chrono::nanoseconds(delta_ns), std::move(fn)});
}

SimTime AutomatonHost::now() const { return to_ns(Clock::now()); }

void AutomatonHost::dispatch(Inbound& in) {
  if (m_queue_wait_ != nullptr) {
    m_queue_wait_->observe(static_cast<std::uint64_t>(
        to_ns(Clock::now()) - to_ns(in.enqueued_at)));
  }
  const SimTime t0 = m_deserialize_ != nullptr ? to_ns(Clock::now()) : 0;
  sim::MessagePtr message;
  if (options_.malformed == MalformedFrame::kAbort) {
    message = deserialize_message(std::move(in.frame));
  } else {
    std::string error;
    message = try_deserialize_message(std::move(in.frame), &error);
    if (message == nullptr) {
      CEC_LOG(kWarn) << "net: dropping malformed frame from node " << in.from
                     << ": " << error;
      return;
    }
  }
  if (m_deserialize_ != nullptr) {
    m_deserialize_->observe(
        static_cast<std::uint64_t>(to_ns(Clock::now()) - t0));
  }
  if (obs::Tracer* tracer = options_.obs.tracer) {
    const SimTime now_ns = to_ns(Clock::now());
    tracer->instant("msg.deliver", id_, now_ns,
                    {{"from", std::uint64_t{in.from}},
                     {"type", message->type_name()},
                     {"bytes", std::uint64_t{message->wire_bytes()}}});
    if (message->trace.traced()) {
      tracer->flow_finish(std::string("flow.") + message->type_name(), id_,
                          now_ns, message->trace.span_id,
                          {{"trace", message->trace.trace_id}});
    }
  }
  server_.dispatch_message(in.from, std::move(message));
}

void AutomatonHost::run() {
  set_log_thread_node(static_cast<int>(id_));
  // Thread-local arena recycling: payload buffers allocated while handling
  // this automaton's work come from (and return to) this pool, so the
  // steady-state data path stops malloc'ing. A restarted thread gets a
  // fresh pool; the old one folds its counters on close.
  erasure::BufferPool buffer_pool;
  erasure::BufferPool::ScopedInstall pool_installed(buffer_pool);
  auto next_gc = Clock::now() + options_.gc_period;
  auto next_snapshot = Clock::now() + options_.snapshot_period;
  while (true) {
    std::deque<std::function<void()>> batch;
    std::vector<Inbound> inbound;
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto deadline = next_gc;
      if (journal_ != nullptr) deadline = std::min(deadline, next_snapshot);
      for (const auto& timer : timers_) {
        deadline = std::min(deadline, timer.at);
      }
      cv_.wait_until(lock, deadline, [this] {
        return stopped_.load(std::memory_order_relaxed) || !tasks_.empty() ||
               inbox_ready_.load(std::memory_order_acquire);
      });
      if (stopped_.load(std::memory_order_relaxed)) return;
      batch.swap(tasks_);
    }
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      inbound.swap(inbox_);
      inbox_ready_.store(false, std::memory_order_release);
    }
    for (auto& task : batch) task();
    if (!inbound.empty()) {
      if (m_mailbox_depth_ != nullptr) {
        // Depth the drain found waiting: queue buildup shows here before
        // it becomes tail latency.
        m_mailbox_depth_->set(static_cast<std::int64_t>(inbound.size()));
      }
      for (Inbound& in : inbound) dispatch(in);
      // One Apply/Encoding fixpoint for the whole batch.
      server_.run_internal_actions();
    }
    if (options_.after_batch) options_.after_batch();
    const auto now = Clock::now();
    for (std::size_t i = 0; i < timers_.size();) {
      if (timers_[i].at <= now) {
        auto fn = std::move(timers_[i].fn);
        timers_.erase(timers_.begin() + static_cast<std::ptrdiff_t>(i));
        fn();
      } else {
        ++i;
      }
    }
    if (now >= next_gc) {
      server_.run_garbage_collection();
      next_gc = now + options_.gc_period;
    }
    if (journal_ != nullptr && now >= next_snapshot) {
      journal_->save_snapshot(server_.capture_image());
      next_snapshot = now + options_.snapshot_period;
    }
  }
}

}  // namespace causalec::runtime
