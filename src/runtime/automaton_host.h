// AutomatonHost: one CausalEC server automaton on its own OS thread.
//
// Each server is a single-threaded automaton (paper Sec. 3): the Algorithm
// 1-3 input actions plus the internal actions Apply_InQueue, Encoding and
// Garbage_Collection. This is the one loop that hosts it on real threads;
// ThreadedCluster (in-process mailboxes) and net::NodeDaemon (TCP peers)
// are adapters that only choose where sends go (Outbound), what to do with
// a malformed peer frame, and an optional post-batch callback.
//
// The thread drains two queues. Tasks (`post`) carry client operations and
// runtime callbacks. The inbox (`deliver`) carries serialized peer frames
// as a two-lock swap-and-drain MPSC queue: producers append under
// `inbox_mu_` (no closure allocation, no contention with the consumer's
// wait mutex), the thread swaps the whole batch out under one lock
// acquisition, dispatches every message, and runs the Apply/Encoding
// fixpoint once per batch instead of once per message. A drain runs its
// tasks before its frames. Between drains the thread fires the timers
// behind Transport::schedule_after, periodic garbage collection and, with
// a journal attached, periodic snapshots.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "causalec/config.h"
#include "causalec/server.h"
#include "erasure/buffer.h"
#include "erasure/code.h"
#include "obs/obs.h"
#include "persist/journal.h"

namespace causalec::runtime {

/// Where a hosted automaton's sends go: the runtime's channel to its peers.
class Outbound {
 public:
  virtual ~Outbound() = default;
  virtual void send(NodeId from, NodeId to, sim::MessagePtr message) = 0;
  /// One logical message to every target (see Transport::multicast).
  virtual void multicast(NodeId from, std::span<const NodeId> targets,
                         const std::function<sim::MessagePtr()>& make) = 0;
};

/// What the host does with a peer frame that does not deserialize.
enum class MalformedFrame {
  kAbort,  // CHECK-fail: the runtime's own codec made it, so it is a bug
  kDrop,   // log and drop: the bytes came from an untrusted socket
};

struct AutomatonHostOptions {
  std::chrono::milliseconds gc_period{20};
  /// Only used with a journal attached.
  std::chrono::milliseconds snapshot_period{200};
  MalformedFrame malformed = MalformedFrame::kAbort;
  /// Sinks for phase.queue_wait_ns, phase.deserialize_ns,
  /// runtime.mailbox_depth.s<id> and msg.deliver; null records nothing.
  obs::ObsHooks obs;
  /// Runs on the automaton thread after every drain, including the wake-up
  /// that the loop takes at least once per gc_period.
  std::function<void()> after_batch;
};

class AutomatonHost final : public Transport {
 public:
  AutomatonHost(NodeId id, erasure::CodePtr code, const ServerConfig& config,
                Outbound* outbound, AutomatonHostOptions options);
  ~AutomatonHost() override;

  AutomatonHost(const AutomatonHost&) = delete;
  AutomatonHost& operator=(const AutomatonHost&) = delete;

  /// The hosted automaton. Touch it only from a posted task, or while the
  /// thread is not running.
  Server& server() { return server_; }

  /// Journal accepted writes and delivered messages, and checkpoint every
  /// snapshot_period. Call before start().
  void attach_journal(persist::Journal* journal);

  void start();

  /// Crash: join the thread. Later posts are dropped and queued work stays
  /// unrun until restore() discards it.
  void stop();

  /// False from stop() until restore(): a runtime drops frames addressed
  /// to a crashed automaton, like a dead NIC.
  bool accepting() const {
    return !stopped_.load(std::memory_order_acquire);
  }

  /// Restart path, before start(): discard the inbox, tasks and timers
  /// queued before the crash, restore the server from `state` with its
  /// sends muted, checkpoint the result into the attached journal, and
  /// queue the rejoin round (DESIGN.md §9) as the first task, so it runs
  /// before any frame that arrives after the restart.
  void restore(const persist::RecoveredState& state);

  /// Enqueue a task for the automaton thread (any thread may call).
  void post(std::function<void()> task);

  /// Run `fn` on the automaton thread and wait for its result. Never call
  /// it from the automaton thread, or after stop().
  template <typename Fn>
  auto call(Fn&& fn) -> decltype(fn()) {
    std::promise<decltype(fn())> promise;
    auto future = promise.get_future();
    post([&promise, &fn] { promise.set_value(fn()); });
    return future.get();
  }

  /// Enqueue a serialized peer frame from `from` (any thread may call). A
  /// broadcast passes one Buffer to every destination, sharing the arena;
  /// deserialization happens on the automaton thread and its payloads
  /// alias the frame.
  void deliver(NodeId from, erasure::Buffer frame);

  // Transport, as the server sees it (automaton thread only, or while the
  // thread is not running). Sends are muted while restore() replays.
  void send(NodeId to, sim::MessagePtr message) override;
  void multicast(std::span<const NodeId> targets,
                 const std::function<sim::MessagePtr()>& make) override;
  void schedule_after(SimTime delta_ns, std::function<void()> fn) override;
  SimTime now() const override;

 private:
  using Clock = std::chrono::steady_clock;

  struct Inbound {
    NodeId from;
    erasure::Buffer frame;
    Clock::time_point enqueued_at;  // mailbox queue-wait measurement
  };

  struct Timer {
    Clock::time_point at;
    std::function<void()> fn;
  };

  void run();
  void dispatch(Inbound& in);

  NodeId id_;
  Outbound* outbound_;
  AutomatonHostOptions options_;
  std::vector<Timer> timers_;  // automaton thread, or thread not running
  Server server_;
  persist::Journal* journal_ = nullptr;
  bool muted_ = false;

  // Phase-decomposition handles (null when metrics are off).
  obs::Histogram* m_queue_wait_ = nullptr;
  obs::Histogram* m_deserialize_ = nullptr;
  obs::Gauge* m_mailbox_depth_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  /// Written under `mu_` so the wait predicate cannot miss it; read
  /// lock-free by accepting().
  std::atomic<bool> stopped_{false};

  std::mutex inbox_mu_;
  std::vector<Inbound> inbox_;
  std::atomic<bool> inbox_ready_{false};

  std::thread thread_;  // last: it uses every member above
};

}  // namespace causalec::runtime
