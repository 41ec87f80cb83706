// Tests for runtime::AutomatonHost, the loop that hosts one server
// automaton on its own thread for both ThreadedCluster and NodeDaemon:
// drain ordering, stop semantics, the crash-restart sequence, and the
// drop policy for malformed peer frames.
//
// Peer frames are real codec output: a bare Server writes through a
// transport that serializes its app messages into frames.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "causalec/codec.h"
#include "causalec/messages.h"
#include "erasure/codes.h"
#include "persist/backend.h"
#include "persist/journal.h"
#include "runtime/automaton_host.h"

namespace causalec::runtime {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kServers = 3;
constexpr std::size_t kObjects = 2;
constexpr std::size_t kValueBytes = 16;
constexpr NodeId kHosted = 1;

erasure::CodePtr make_code() {
  return erasure::make_systematic_rs(kServers, kObjects, kValueBytes);
}

/// Transport for a bare Server that serializes every app message it sends
/// into a frame (other traffic is dropped).
class FrameTap final : public Transport {
 public:
  void send(NodeId to, sim::MessagePtr message) override {
    if (dynamic_cast<const AppMessage*>(message.get()) == nullptr) return;
    frames[to].push_back(serialize_message_frame(*message));
  }
  void schedule_after(SimTime, std::function<void()>) override {}
  SimTime now() const override { return 0; }

  std::map<NodeId, std::vector<erasure::Buffer>> frames;
};

/// The app frame that a write of `object` at server `writer` sends to the
/// hosted node.
erasure::Buffer write_frame(NodeId writer, ObjectId object) {
  FrameTap tap;
  Server server(writer, make_code(), ServerConfig{}, &tap);
  server.client_write(/*client=*/100 + writer, /*opid=*/1, object,
                      erasure::Value(kValueBytes, 0x5A));
  EXPECT_EQ(tap.frames[kHosted].size(), 1u);
  return tap.frames[kHosted].front();
}

/// Records the clock carried by every rejoin digest the host sends.
class DigestRecorder final : public Outbound {
 public:
  void send(NodeId, NodeId, sim::MessagePtr message) override {
    record(*message);
  }
  void multicast(NodeId, std::span<const NodeId> targets,
                 const std::function<sim::MessagePtr()>& make) override {
    if (!targets.empty()) record(*make());
  }

  std::vector<VectorClock> digests() {
    std::lock_guard<std::mutex> lock(mu_);
    return digests_;
  }

 private:
  void record(const sim::Message& message) {
    if (const auto* digest =
            dynamic_cast<const RecoverDigestMessage*>(&message)) {
      std::lock_guard<std::mutex> lock(mu_);
      digests_.push_back(digest->vc);
    }
  }

  std::mutex mu_;
  std::vector<VectorClock> digests_;
};

AutomatonHostOptions options(MalformedFrame malformed) {
  AutomatonHostOptions o;
  o.gc_period = 5ms;
  o.snapshot_period = 20ms;
  o.malformed = malformed;
  return o;
}

VectorClock clock_of(AutomatonHost& host) {
  return host.call([&host] { return host.server().clock(); });
}

/// Polls the hosted server's clock until `done` holds (false on timeout).
template <typename Pred>
bool eventually(AutomatonHost& host, Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done(clock_of(host))) return true;
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

TEST(AutomatonHostTest, TaskPostedBeforeFrameInOneDrainRunsFirst) {
  DigestRecorder out;
  AutomatonHost host(kHosted, make_code(), ServerConfig{}, &out,
                     options(MalformedFrame::kAbort));
  host.start();
  // Hold the thread inside one drain while the next one fills up.
  std::promise<void> entered;
  std::promise<void> release;
  host.post([&] {
    entered.set_value();
    release.get_future().wait();
  });
  entered.get_future().wait();
  std::uint64_t seen_before_frame = 99;
  host.post([&] { seen_before_frame = host.server().clock()[0]; });
  host.deliver(0, write_frame(0, 0));
  release.set_value();
  ASSERT_TRUE(eventually(host, [](const VectorClock& vc) {
    return vc[0] == 1;
  }));
  EXPECT_EQ(seen_before_frame, 0u);
}

TEST(AutomatonHostTest, PostsAfterStopAreDropped) {
  DigestRecorder out;
  AutomatonHost host(kHosted, make_code(), ServerConfig{}, &out,
                     options(MalformedFrame::kAbort));
  host.start();
  EXPECT_TRUE(host.accepting());
  host.stop();
  EXPECT_FALSE(host.accepting());
  auto token = std::make_shared<int>(0);
  host.post([token] {});
  // Dropped on the spot, not queued: the closure is already destroyed.
  EXPECT_EQ(token.use_count(), 1);
}

TEST(AutomatonHostTest, RestartDiscardsPreCrashWorkAndRejoinsFirst) {
  persist::MemoryBackend backend;
  persist::Journal journal(&backend, "s1");
  DigestRecorder out;
  AutomatonHost host(kHosted, make_code(), ServerConfig{}, &out,
                     options(MalformedFrame::kAbort));
  host.attach_journal(&journal);
  host.start();

  // Pre-crash work: a pending timer, plus a task and a frame queued behind
  // a drain that only returns once the crash has begun.
  std::atomic<bool> timer_fired{false};
  std::promise<void> entered;
  host.post([&] {
    host.schedule_after(
        std::chrono::nanoseconds(200ms).count(),
        [&timer_fired] { timer_fired.store(true); });
    entered.set_value();
    while (host.accepting()) std::this_thread::sleep_for(1ms);
  });
  entered.get_future().wait();
  auto token = std::make_shared<int>(0);
  host.post([token] {});
  host.deliver(2, write_frame(2, 1));
  host.stop();
  EXPECT_EQ(token.use_count(), 2) << "queued task ran during the crash";

  host.restore(journal.load());
  EXPECT_TRUE(host.accepting());
  EXPECT_EQ(token.use_count(), 1) << "pre-crash task survived restore";
  // A frame that arrives after the restart, before the thread runs.
  host.deliver(0, write_frame(0, 0));
  host.start();

  ASSERT_TRUE(eventually(host, [](const VectorClock& vc) {
    return vc[0] == 1;
  }));
  EXPECT_EQ(clock_of(host)[2], 0u) << "pre-crash frame was dispatched";
  // The rejoin digest went out before the post-restart frame applied.
  const std::vector<VectorClock> digests = out.digests();
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests.front()[0], 0u);

  std::this_thread::sleep_for(250ms);
  EXPECT_FALSE(timer_fired.load()) << "pre-crash timer fired after restart";
}

TEST(AutomatonHostTest, DropPolicySkipsTruncatedFrameAndKeepsDispatching) {
  DigestRecorder out;
  AutomatonHost host(kHosted, make_code(), ServerConfig{}, &out,
                     options(MalformedFrame::kDrop));
  host.start();
  const erasure::Buffer valid = write_frame(0, 0);
  host.deliver(0, valid.slice(0, valid.size() / 2));
  host.deliver(0, valid);
  ASSERT_TRUE(eventually(host, [](const VectorClock& vc) {
    return vc[0] == 1;
  }));
}

}  // namespace
}  // namespace causalec::runtime
