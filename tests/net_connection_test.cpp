// EventLoop wakeups and the Connection write side, on real loopback TCP.
//
// EventLoopWakeup pins that a task posted while posted tasks run is woken
// promptly (its eventfd write must not be consumed by the loop's drain).
// ConnectionSend drives net::Connection::send from many threads at once:
// per-sender FIFO with exact bytes, the inline write on the caller's thread,
// the partial-write -> queue -> EPOLLOUT flush path, and send() racing
// close(). ConnectionReceive pins the receive path: with the loop thread's
// BufferPool installed, every received frame sits in an arena of its own
// and, once the handler drops them, the pool recycles those arenas instead
// of allocating per recv. FramedClient pins that a reconnect starts a
// clean stream.
// tools/run_sanitized_tests.sh runs it under tsan (-L net).
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "erasure/arena_pool.h"
#include "erasure/buffer.h"
#include "net/client_proto.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/framed_client.h"
#include "net/socket.h"

namespace causalec::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

/// A posted task's wakeup must arrive well inside the loop's 500 ms idle
/// epoll timeout; a lost wakeup shows up as ~500 ms.
constexpr auto kPromptly = 100ms;

/// Runs `fn` on the loop thread and waits for it.
template <typename Fn>
void run_on_loop(EventLoop& loop, Fn fn) {
  std::promise<void> done;
  loop.post([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

/// Posts `fn` again and again, one call per task so the calls interleave
/// with the loop's own fd events, until it returns false.
void post_repeating(EventLoop& loop, std::function<bool()> fn) {
  loop.post([&loop, fn = std::move(fn)]() mutable {
    if (fn()) post_repeating(loop, std::move(fn));
  });
}

/// Stops the loop on scope exit, before the objects its tasks reference
/// (declare it after them) are destroyed -- also when an ASSERT returns.
struct StopOnExit {
  EventLoop& loop;
  ~StopOnExit() { loop.stop(); }
};

TEST(EventLoopWakeup, TaskPostedByARunningTaskRunsPromptly) {
  EventLoop loop;
  loop.start();
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::promise<Clock::duration> waited;
    loop.post([&] {
      const auto posted = Clock::now();
      loop.post([&, posted] { waited.set_value(Clock::now() - posted); });
    });
    auto future = waited.get_future();
    ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
    EXPECT_LT(future.get(), kPromptly) << "attempt " << attempt;
  }
  loop.stop();
}

TEST(EventLoopWakeup, TaskPostedFromAnotherThreadDuringATaskRunsPromptly) {
  EventLoop loop;
  loop.start();
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::promise<void> running;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    loop.post([&running, released] {
      running.set_value();
      released.wait();
    });
    running.get_future().wait();
    std::promise<Clock::duration> waited;
    const auto posted = Clock::now();
    loop.post([&waited, posted] { waited.set_value(Clock::now() - posted); });
    release.set_value();
    auto future = waited.get_future();
    ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
    EXPECT_LT(future.get(), kPromptly) << "attempt " << attempt;
  }
  loop.stop();
}

/// A connected loopback pair: `near` (non-blocking) goes to a Connection,
/// `far` (blocking) is read by the test.
struct TcpPair {
  ScopedFd near;
  ScopedFd far;
};

TcpPair tcp_pair() {
  ScopedFd listener = listen_tcp("127.0.0.1", 0, /*reuseport=*/false);
  EXPECT_TRUE(listener.valid());
  TcpPair p;
  p.far = connect_tcp_blocking("127.0.0.1", local_port(listener.get()), 2000);
  EXPECT_TRUE(p.far.valid());
  for (int i = 0; i < 200 && !p.near.valid(); ++i) {
    pollfd pfd{listener.get(), POLLIN, 0};
    ::poll(&pfd, 1, 10);
    p.near = accept_nonblocking(listener.get());
  }
  EXPECT_TRUE(p.near.valid());
  return p;
}

void set_buffer(int fd, int option, int bytes) {
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, option, &bytes, sizeof(bytes)), 0);
}

/// Blocking frame reader on the far end.
class FarEnd {
 public:
  explicit FarEnd(ScopedFd fd) : fd_(std::move(fd)) {}

  /// The next payload, or nullopt on EOF, error or timeout.
  std::optional<erasure::Buffer> next(int timeout_ms = 5000) {
    while (frames_.empty()) {
      if (eof_ || reader_.failed()) return std::nullopt;
      pollfd pfd{fd_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return std::nullopt;
      const auto n = recv_frames(fd_.get(), reader_, [&](erasure::Buffer p) {
        frames_.push_back(std::move(p));
      });
      if (n <= 0) eof_ = true;
    }
    erasure::Buffer payload = std::move(frames_.front());
    frames_.pop_front();
    return payload;
  }

  bool eof() const { return eof_; }
  /// Bytes received but not part of a complete frame.
  std::size_t partial_bytes() const { return reader_.buffered_bytes(); }

 private:
  ScopedFd fd_;
  FrameReader reader_;
  std::deque<erasure::Buffer> frames_;
  bool eof_ = false;
};

/// Frame `seq` of sender `sender`: [sender][seq LE u32][body], where the
/// body length and bytes are a function of (sender, seq).
std::size_t body_len(std::uint32_t sender, std::uint32_t seq) {
  return 1 + (seq * 7919u + sender * 131u) % 6000u;
}

std::uint8_t body_byte(std::uint32_t sender, std::uint32_t seq,
                       std::size_t i) {
  return static_cast<std::uint8_t>(sender * 31u + seq * 17u + i);
}

erasure::Buffer tagged_frame(std::uint32_t sender, std::uint32_t seq) {
  std::vector<std::uint8_t> payload(5 + body_len(sender, seq));
  payload[0] = static_cast<std::uint8_t>(sender);
  for (int b = 0; b < 4; ++b) {
    payload[1 + b] = static_cast<std::uint8_t>(seq >> (8 * b));
  }
  for (std::size_t i = 5; i < payload.size(); ++i) {
    payload[i] = body_byte(sender, seq, i - 5);
  }
  return encode_frame(payload);
}

/// Checks a tagged payload's bytes; returns (sender, seq).
std::pair<std::uint32_t, std::uint32_t> check_tagged(
    const erasure::Buffer& payload) {
  EXPECT_GE(payload.size(), 5u);
  if (payload.size() < 5) return {0xff, 0};
  const std::uint32_t sender = payload.data()[0];
  std::uint32_t seq = 0;
  for (int b = 0; b < 4; ++b) {
    seq |= static_cast<std::uint32_t>(payload.data()[1 + b]) << (8 * b);
  }
  EXPECT_EQ(payload.size(), 5 + body_len(sender, seq))
      << "sender " << sender << " seq " << seq;
  for (std::size_t i = 5; i < payload.size(); ++i) {
    if (payload.data()[i] != body_byte(sender, seq, i - 5)) {
      ADD_FAILURE() << "byte " << i << " of sender " << sender << " seq "
                    << seq;
      break;
    }
  }
  return {sender, seq};
}

/// A Connection opened on `loop` whose close handler counts its firings.
struct OpenConnection {
  std::shared_ptr<Connection> conn;
  std::shared_ptr<std::atomic<int>> closes =
      std::make_shared<std::atomic<int>>(0);
  std::shared_ptr<std::atomic<bool>> closed_off_loop =
      std::make_shared<std::atomic<bool>>(false);
};

OpenConnection open_connection(EventLoop& loop, ScopedFd fd) {
  OpenConnection c;
  c.conn = std::make_shared<Connection>(&loop, std::move(fd));
  run_on_loop(loop, [&] {
    c.conn->open(
        [](const std::shared_ptr<Connection>&, erasure::Buffer) {},
        [&loop, closes = c.closes, off = c.closed_off_loop](
            const std::shared_ptr<Connection>&) {
          closes->fetch_add(1);
          if (!loop.on_loop_thread()) off->store(true);
        });
  });
  return c;
}

TEST(ConnectionSend, ConcurrentSendersStayFifoAndLossless) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kLoopSender = kThreads;
  constexpr std::uint32_t kFrames = 400;
  EventLoop loop;
  loop.start();
  TcpPair pair = tcp_pair();
  // A small send buffer so inline writes regularly come up short and the
  // queue / EPOLLOUT path interleaves with the inline one.
  set_buffer(pair.near.get(), SO_SNDBUF, 16 * 1024);
  FarEnd far(std::move(pair.far));
  OpenConnection c = open_connection(loop, std::move(pair.near));

  std::atomic<bool> go{false};
  std::vector<std::thread> senders;
  StopOnExit stopper{loop};
  for (std::uint32_t s = 0; s < kThreads; ++s) {
    senders.emplace_back([&, s] {
      while (!go.load()) std::this_thread::yield();
      for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
        c.conn->send(tagged_frame(s, seq));
      }
    });
  }
  go.store(true);
  // The loop thread sends too, interleaved with its own EPOLLOUT flushes.
  post_repeating(loop, [&, seq = std::uint32_t{0}]() mutable {
    c.conn->send(tagged_frame(kLoopSender, seq++));
    return seq < kFrames;
  });

  std::vector<std::uint32_t> next_seq(kThreads + 1, 0);
  for (std::uint32_t got = 0; got < (kThreads + 1) * kFrames; ++got) {
    auto payload = far.next();
    const auto [sender, seq] = payload.has_value()
                                   ? check_tagged(*payload)
                                   : std::make_pair(0xffu, 0u);
    if (sender > kLoopSender) {
      for (auto& t : senders) t.join();
      FAIL() << "no valid frame after " << got << " frames";
    }
    if (seq != next_seq[sender]) {
      for (auto& t : senders) t.join();
      FAIL() << "sender " << sender << ": seq " << seq << ", expected "
             << next_seq[sender];
    }
    ++next_seq[sender];
  }
  for (auto& t : senders) t.join();
  EXPECT_EQ(c.conn->write_backlog(), 0u);
  EXPECT_FALSE(far.next(50).has_value()) << "a frame arrived twice";
  EXPECT_EQ(far.partial_bytes(), 0u);
  EXPECT_EQ(c.closes->load(), 0);
}

TEST(ConnectionSend, SendWritesInlineWhileTheLoopIsBusy) {
  EventLoop loop;
  loop.start();
  TcpPair pair = tcp_pair();
  FarEnd far(std::move(pair.far));
  OpenConnection c = open_connection(loop, std::move(pair.near));
  StopOnExit stopper{loop};

  std::promise<void> running;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  loop.post([&running, released] {
    running.set_value();
    released.wait();
  });
  running.get_future().wait();
  // The loop thread is parked in a task: only an inline write can get the
  // frame onto the socket now.
  c.conn->send(tagged_frame(1, 7));
  auto payload = far.next(2000);
  release.set_value();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(check_tagged(*payload), std::make_pair(1u, 7u));
}

TEST(ConnectionSend, PartialInlineWriteQueuesThenFlushesOnEpollout) {
  EventLoop loop;
  loop.start();
  TcpPair pair = tcp_pair();
  const int near_fd = pair.near.get();
  set_buffer(near_fd, SO_SNDBUF, 16 * 1024);
  FarEnd far(std::move(pair.far));
  OpenConnection c = open_connection(loop, std::move(pair.near));
  StopOnExit stopper{loop};

  // The far end is not reading yet: a 4 MiB frame cannot fit the socket
  // buffers, so the inline write comes up short and the rest is queued.
  std::vector<std::uint8_t> big(4 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  const erasure::Buffer big_frame = encode_frame(big);
  c.conn->send(big_frame);
  const std::size_t backlog = c.conn->write_backlog();
  EXPECT_GT(backlog, 0u);
  EXPECT_LT(backlog, big_frame.size()) << "nothing was written inline";
  // Frames sent behind a queued one wait their turn.
  c.conn->send(tagged_frame(2, 0));
  run_on_loop(loop, [&] { c.conn->send(tagged_frame(2, 1)); });

  // Resume reading: the loop's EPOLLOUT flush delivers the rest in order.
  // (Widen the send buffer first: at 16 KiB the loopback delayed ACKs
  // pace the flush to seconds.)
  set_buffer(near_fd, SO_SNDBUF, 4 << 20);
  auto first = far.next();
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->size(), big.size());
  EXPECT_TRUE(std::equal(big.begin(), big.end(), first->data()));
  for (std::uint32_t seq = 0; seq < 2; ++seq) {
    auto payload = far.next();
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(check_tagged(*payload), std::make_pair(2u, seq));
  }
  EXPECT_EQ(c.conn->write_backlog(), 0u);
  EXPECT_FALSE(c.conn->closed());
}

TEST(ConnectionSend, SendRacingCloseFiresTheCloseHandlerOnce) {
  for (int round = 0; round < 10; ++round) {
    EventLoop loop;
    loop.start();
    TcpPair pair = tcp_pair();
    set_buffer(pair.near.get(), SO_SNDBUF, 8 * 1024);
    FarEnd far(std::move(pair.far));
    OpenConnection c = open_connection(loop, std::move(pair.near));

    std::atomic<bool> stop{false};
    std::atomic<std::uint32_t> sent_after_close{0};
    std::vector<std::thread> senders;
    StopOnExit stopper{loop};
    for (std::uint32_t s = 0; s < 3; ++s) {
      senders.emplace_back([&, s] {
        for (std::uint32_t seq = 0; !stop.load(); ++seq) {
          const bool was_closed = c.conn->closed();
          c.conn->send(tagged_frame(s, seq));
          if (was_closed) sent_after_close.fetch_add(1);
        }
      });
    }
    post_repeating(loop, [&, seq = std::uint32_t{0}]() mutable {
      c.conn->send(tagged_frame(3, seq++));
      return !stop.load();
    });

    // Let some frames through, then close from two threads and the loop
    // at once.
    int got = 0;
    while (got < 20 && far.next().has_value()) ++got;
    EXPECT_EQ(got, 20);
    std::thread closer1([&] { c.conn->close(); });
    std::thread closer2([&] { c.conn->close(); });
    loop.post([&] { c.conn->close(); });
    closer1.join();
    closer2.join();
    EXPECT_TRUE(c.conn->closed());

    // The far end sees whole, correct frames (the last one possibly cut
    // short by the close), then EOF.
    while (auto payload = far.next()) check_tagged(*payload);
    EXPECT_TRUE(far.eof());
    const auto deadline = Clock::now() + 5s;
    while (c.closes->load() == 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }

    // The closed fd's number is free for reuse and a new socket may take
    // it: sends still racing on the dead connection must reach neither
    // end of it.
    TcpPair fresh = tcp_pair();
    while (sent_after_close.load() < 100) std::this_thread::yield();
    stop.store(true);
    for (auto& t : senders) t.join();
    std::uint8_t byte = 0;
    EXPECT_LT(::recv(fresh.near.get(), &byte, 1, MSG_DONTWAIT), 0);
    FarEnd fresh_far(std::move(fresh.far));
    EXPECT_FALSE(fresh_far.next(20).has_value());
    EXPECT_EQ(fresh_far.partial_bytes(), 0u);

    loop.stop();
    EXPECT_EQ(c.closes->load(), 1) << "round " << round;
    EXPECT_FALSE(c.closed_off_loop->load());
  }
}

/// Payload `seq` of the receive-path test: [seq LE u32][filler], ~1 KiB.
std::vector<std::uint8_t> small_payload(std::uint32_t seq) {
  std::vector<std::uint8_t> payload(960 + (seq * 37u) % 128u);
  for (int b = 0; b < 4; ++b) {
    payload[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(seq >> (8 * b));
  }
  for (std::size_t i = 4; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(seq * 11u + i);
  }
  return payload;
}

bool small_payload_matches(const erasure::Buffer& payload,
                           std::uint32_t seq) {
  const std::vector<std::uint8_t> expected = small_payload(seq);
  return payload.size() == expected.size() &&
         std::equal(expected.begin(), expected.end(), payload.data());
}

/// Frames [first, first + count) as a byte stream cut into bursts of
/// `per_burst` frames; each burst goes out in one send so the receiver's
/// recvs coalesce many frames.
std::vector<std::vector<std::uint8_t>> small_bursts(std::uint32_t first,
                                                    std::uint32_t count,
                                                    std::uint32_t per_burst) {
  std::vector<std::vector<std::uint8_t>> bursts;
  for (std::uint32_t seq = first; seq < first + count; ++seq) {
    if ((seq - first) % per_burst == 0) bursts.emplace_back();
    const erasure::Buffer frame = encode_frame(small_payload(seq));
    bursts.back().insert(bursts.back().end(), frame.data(),
                         frame.data() + frame.size());
  }
  return bursts;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const auto n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                          MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

TEST(ConnectionReceive, EachFrameGetsItsOwnPooledArena) {
  // As in NodeDaemon: the loop thread recycles arenas through its pool.
  erasure::BufferPool pool;
  EventLoop loop;
  loop.start();
  run_on_loop(loop, [&] { pool.install(); });
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScopedFd near(fds[0]);
  ScopedFd far(fds[1]);
  ASSERT_TRUE(set_nonblocking(near.get()));

  // Loop thread only, apart from `received`.
  bool keep = true;
  std::vector<erasure::Buffer> kept;
  std::uint32_t next_seq = 0;
  std::uint32_t mismatches = 0;
  std::atomic<std::uint32_t> received{0};
  auto conn = std::make_shared<Connection>(&loop, std::move(near));
  StopOnExit stopper{loop};
  run_on_loop(loop, [&] {
    conn->open(
        [&](const std::shared_ptr<Connection>&, erasure::Buffer payload) {
          if (!small_payload_matches(payload, next_seq)) ++mismatches;
          ++next_seq;
          if (keep) kept.push_back(std::move(payload));
          received.fetch_add(1, std::memory_order_release);
        },
        [](const std::shared_ptr<Connection>&) {});
  });
  const auto send_and_wait = [&](std::uint32_t first, std::uint32_t count,
                                 const std::vector<std::vector<std::uint8_t>>&
                                     bursts) {
    for (const auto& burst : bursts) send_all(far.get(), burst);
    const auto deadline = Clock::now() + 10s;
    while (received.load(std::memory_order_acquire) < first + count &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(received.load(), first + count);
  };

  // Phase 1, keep every payload: none may share an arena with another
  // (or with anything else), so a value the automaton keeps pins only
  // its own frame.
  constexpr std::uint32_t kFrames = 2000;
  constexpr std::uint32_t kPerBurst = 48;  // ~49 KiB per send
  send_and_wait(0, kFrames, small_bursts(0, kFrames, kPerBurst));
  run_on_loop(loop, [&] {
    EXPECT_EQ(mismatches, 0u);
    ASSERT_EQ(kept.size(), kFrames);
    std::uint32_t shared = 0;
    for (const auto& payload : kept) shared += payload.use_count() != 1;
    EXPECT_EQ(shared, 0u) << "payloads sharing an arena";
    kept.clear();
    keep = false;
  });

  // Phase 2, drop each payload in the handler: after a warm-up the pool
  // serves every frame, so the receive path mallocs (nearly) nothing.
  constexpr std::uint32_t kWarmup = 200;
  send_and_wait(kFrames, kWarmup, small_bursts(kFrames, kWarmup, kPerBurst));
  const std::uint32_t first = kFrames + kWarmup;
  const auto bursts = small_bursts(first, kFrames, kPerBurst);
  const erasure::Buffer::AllocStats before = erasure::Buffer::alloc_stats();
  send_and_wait(first, kFrames, bursts);
  const erasure::Buffer::AllocStats after = erasure::Buffer::alloc_stats();
  EXPECT_LE(after.allocations - before.allocations, 4u);
  EXPECT_GE(after.recycled - before.recycled, kFrames);
  run_on_loop(loop, [&] {
    EXPECT_EQ(mismatches, 0u);
    conn->close();
  });
}

/// Accepts one client on `listener`, reads what it sent (Hello + one
/// request), answers with `reply` and closes.
void answer_once(int listener, const std::vector<std::uint8_t>& reply) {
  ScopedFd fd;
  for (int i = 0; i < 200 && !fd.valid(); ++i) {
    pollfd pfd{listener, POLLIN, 0};
    ::poll(&pfd, 1, 10);
    fd = accept_nonblocking(listener);
  }
  ASSERT_TRUE(fd.valid());
  FrameReader requests;
  for (int frames = 0; frames < 2;) {
    pollfd pfd{fd.get(), POLLIN, 0};
    ASSERT_GT(::poll(&pfd, 1, 5000), 0);
    std::uint8_t chunk[4096];
    const auto n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    requests.feed({chunk, static_cast<std::size_t>(n)},
                  [&](erasure::Buffer) { ++frames; });
  }
  ASSERT_EQ(::send(fd.get(), reply.data(), reply.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(reply.size()));
}

TEST(FramedClient, ReconnectDropsAPartialFrameOfTheOldConnection) {
  ScopedFd first = listen_tcp("127.0.0.1", 0, /*reuseport=*/false);
  ScopedFd second = listen_tcp("127.0.0.1", 0, /*reuseport=*/false);
  const auto endpoint = [](const ScopedFd& listener) {
    return "127.0.0.1:" + std::to_string(local_port(listener.get()));
  };
  const auto pong = [](std::uint64_t token) {
    const erasure::Buffer frame = encode_frame(encode_pong(Pong{token, true}));
    return std::vector<std::uint8_t>(frame.data(),
                                     frame.data() + frame.size());
  };
  const auto matches = [](std::uint64_t token) {
    return [token](const Pong& p) { return p.token == token; };
  };
  FramedClient client;
  client.set_io_timeout_ms(5000);

  // The first server dies half-way through its reply.
  std::vector<std::uint8_t> cut = pong(1);
  cut.resize(cut.size() / 2);
  std::thread server1([&] { answer_once(first.get(), cut); });
  ASSERT_TRUE(client.connect(endpoint(first), 2000));
  EXPECT_FALSE(client.call(encode_ping(Ping{1}), decode_pong, matches(1)));
  EXPECT_FALSE(client.connected());
  server1.join();

  // The new connection's stream must not be read behind the stale half.
  std::thread server2([&] { answer_once(second.get(), pong(2)); });
  ASSERT_TRUE(client.connect(endpoint(second), 2000));
  const auto resp = client.call(encode_ping(Ping{2}), decode_pong, matches(2));
  server2.join();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->token, 2u);
}

}  // namespace
}  // namespace causalec::net
