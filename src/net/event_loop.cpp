#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>

#include "common/expect.h"

namespace causalec::net {

namespace {

std::uint32_t to_epoll(bool want_read, bool want_write) {
  std::uint32_t events = 0;
  if (want_read) events |= EPOLLIN;
  if (want_write) events |= EPOLLOUT;
  return events;
}

}  // namespace

EventLoop::EventLoop()
    : epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wakeup_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  CEC_CHECK(epoll_.valid());
  CEC_CHECK(wakeup_.valid());
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_.get();
  CEC_CHECK(::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wakeup_.get(), &ev) ==
            0);
}

EventLoop::~EventLoop() { stop(); }

void EventLoop::start() {
  CEC_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  if (!thread_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  std::uint64_t one = 1;
  [[maybe_unused]] const auto n =
      ::write(wakeup_.get(), &one, sizeof(one));
  thread_.join();
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    if (stopping_.load(std::memory_order_acquire)) return;
    posted_.push_back(std::move(fn));
  }
  std::uint64_t one = 1;
  [[maybe_unused]] const auto n =
      ::write(wakeup_.get(), &one, sizeof(one));
}

void EventLoop::watch(int fd, bool want_read, bool want_write,
                      FdHandler handler) {
  CEC_DCHECK(on_loop_thread());
  epoll_event ev{};
  ev.events = to_epoll(want_read, want_write);
  ev.data.fd = fd;
  CEC_CHECK_MSG(::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0,
                "epoll add failed: errno " << errno);
  handlers_[fd] = std::move(handler);
}

void EventLoop::update(int fd, bool want_read, bool want_write) {
  CEC_DCHECK(on_loop_thread());
  epoll_event ev{};
  ev.events = to_epoll(want_read, want_write);
  ev.data.fd = fd;
  CEC_CHECK_MSG(::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0,
                "epoll mod failed: errno " << errno);
}

void EventLoop::unwatch(int fd) {
  CEC_DCHECK(on_loop_thread());
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::schedule_after(std::chrono::nanoseconds delta,
                               std::function<void()> fn) {
  CEC_DCHECK(on_loop_thread());
  timers_.push_back({std::chrono::steady_clock::now() + delta,
                     std::move(fn)});
}

void EventLoop::drain_wakeup() {
  std::uint64_t count = 0;
  while (::read(wakeup_.get(), &count, sizeof(count)) > 0) {
  }
}

int EventLoop::next_timeout_ms() const {
  if (timers_.empty()) return 500;  // periodic stop-flag check
  auto earliest = timers_[0].at;
  for (const auto& t : timers_) earliest = std::min(earliest, t.at);
  const auto delta = earliest - std::chrono::steady_clock::now();
  if (delta <= std::chrono::nanoseconds::zero()) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(delta).count() +
      1;
  return static_cast<int>(std::min<long long>(ms, 500));
}

void EventLoop::run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(epoll_.get(), events, kMaxEvents, next_timeout_ms());
    if (n < 0 && errno != EINTR) break;
    // Consume the wakeup before taking the posted tasks, never after: a
    // post() made while the tasks below run must leave the eventfd set,
    // or its task would sleep until the next fd event or the timeout.
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == wakeup_.get()) {
        drain_wakeup();
        break;
      }
    }
    // Posted tasks first: they include connection flushes that should hit
    // the socket before we go back to sleep.
    std::deque<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(post_mu_);
      tasks.swap(posted_);
    }
    for (auto& task : tasks) task();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_.get()) continue;
      // A handler may unwatch (or close) any fd, including its own --
      // re-look-up per event so a stale fd is skipped.
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      // Copy the handler: the callback may unwatch itself, destroying the
      // map slot under its own feet.
      FdHandler handler = it->second;
      handler(events[i].events);
    }
    // Due timers.
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < timers_.size();) {
      if (timers_[i].at <= now) {
        auto fn = std::move(timers_[i].fn);
        timers_.erase(timers_.begin() + static_cast<std::ptrdiff_t>(i));
        fn();
      } else {
        ++i;
      }
    }
  }
}

}  // namespace causalec::net
