#include "netio/event_loop.h"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/clock.h"

namespace cluert::netio {

EventLoop::EventLoop(std::uint32_t tick_ms)
    : epoll_(::epoll_create1(0)),
      wake_(::eventfd(0, EFD_NONBLOCK)),
      tick_ms_(tick_ms == 0 ? 1 : tick_ms) {
  CLUERT_CHECK(epoll_.valid()) << "epoll_create1 failed";
  CLUERT_CHECK(wake_.valid()) << "eventfd failed";
  add(wake_.get(), EPOLLIN, [this](std::uint32_t) { drainWakeup(); });
}

EventLoop::~EventLoop() = default;

void EventLoop::add(int fd, std::uint32_t events, FdCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  CLUERT_CHECK(::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0)
      << "epoll_ctl(ADD) failed for fd " << fd;
  fds_[fd] = std::make_shared<FdCallback>(std::move(cb));
}

void EventLoop::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  CLUERT_CHECK(::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0)
      << "epoll_ctl(MOD) failed for fd " << fd;
}

void EventLoop::remove(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  fds_.erase(fd);
}

void EventLoop::post(Task task) {
  {
    sync::MutexLock lock(post_mu_);
    posted_.push_back(std::move(task));
  }
  wakeup();
}

void EventLoop::stop() {
  // May run on any thread, including a fd callback on the loop thread; the
  // posted closure makes the flag flip visible at a defined point either way.
  post([this] { stop_requested_ = true; });
}

EventLoop::TimerId EventLoop::runAfter(std::uint32_t delay_ms, Task fn) {
  const std::uint64_t ticks = (delay_ms + tick_ms_ - 1) / tick_ms_;
  const std::size_t slot = (wheel_pos_ + ticks) % kWheelSlots;
  Timer t;
  t.id = next_timer_id_++;
  t.rounds = static_cast<std::uint32_t>(ticks / kWheelSlots);
  t.fn = std::move(fn);
  wheel_[slot].push_back(std::move(t));
  ++armed_timers_;
  return wheel_[slot].back().id;
}

bool EventLoop::cancel(TimerId id) {
  for (auto& slot : wheel_) {
    for (auto it = slot.begin(); it != slot.end(); ++it) {
      if (it->id == id) {
        slot.erase(it);
        --armed_timers_;
        return true;
      }
    }
  }
  return false;
}

void EventLoop::wakeup() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r =
      ::write(wake_.get(), &one, sizeof(one));
}

void EventLoop::drainWakeup() {
  std::uint64_t v = 0;
  while (::read(wake_.get(), &v, sizeof(v)) > 0) {
  }
}

void EventLoop::runPosted() {
  std::vector<Task> tasks;
  {
    sync::MutexLock lock(post_mu_);
    tasks.swap(posted_);
  }
  for (auto& t : tasks) t();
}

int EventLoop::timeoutMs() const {
  if (armed_timers_ == 0) return -1;
  const std::uint64_t elapsed_ms = (steadyNs() - last_tick_ns_) / 1000000;
  if (elapsed_ms >= tick_ms_) return 0;
  return static_cast<int>(tick_ms_ - elapsed_ms);
}

void EventLoop::advanceWheel() {
  if (armed_timers_ == 0) {
    last_tick_ns_ = steadyNs();
    return;
  }
  const std::uint64_t now = steadyNs();
  std::uint64_t elapsed_ticks = (now - last_tick_ns_) / (tick_ms_ * 1000000ULL);
  if (elapsed_ticks == 0) return;
  // A long stall (debugger, overloaded host) must still fire every timer
  // exactly once — cap the walk at one full revolution past the armed set.
  if (elapsed_ticks > kWheelSlots) elapsed_ticks = kWheelSlots;
  last_tick_ns_ = now;
  std::vector<Task> due;
  for (std::uint64_t t = 0; t < elapsed_ticks; ++t) {
    wheel_pos_ = (wheel_pos_ + 1) % kWheelSlots;
    auto& slot = wheel_[wheel_pos_];
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->rounds > 0) {
        --it->rounds;
        ++it;
      } else {
        due.push_back(std::move(it->fn));
        it = slot.erase(it);
        --armed_timers_;
      }
    }
  }
  for (auto& fn : due) fn();
}

void EventLoop::run() {
  running_ = true;
  stop_requested_ = false;
  last_tick_ns_ = steadyNs();
  epoll_event events[64];
  while (!stop_requested_) {
    const int n =
        ::epoll_wait(epoll_.get(), events, 64, timeoutMs());
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      auto it = fds_.find(fd);
      if (it == fds_.end()) continue;  // removed by an earlier callback
      // Keep the closure alive even if the callback removes this fd.
      auto cb = it->second;
      (*cb)(events[i].events);
      if (stop_requested_) break;
    }
    runPosted();
    advanceWheel();
  }
  running_ = false;
}

}  // namespace cluert::netio
