#include "netio/event_loop.h"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace cluert::netio {

EventLoop::EventLoop()
    : epoll_(::epoll_create1(0)), wake_(::eventfd(0, EFD_NONBLOCK)) {
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

void EventLoop::run() {
  stop_requested_ = false;
  epoll_event events[64];
  while (!stop_requested_) {
    const int n = ::epoll_wait(epoll_.get(), events, 64, -1);
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
  }
}

}  // namespace cluert::netio
