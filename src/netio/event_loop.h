// A single-threaded epoll reactor: the spine of cluertd (DESIGN.md §9).
//
// One EventLoop owns one epoll instance and runs on exactly one thread
// (run()'s caller). Everything the loop touches — its fd callbacks — is
// mutated only from that thread; the two cross-thread entry points,
// post() and stop(), go through a mutex-guarded queue plus an eventfd
// wakeup, so no other state needs locking. This is the Envoy-style
// dispatcher shape the roadmap calls for, cut down to what a router
// daemon needs: level-triggered fd readiness and a wakeup pipe for
// control-plane nudges (shutdown, reload, posted closures). The loop has
// no timers: it blocks in epoll_wait until an fd or a wakeup is ready, and
// the one deadline the daemon keeps, the SIGTERM drain budget, is a loop
// inside a posted task (Datapath::drainStep).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "netio/socket.h"

namespace cluert::netio {

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers `fd` for `events` (EPOLLIN/EPOLLOUT). Loop-thread only, except
  // before run() starts. The callback may add/modify/remove fds, including
  // its own.
  void add(int fd, std::uint32_t events, FdCallback cb);
  void modify(int fd, std::uint32_t events);
  void remove(int fd);

  // Thread-safe: enqueues `task` to run on the loop thread and wakes it.
  // The only way other threads talk to the loop.
  void post(Task task);

  // Thread-safe: makes run() return after the current iteration.
  void stop();

  // Blocks dispatching events until stop(). Runs posted tasks between
  // epoll waits.
  void run();

 private:
  void wakeup();
  void drainWakeup();
  void runPosted();

  Fd epoll_;
  Fd wake_;  // eventfd
  bool stop_requested_ = false;

  // shared_ptr so a callback that removes itself (or another fd) mid-dispatch
  // doesn't free the closure the loop is currently invoking.
  std::unordered_map<int, std::shared_ptr<FdCallback>> fds_;

  // The only cross-thread state in the loop; everything else is loop-thread
  // confined (which the analysis cannot see — the mutex boundary is the
  // part worth proving).
  sync::Mutex post_mu_;
  std::vector<Task> posted_ CLUERT_GUARDED_BY(post_mu_);
};

}  // namespace cluert::netio
