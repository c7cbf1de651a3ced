#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <utility>

#include "util/common.h"

namespace sws::net {

EventLoop::EventLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  SWS_CHECK(epoll_fd_ >= 0) << "epoll_create1 failed";
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  SWS_CHECK(wake_fd_ >= 0) << "eventfd failed";
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  SWS_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void EventLoop::AddFd(int fd, uint32_t events, FdHandler handler) {
  handlers_[fd] = std::make_shared<const FdHandler>(std::move(handler));
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  SWS_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0)
      << "epoll_ctl ADD failed for fd " << fd;
}

void EventLoop::ModFd(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  SWS_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0)
      << "epoll_ctl MOD failed for fd " << fd;
}

void EventLoop::DelFd(int fd) {
  handlers_.erase(fd);
  // The fd may already be closed (EBADF) — deregistration is best-effort.
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::Wake() {
  uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore short writes.
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  Wake();
}

void EventLoop::RunInLoop(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    queue_.push_back(std::move(fn));
  }
  Wake();
}

void EventLoop::SetTick(std::chrono::milliseconds period,
                        std::function<void()> fn) {
  tick_period_ = period;
  tick_ = std::move(fn);
}

void EventLoop::DrainQueue() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch.swap(queue_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  auto next_tick = std::chrono::steady_clock::now() + tick_period_;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) break;
    }
    int timeout_ms = -1;
    if (tick_ && tick_period_.count() > 0) {
      auto now = std::chrono::steady_clock::now();
      if (now >= next_tick) {
        tick_();
        now = std::chrono::steady_clock::now();
        next_tick = now + tick_period_;
      }
      timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(next_tick - now)
              .count() +
          1);
      if (timeout_ms < 1) timeout_ms = 1;
    }
    int n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) continue;  // EINTR
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain;
        [[maybe_unused]] ssize_t r = read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      // A handler earlier in this batch may have closed this fd; the
      // fresh lookup (and the pinned reference, so a handler can DelFd
      // itself) makes that safe.
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      const std::shared_ptr<const FdHandler> handler = it->second;
      (*handler)(events[i].events);
    }
    DrainQueue();
  }
  DrainQueue();
}

}  // namespace sws::net
