#include "net/reactor.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

namespace tdp::net {

Reactor::Reactor() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    wake_r_ = fds[0];
    wake_w_ = fds[1];
    ::fcntl(wake_r_, F_SETFL, O_NONBLOCK);
    ::fcntl(wake_w_, F_SETFL, O_NONBLOCK);
    ::fcntl(wake_r_, F_SETFD, FD_CLOEXEC);
    ::fcntl(wake_w_, F_SETFD, FD_CLOEXEC);
  }
}

Reactor::~Reactor() {
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
}

void Reactor::add_readable(int fd, Handler handler) {
  {
    LockGuard lock(mutex_);
    handlers_[fd] = std::move(handler);
    ++generation_;
  }
  // Wake a poll blocked on the stale set so the new fd is watched promptly.
  if (wake_w_ >= 0) {
    const char byte = 'w';
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &byte, 1);
  }
}

void Reactor::remove(int fd) {
  LockGuard lock(mutex_);
  if (handlers_.erase(fd) != 0) ++generation_;
  // No wake needed: a removed fd at worst causes one spurious-but-ignored
  // dispatch attempt (the handler lookup below misses).
}

void Reactor::refresh_cache_locked() {
  if (cache_generation_ == generation_) {
    // Watch set unchanged: just clear stale revents.
    for (auto& pfd : pfds_) pfd.revents = 0;
    return;
  }
  pfds_.clear();
  pfd_fds_.clear();
  pfds_.reserve(handlers_.size() + 1);
  pfd_fds_.reserve(handlers_.size());
  for (const auto& [fd, handler] : handlers_) {
    pfds_.push_back({fd, POLLIN, 0});
    pfd_fds_.push_back(fd);
  }
  pfds_.push_back({wake_r_, POLLIN, 0});
  cache_generation_ = generation_;
}

int Reactor::run_once(int timeout_ms) {
  {
    LockGuard lock(mutex_);
    refresh_cache_locked();
  }

  int rc;
  do {
    rc = ::poll(pfds_.data(), pfds_.size(), timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) return 0;

  // Drain wakeup bytes first so stop() is observed promptly.
  if (pfds_.back().revents & (POLLIN | POLLHUP | POLLERR)) {
    char buf[64];
    while (::read(wake_r_, buf, sizeof(buf)) > 0) {
    }
  }

  int dispatched = 0;
  for (std::size_t i = 0; i + 1 < pfds_.size(); ++i) {
    if ((pfds_[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Handler handler;
    {
      LockGuard lock(mutex_);
      auto it = handlers_.find(pfd_fds_[i]);
      if (it == handlers_.end()) continue;  // removed by an earlier handler
      handler = it->second;                 // copy so handlers may remove(fd)
    }
    // Handlers run with the reactor unlocked so they may re-enter
    // add_readable/remove without deadlocking.
    mutex_.assert_not_held();
    handler();
    ++dispatched;
  }
  return dispatched;
}

void Reactor::stop() {
  if (wake_w_ >= 0) {
    const char byte = 'w';
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &byte, 1);
  }
}

std::size_t Reactor::watch_count() const {
  LockGuard lock(mutex_);
  return handlers_.size();
}

}  // namespace tdp::net
