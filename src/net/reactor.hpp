// reactor.hpp - the central poll loop every TDP daemon runs.
//
// Section 3.3 of the paper: "Most RTs and RMs have a central polling loop
// where they use an operation such as the Unix poll or select to wait for
// the next event to process." The Reactor is that loop, factored out so the
// starter, paradynd, LASS/CASS servers, proxy and examples all share one
// implementation. Handlers are invoked on the thread that calls run_once,
// which is the paper's "callback at a well-known and safe point" design.
//
// run_once caches the pollfd array and rebuilds it only when the watch set
// changes (add_readable/remove bump a generation counter), so a server
// multiplexing hundreds of idle connections does not re-copy the handler
// map on every loop iteration. One thread drives run_once at a time, in a
// loop under its owner's own running flag; add_readable/remove/stop may be
// called from any thread and wake a blocked poll.
#pragma once

#include <poll.h>

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "util/status.hpp"
#include "util/sync.hpp"

namespace tdp::net {

class Reactor {
 public:
  using Handler = std::function<void()>;

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Registers `handler` to run whenever `fd` polls readable. Replaces any
  /// existing handler for the same descriptor. Wakes a blocked run_once so
  /// the new descriptor is watched promptly.
  void add_readable(int fd, Handler handler);

  /// Stops watching `fd`; safe to call from inside a handler.
  void remove(int fd);

  /// Polls all registered descriptors once and dispatches ready handlers.
  /// Returns the number of handlers invoked; 0 on timeout.
  /// timeout_ms: <0 block until an event or stop(), 0 poll, >0 bounded.
  int run_once(int timeout_ms);

  /// Wakes a blocked run_once, or makes the next one return at once: the
  /// wake byte stays in the pipe until a run_once drains it. Thread-safe.
  void stop();

  [[nodiscard]] std::size_t watch_count() const;

 private:
  /// Rebuilds pfds_/pfd_fds_ from handlers_ when generation_ moved.
  void refresh_cache_locked() TDP_REQUIRES(mutex_);

  mutable Mutex mutex_{"Reactor::mutex_"};
  std::map<int, Handler> handlers_ TDP_GUARDED_BY(mutex_);
  /// Bumped by add_readable/remove.
  std::uint64_t generation_ TDP_GUARDED_BY(mutex_) = 1;
  /// Generation pfds_ was built from.
  std::uint64_t cache_generation_ TDP_GUARDED_BY(mutex_) = 0;

  /// Cached poll set (wake pipe appended last). Owned by the loop thread
  /// between run_once calls; rebuilt under mutex_ when stale.
  std::vector<struct pollfd> pfds_;
  std::vector<int> pfd_fds_;

  int wake_r_ = -1;
  int wake_w_ = -1;
};

}  // namespace tdp::net
