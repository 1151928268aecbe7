// daemon_threads.hpp - the threads the in-process tool launchers run their
// daemons on.
//
// Each launch runs one daemon on a thread of its own. A thread is joined
// once its daemon has returned, at the latest on the next launch, so a
// long batch of short-lived daemons holds only the stacks of the daemons
// still running, and the next daemon starts on a stack glibc cached from
// a finished one.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace tdp::paradyn {

class DaemonThreads {
 public:
  DaemonThreads() = default;
  ~DaemonThreads() { join_all(); }

  DaemonThreads(const DaemonThreads&) = delete;
  DaemonThreads& operator=(const DaemonThreads&) = delete;

  /// Joins every daemon that has returned, then runs `daemon` on a new
  /// thread.
  void launch(std::function<void()> daemon) {
    std::vector<Daemon> returned;
    {
      LockGuard lock(mutex_);
      auto done = std::partition(daemons_.begin(), daemons_.end(), [](const Daemon& d) {
        return !d.returned->load(std::memory_order_acquire);
      });
      std::move(done, daemons_.end(), std::back_inserter(returned));
      daemons_.erase(done, daemons_.end());
    }
    // Each of these has left its daemon: the join waits for the exit only.
    for (Daemon& d : returned) d.thread.join();

    auto flag = std::make_shared<std::atomic<bool>>(false);
    std::thread thread([daemon = std::move(daemon), flag] {
      daemon();
      flag->store(true, std::memory_order_release);
    });
    LockGuard lock(mutex_);
    daemons_.push_back({std::move(thread), std::move(flag)});
  }

  /// Waits for every daemon, including any launched while it waits.
  void join_all() {
    while (true) {
      std::vector<Daemon> to_join;
      {
        LockGuard lock(mutex_);
        to_join.swap(daemons_);
      }
      if (to_join.empty()) break;
      for (Daemon& d : to_join) d.thread.join();
    }
  }

 private:
  struct Daemon {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> returned;
  };

  Mutex mutex_{"DaemonThreads::mutex_"};
  std::vector<Daemon> daemons_ TDP_GUARDED_BY(mutex_);
};

}  // namespace tdp::paradyn
