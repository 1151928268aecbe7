// inproc_tool.hpp - runs paradynd as an in-process thread instead of a
// separate executable. This is how the virtual-cluster benches and the
// single-binary tests co-locate a whole Parador deployment (Condor pool +
// Paradyn front-end + daemons) in one address space, while every protocol
// step — LASS handshake, attach routing, front-end reports — still flows
// through the real TDP code paths.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "condor/starter.hpp"
#include "paradyn/daemon_threads.hpp"
#include "paradyn/paradynd.hpp"
#include "util/sync.hpp"

namespace tdp::paradyn {

class InProcParadynLauncher final : public condor::ToolLauncher {
 public:
  struct Options {
    std::shared_ptr<net::Transport> transport;
    std::string frontend_address;  ///< empty = discover via attributes
    std::int64_t sample_quantum_micros = 10'000;
    int nfuncs = 24;
    /// Max wall-clock ms each daemon thread runs before giving up.
    int run_timeout_ms = 30'000;
    /// Failure-recovery policy for each daemon's LASS session.
    attr::RetryPolicy retry;
  };

  explicit InProcParadynLauncher(Options options) : options_(std::move(options)) {}
  ~InProcParadynLauncher() override { join_all(); }

  Result<proc::Pid> launch(const condor::ToolDaemonSpec& spec,
                           const std::vector<std::string>& argv,
                           const std::string& lass_address,
                           const std::string& context,
                           const std::string& pid_attribute,
                           TdpSession& rm_session) override;

  /// Waits for every launched daemon thread to finish.
  void join_all() { daemons_.join_all(); }

  [[nodiscard]] std::size_t daemons_launched() const {
    return launched_.load(std::memory_order_relaxed);
  }

  /// Status of the most recently finished daemon (tests).
  [[nodiscard]] Status last_daemon_status() const;

 private:
  Options options_;
  mutable Mutex mutex_{"InProcParadynLauncher::mutex_"};
  Status last_status_ TDP_GUARDED_BY(mutex_);

  std::atomic<std::size_t> launched_{0};
  DaemonThreads daemons_;
};

}  // namespace tdp::paradyn
