// frontend.hpp - the Paradyn front-end: "contains the user interface that
// allows the user to display performance data, use the Performance
// Consultant to automatically find bottlenecks, start or stop the
// application, and monitor the status of the application. The paradynds
// operate under the control of paradyn" (Section 4.2).
//
// The front-end publishes listener ports that paradynds connect back to
// (the -p/-P arguments of Figure 5B; Section 4.3: "port arguments should
// be published by the Paradyn front-end and disseminated to remote sites
// as attribute values"). We accept daemon connections on one data/control
// listener and expose both port numbers for fidelity with the submit-file
// interface. One I/O thread serves the listener and every daemon from a
// net::Reactor poll loop (Section 3.3), so no daemon costs a thread.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "attrspace/attr_client.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "paradyn/consultant.hpp"
#include "paradyn/metrics.hpp"
#include "util/sync.hpp"

namespace tdp::paradyn {

class Frontend {
 public:
  explicit Frontend(std::shared_ptr<net::Transport> transport);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Binds and starts accepting paradynd connections. Returns the concrete
  /// address daemons should dial.
  Result<std::string> start(const std::string& listen_address);

  void stop();

  [[nodiscard]] std::string address() const { return address_; }

  /// Host / first port / second port, for publication into attribute
  /// spaces and submit files. For inproc transports host is the full
  /// address and the ports are 0.
  [[nodiscard]] std::string host() const;
  [[nodiscard]] int port() const;
  [[nodiscard]] int port2() const noexcept { return port(); }

  /// Aggregated performance data across all connected daemons.
  [[nodiscard]] MetricStore& metrics() noexcept { return metrics_; }

  /// Number of daemons that completed the hello handshake.
  [[nodiscard]] std::size_t daemon_count() const;

  /// Pids of applications whose daemons sent a final report.
  [[nodiscard]] std::vector<proc::Pid> finished_pids() const;

  /// Total reports received (benches).
  [[nodiscard]] std::size_t reports_received() const noexcept {
    return reports_.load(std::memory_order_relaxed);
  }

  /// Sends a command to the daemon monitoring `pid` ("pause", "continue",
  /// "kill", "instrument", "uninstrument"). Fire-and-forget; the reply is
  /// consumed by the I/O thread.
  Status command(proc::Pid pid, const std::string& cmd,
                 const std::map<std::string, std::string>& fields = {});

  /// Broadcast to every connected daemon.
  Status command_all(const std::string& cmd,
                     const std::map<std::string, std::string>& fields = {});

  /// Runs the Performance Consultant over the aggregated data.
  std::vector<PerformanceConsultant::Finding> run_consultant(
      PerformanceConsultant::Options options = {});

  /// Publishes this front-end's contact information (host/ports) into the
  /// central attribute space so starters can disseminate it to remote
  /// LASSes — the paper's "in a complete TDP framework, port arguments
  /// should be published by the Paradyn front-end and disseminated to
  /// remote sites as attribute values" (Section 4.3), which the pilot
  /// left as manual submit-file entries. The CASS connection is kept for
  /// the front-end's lifetime (tdp_exit on stop()).
  Status publish_contact(const std::string& cass_address,
                         const std::string& context = "tdp");

 private:
  /// One daemon connection; `pid` is set by its hello.
  struct Connection {
    std::shared_ptr<net::Endpoint> endpoint;
    proc::Pid pid = 0;
  };

  void on_acceptable();
  void on_readable(int fd);
  void handle_message(const net::Message& msg, Connection& conn);

  std::shared_ptr<net::Transport> transport_;
  std::unique_ptr<net::Listener> listener_;
  std::string address_;
  MetricStore metrics_;
  net::Reactor reactor_;
  std::thread io_thread_;
  /// Keyed by readable_fd. Touched only by the I/O thread, and by stop()
  /// once that thread has been joined.
  std::map<int, Connection> conns_;

  mutable Mutex mutex_{"Frontend::mutex_"};
  std::map<proc::Pid, std::shared_ptr<net::Endpoint>> daemons_ TDP_GUARDED_BY(mutex_);
  std::vector<proc::Pid> finished_ TDP_GUARDED_BY(mutex_);

  std::atomic<bool> running_{false};
  std::atomic<std::size_t> reports_{0};
  /// Touched only from the user-facing thread (start/stop/publish_contact).
  std::unique_ptr<attr::AttrClient> cass_;
};

}  // namespace tdp::paradyn
