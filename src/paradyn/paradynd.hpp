// paradynd.hpp - the Paradyn daemon, "the agent that runs on each remote
// host where the application program is running ... In TDP terminology,
// paradynd is the RT" (Section 4.2).
//
// Under TDP the daemon's startup is exactly Figure 6 steps 3-4:
//   * tdp_init against the LASS the starter created,
//   * a blocking tdp_get("pid") that parks until the starter's tdp_put,
//   * tdp_attach (routed to the RM, which owns process control),
//   * initialization: load the runtime library, parse the executable for
//     symbols and instrumentation points, connect to the front-end
//     (directly, or through the RM's proxy when a firewall intervenes),
//   * tdp_continue_process to let the application run from its very first
//     instruction — the whole point of create-paused.
//
// After startup the daemon runs the canonical Section 3.3 poll loop:
// service TDP events, drain front-end commands, sample instrumentation,
// ship kParadynReport batches, and watch for application exit.
#pragma once

#include <memory>
#include <string>

#include "attrspace/telemetry_export.hpp"
#include "core/tdp.hpp"
#include "paradyn/dyninst.hpp"
#include "paradyn/metrics.hpp"
#include "util/flightrec.hpp"
#include "util/lease.hpp"

namespace tdp::paradyn {

struct ParadyndConfig {
  /// LASS address; a real daemon binary takes it from TDP_LASS_ADDRESS.
  std::string lass_address;
  std::string context = attr::kDefaultContext;
  std::shared_ptr<net::Transport> transport;

  /// Attach mode (Figure 3B): operate on this already-known pid. 0 selects
  /// create mode: block on tdp_get(pid_attribute).
  proc::Pid attach_pid = 0;

  /// LASS attribute carrying the application pid. Vanilla/rank-0 daemons
  /// use "pid"; per-rank MPI daemons use "pid.<r>" (set by the starter via
  /// TDP_PID_ATTRIBUTE).
  std::string pid_attribute = "pid";

  /// Explicit front-end address; empty = discover via the frontend_host /
  /// frontend_port attributes the starter published (may be absent: the
  /// daemon then runs detached and only aggregates locally).
  std::string frontend_address;

  /// Virtual CPU micros attributed to the app per poll turn while running.
  std::int64_t sample_quantum_micros = 10'000;

  /// Ship a report to the front-end every N poll turns.
  int report_every = 5;

  /// Synthesized symbol-table size.
  int nfuncs = 24;

  /// Timeout for the blocking pid get (create mode), ms.
  int pid_wait_timeout_ms = 10'000;

  std::string daemon_name = "paradynd";

  /// Failure-recovery policy for the daemon's LASS session.
  attr::RetryPolicy retry;

  /// Liveness lease: the daemon publishes heartbeats under
  /// tdp.liveness.paradynd.<pid_attribute> so the starter can tell a dead
  /// tool daemon (restartable) from a dead application (job over). In-proc
  /// tools get synthetic pids, so process-table liveness cannot see them;
  /// the lease is the only death signal that works for every launcher.
  bool publish_liveness = true;
  lease::Config liveness;

  /// Clock driving heartbeat pacing (tests inject a ManualClock).
  const Clock* clock = &RealClock::instance();

  /// Optional black-box flight recorder (PR 9), shared with the launcher
  /// so the ring survives abandon(): beats, startup and abandonment land
  /// in it and the peer that detects the death dumps the capsule.
  std::shared_ptr<flightrec::Recorder> recorder;
};

class Paradynd {
 public:
  explicit Paradynd(ParadyndConfig config);
  ~Paradynd();

  Paradynd(const Paradynd&) = delete;
  Paradynd& operator=(const Paradynd&) = delete;

  /// Runs the full startup handshake described above. On return the
  /// application is running with instrumentation in place, unless the
  /// LASS went away after the front-end link came up: then the job is
  /// over and run() sends the final report.
  Status start();

  /// One poll-loop turn. Returns false once the application has exited
  /// (the final report has been sent).
  bool poll_once();

  /// Drives poll_once until app exit or timeout (wall clock).
  Status run(int timeout_ms);

  // --- observability ---
  [[nodiscard]] proc::Pid app_pid() const noexcept { return app_pid_; }
  [[nodiscard]] bool connected_to_frontend() const noexcept {
    return frontend_ != nullptr;
  }
  [[nodiscard]] Inferior* inferior() { return inferior_.get(); }
  [[nodiscard]] const MetricStore& local_metrics() const { return metrics_; }
  [[nodiscard]] TdpSession& session() { return *session_; }
  [[nodiscard]] int reports_sent() const noexcept { return reports_sent_; }
  [[nodiscard]] bool app_exited() const noexcept { return app_exited_; }

  /// Detaches cleanly: tdp_exit and front-end disconnect.
  Status stop();

  /// Simulates daemon death: every connection is severed without protocol,
  /// heartbeats stop, the application keeps running (Section 2.3: the RM,
  /// not the RT, owns the processes). A replacement daemon reattaches via
  /// the normal Figure 6 handshake - the pid is still in the LASS.
  void abandon();

  /// Heartbeats published so far (tests).
  [[nodiscard]] std::uint64_t beats_sent() const {
    return heartbeat_ ? heartbeat_->beats_sent() : 0;
  }

 private:
  /// Learns the application pid; `writer` receives the trace context the
  /// starter published it under (left invalid in attach mode).
  Status discover_application(telemetry::SpanContext* writer);
  Status initialize_inferior();
  Status connect_frontend();
  void handle_frontend_command(const net::Message& command);
  Status send_report(bool final_report);

  ParadyndConfig config_;
  std::unique_ptr<TdpSession> session_;
  /// Publishes this RT's metrics into the LASS (tdp.telemetry.paradynd.*)
  /// over the session, one batched round trip per interval.
  std::unique_ptr<attr::TelemetryPublisher> telemetry_pub_;
  /// Beats tdp.liveness.paradynd.<pid_attribute> into the LASS.
  std::unique_ptr<lease::HeartbeatPublisher> heartbeat_;
  std::unique_ptr<net::Endpoint> frontend_;
  std::unique_ptr<Inferior> inferior_;
  MetricStore metrics_;
  std::vector<Sample> unreported_;
  proc::Pid app_pid_ = 0;
  std::string executable_;
  int polls_ = 0;
  int reports_sent_ = 0;
  bool app_exited_ = false;
  bool started_ = false;
};

}  // namespace tdp::paradyn
