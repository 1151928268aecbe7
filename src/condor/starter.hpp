// starter.hpp - condor_starter: "the entity that spawns the remote Condor
// job on a given machine. It sets up the execution environment and
// monitors the job once it is running" (Section 4.1). Together with the
// startd it forms the RM of the TDP model, and it is the daemon that was
// modified in Parador to speak TDP (Figure 6):
//
//   Step 1: starter runs tdp_init (creating/joining the LASS) and launches
//           the application with tdp_create_process(paused) when the
//           submit file carries +SuspendJobAtExec;
//   Step 2: starter launches the tool daemon (ToolDaemonCmd) as a normal
//           process, with %pid placeholders expanded;
//   Step 3: the paradynd blocks in tdp_get("pid") until the starter's
//           tdp_put lands the application pid in the LASS, attaches, and
//   Step 4: continues the application and controls it from then on.
//
// The starter also implements the MPI universe's staged startup
// (Section 4.3): rank 0 first, tool attached, and the remaining ranks
// created once rank 0 has been set running.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attrspace/attr_server.hpp"
#include "attrspace/telemetry_export.hpp"
#include "condor/file_transfer.hpp"
#include "condor/job.hpp"
#include "core/tdp.hpp"
#include "net/transport.hpp"
#include "proc/backend.hpp"
#include "util/flightrec.hpp"
#include "util/lease.hpp"

namespace tdp::condor {

/// Where the starter reports job progress (implemented by the shadow).
class StatusSink {
 public:
  virtual ~StatusSink() = default;
  virtual void on_job_status(JobId id, JobStatus status, int exit_code,
                             const std::string& detail) = 0;

  /// Live standard-output forwarding (the paper's "standard input and
  /// output management": the job's stdio "appears at the same location as
  /// the RT's front-end" — here, the submit side — while the job runs).
  /// Default: ignore; the shadow accumulates it.
  virtual void on_job_output(JobId id, const std::string& chunk) {
    (void)id;
    (void)chunk;
  }

  // --- remote system calls (standard universe, Section 4.1): file I/O
  // "sent over the network to the condor_shadow which actually performs
  // the system call on the submit machine". Default: unsupported; the
  // Shadow implements them against the submit directory. ---

  virtual Result<std::string> remote_read(const std::string& path) {
    (void)path;
    return make_error(ErrorCode::kUnsupported, "no remote-syscall channel");
  }
  virtual Status remote_write(const std::string& path, const std::string& data) {
    (void)path;
    (void)data;
    return make_error(ErrorCode::kUnsupported, "no remote-syscall channel");
  }
};

/// Strategy for launching the run-time tool daemon. The default executes
/// ToolDaemonCmd as a real process through the RM's TDP session; tests and
/// the virtual cluster substitute in-process tool objects.
class ToolLauncher {
 public:
  virtual ~ToolLauncher() = default;

  /// `argv` already has %pid etc. expanded. `pid_attribute` names the LASS
  /// attribute this daemon must block on for its application pid ("pid"
  /// for rank 0 / vanilla jobs, "pid.<r>" for MPI rank r — the paper's MPI
  /// universe attaches one paradynd per rank, Section 4.3). Returns the
  /// tool's pid (or a synthetic id for in-process tools).
  virtual Result<proc::Pid> launch(const ToolDaemonSpec& spec,
                                   const std::vector<std::string>& argv,
                                   const std::string& lass_address,
                                   const std::string& context,
                                   const std::string& pid_attribute,
                                   TdpSession& rm_session) = 0;
};

/// Default launcher: tdp_create_process(RT, run) per Figure 3A.
class ExecToolLauncher final : public ToolLauncher {
 public:
  explicit ExecToolLauncher(std::string scratch_dir)
      : scratch_dir_(std::move(scratch_dir)) {}

  Result<proc::Pid> launch(const ToolDaemonSpec& spec,
                           const std::vector<std::string>& argv,
                           const std::string& lass_address,
                           const std::string& context,
                           const std::string& pid_attribute,
                           TdpSession& rm_session) override;

 private:
  std::string scratch_dir_;
};

struct StarterConfig {
  std::string machine_name = "exec-host";
  std::string submit_dir;          ///< where inputs live / outputs return
  std::string scratch_base = "/tmp";
  std::shared_ptr<net::Transport> transport;
  std::shared_ptr<proc::ProcessBackend> backend;
  /// Listen address for this job's LASS; empty selects
  /// "inproc://lass-<machine>-<job>" for in-process transports and
  /// "127.0.0.1:0" for TCP.
  std::string lass_listen_address;
  /// Optional external tool launcher (not owned); nullptr = exec launcher.
  ToolLauncher* tool_launcher = nullptr;
  /// Skip real filesystem staging/stdio (virtual-cluster mode).
  bool use_real_files = true;
  /// Front-end contact info published into the LASS (Section 4.3: "port
  /// arguments should be published by the front-end and disseminated to
  /// remote sites as attribute values").
  std::string frontend_host;
  int frontend_port = 0;
  int frontend_port2 = 0;
  /// RM proxy address published for firewalled RT->front-end connections.
  std::string proxy_address;
  /// Central attribute space (CASS) on the submit/front-end host. When
  /// set and no static frontend_host is configured, the starter reads the
  /// front-end contact info from the CASS and disseminates it into this
  /// job's LASS (the paper's Section 4.3 "complete TDP framework" flow).
  std::string cass_address;
  /// Fail the job if a requested tool has not continued the paused
  /// application within this bound (<=0 disables; virtual mode ignores).
  int tool_wait_timeout_ms = 30'000;
  /// Stream the job's stdout to the StatusSink while it runs (real-files
  /// mode only).
  bool live_stdio = false;
  /// Failure-recovery policy for this starter's TDP session (LASS link).
  attr::RetryPolicy retry;

  /// Lease-based tool-daemon supervision. When enabled the starter watches
  /// tdp.liveness.paradynd.* beats in its LASS, publishes its own
  /// tdp.liveness.starter.<machine> beat, and relaunches a tool daemon
  /// whose lease expires while its application rank is still running (the
  /// pid is still in the LASS, so the replacement reattaches through the
  /// normal Figure 6 handshake). Backend-pid polling cannot see in-process
  /// tools (synthetic pids); the lease can.
  bool tool_lease_enabled = false;
  lease::Config tool_lease;
  /// Relaunches per rank before the starter gives up on that tool.
  int tool_restart_budget = 2;
  /// Clock for lease expiry decisions (tests inject a ManualClock).
  const Clock* lease_clock = &RealClock::instance();

  // --- black-box flight recorder (PR 9) ---

  /// This starter's own flight recorder (role "starter"): launch, tool
  /// lease expiries and relaunches land in it. Null = off.
  std::shared_ptr<flightrec::Recorder> recorder;
  /// The tool daemon's ring, when the launcher shares one. The starter is
  /// the peer that detects a tool death (lease expiry), so it dumps this
  /// last-known ring as a capsule into capsule_dir at that moment.
  std::shared_ptr<flightrec::Recorder> tool_recorder;
  /// Where tool capsules go; empty disables the dump.
  std::string capsule_dir;
};

class Starter {
 public:
  Starter(JobRecord job, StarterConfig config, StatusSink* sink);
  ~Starter();

  Starter(const Starter&) = delete;
  Starter& operator=(const Starter&) = delete;

  /// Performs Figure 6 steps 1-2: sandbox, LASS, tdp_init, application
  /// creation (paused when a tool will attach), attribute publication,
  /// tool launch. On success the job is kRunning (from the RM's view).
  Status launch();

  /// One turn of the starter's central poll loop: services TDP events,
  /// advances MPI staged startup, detects completion/failure, stages
  /// output files, and reports to the shadow, then services events until
  /// a pass dispatches nothing. Returns true when the job has reached a
  /// terminal state.
  bool pump();

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] const JobRecord& job() const noexcept { return job_; }
  [[nodiscard]] std::string lass_address() const { return lass_address_; }
  [[nodiscard]] std::string scratch_dir() const { return scratch_dir_; }
  [[nodiscard]] const std::string& context() const { return context_; }

  /// Pid of rank `rank` (0 = the master process). 0 when not yet created.
  [[nodiscard]] proc::Pid app_pid(int rank = 0) const;

  /// Pids of the co-launched auxiliary services.
  [[nodiscard]] const std::vector<proc::Pid>& aux_pids() const noexcept {
    return aux_pids_;
  }

  /// Number of ranks created so far (MPI staged startup observability).
  [[nodiscard]] int ranks_created() const noexcept {
    return static_cast<int>(rank_pids_.size());
  }

  /// The RM-side TDP session (tests; also how a startd injects control).
  TdpSession& rm_session() { return *session_; }

  /// This job's LASS, which the starter started and joined over its owner
  /// endpoint (tests). Valid between launch() and shutdown().
  attr::AttrServer& lass() { return *lass_; }

  /// Kills all application processes and tears down the LASS.
  void shutdown();

  /// Tool-daemon relaunches performed for `rank` after lease expiry.
  [[nodiscard]] int tool_restarts(int rank = 0) const {
    auto it = tool_restarts_.find(rank);
    return it == tool_restarts_.end() ? 0 : it->second;
  }

 private:
  /// pump() without the final serve-until-quiet loop.
  bool turn();
  Status setup_sandbox();
  Status start_lass();
  Status init_tdp();
  Status create_rank(int rank, proc::CreateMode mode);
  Status publish_job_attributes();
  Status launch_tool(int rank);
  Status launch_aux_services();
  void finish(JobStatus status, int exit_code, const std::string& detail);
  void forward_stdio();
  void watch_tool_daemons();
  void check_tool_leases();
  [[nodiscard]] bool wants_paused_start() const;
  [[nodiscard]] std::map<std::string, std::string> placeholder_vars() const;

  JobRecord job_;
  StarterConfig config_;
  StatusSink* sink_;

  std::unique_ptr<attr::AttrServer> lass_;
  /// Publishes this RM's metrics into its own LASS (tdp.telemetry.starter.*)
  /// each pump turn, so tools and tdptop observe the RM through the same
  /// attribute space that carries job control.
  std::unique_ptr<attr::TelemetryPublisher> telemetry_pub_;
  std::string lass_address_;
  std::string context_;
  std::unique_ptr<TdpSession> session_;
  std::unique_ptr<ExecToolLauncher> default_launcher_;

  std::string scratch_dir_;
  std::map<int, proc::Pid> rank_pids_;
  std::map<int, proc::Pid> tool_pids_;  ///< one tool daemon per rank
  std::vector<proc::Pid> aux_pids_;     ///< co-launched auxiliary services
  proc::Pid tool_pid_ = 0;              ///< rank 0's tool daemon
  bool all_ranks_created_ = false;
  bool done_ = false;
  std::int64_t launch_time_micros_ = 0;
  std::size_t stdio_offset_ = 0;          ///< bytes of stdout forwarded so far
  std::map<int, bool> tool_death_reported_;

  /// Lease-based tool supervision (tool_lease_enabled).
  std::unique_ptr<lease::LeaseMonitor> tool_monitor_;
  std::unique_ptr<lease::HeartbeatPublisher> own_beat_;
  std::map<int, int> tool_restarts_;
};

}  // namespace tdp::condor
