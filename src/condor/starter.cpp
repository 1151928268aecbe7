#include "condor/starter.hpp"

#include <filesystem>
#include <fstream>
#include <optional>

#include "attrspace/attr_protocol.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"
#include "util/telemetry.hpp"

namespace tdp::condor {

namespace {
const log::Logger kLog("starter");

/// Attribute naming for per-rank pids: rank 0 is also published under the
/// plain "pid" name paradynd blocks on (Figure 6 step 3).
std::string rank_pid_attr(int rank) { return "pid." + std::to_string(rank); }
}  // namespace

Result<proc::Pid> ExecToolLauncher::launch(const ToolDaemonSpec& spec,
                                           const std::vector<std::string>& argv,
                                           const std::string& lass_address,
                                           const std::string& context,
                                           const std::string& pid_attribute,
                                           TdpSession& rm_session) {
  if (argv.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "tool argv empty");
  }
  proc::CreateOptions options;
  options.argv = argv;
  options.mode = proc::CreateMode::kRun;
  options.working_dir = scratch_dir_;
  // The tool daemon finds its TDP environment through these variables, the
  // machine-readable form of the "-a%pid" bootstrap hack the paper used.
  options.env = {"TDP_LASS_ADDRESS=" + lass_address, "TDP_CONTEXT=" + context,
                 "TDP_PID_ATTRIBUTE=" + pid_attribute};
  if (!spec.output.empty()) {
    options.stdout_path = scratch_dir_ + "/" + spec.output;
  }
  if (!spec.error.empty()) {
    options.stderr_path = scratch_dir_ + "/" + spec.error;
  }
  return rm_session.create_process(options);
}

Starter::Starter(JobRecord job, StarterConfig config, StatusSink* sink)
    : job_(std::move(job)), config_(std::move(config)), sink_(sink) {
  context_ = "job-" + std::to_string(job_.id);
}

Starter::~Starter() { shutdown(); }

bool Starter::wants_paused_start() const {
  // Only the explicit submit-file directive pauses the application
  // (Figure 5B: "+SuspendJobAtExec = True ... to allow paradynd to monitor
  // the application process from scratch"). A tool daemon without it
  // attaches to the already-running process (scheme 3 of Section 2.2).
  return job_.description.suspend_job_at_exec;
}

Status Starter::launch() {
  // Join the job's causal tree: the pool's startd.claim span is usually the
  // innermost context (activation happens on the negotiate thread); the
  // job record's serialized submit context is the fallback for starters
  // driven directly (tests). An untraced job records nothing.
  telemetry::ScopedAmbient ambient(telemetry::parse_context(job_.trace));
  std::optional<telemetry::Span> span;
  if (telemetry::current_context().valid()) {
    span.emplace("starter.launch", "starter");
  }
  telemetry::Registry::instance().counter("starter.launches").inc();
  launch_time_micros_ = RealClock::instance().now_micros();
  TDP_RETURN_IF_ERROR(setup_sandbox());
  TDP_RETURN_IF_ERROR(start_lass());
  TDP_RETURN_IF_ERROR(init_tdp());  // Figure 6 step 1: tdp_init

  // Figure 6 step 1 (cont.): create the application. Vanilla creates the
  // single process; MPI creates only rank 0 now — the remaining ranks wait
  // until the master is running (Section 4.3).
  const proc::CreateMode mode = wants_paused_start() ? proc::CreateMode::kPaused
                                                     : proc::CreateMode::kRun;
  TDP_RETURN_IF_ERROR(create_rank(0, mode));
  if (job_.description.universe == Universe::kVanilla ||
      job_.description.machine_count == 1) {
    all_ranks_created_ = true;
  }

  TDP_RETURN_IF_ERROR(publish_job_attributes());

  // Auxiliary services (multicast/reduction comm nodes etc.) launch
  // before the tool so they are ready when daemons connect.
  TDP_RETURN_IF_ERROR(launch_aux_services());

  // Figure 6 step 2: launch the tool daemon as a regular process.
  if (job_.description.tool_daemon.present) {
    TDP_RETURN_IF_ERROR(launch_tool(0));
  }

  job_.status = JobStatus::kRunning;
  if (config_.recorder) {
    config_.recorder->state("launch", "job=" + std::to_string(job_.id));
  }
  if (sink_ != nullptr) {
    sink_->on_job_status(job_.id, JobStatus::kRunning, -1, "starter launched job");
  }
  return Status::ok();
}

Status Starter::setup_sandbox() {
  if (!config_.use_real_files) return Status::ok();
  auto scratch =
      FileTransfer::make_scratch_dir(config_.scratch_base,
                                     config_.machine_name + "-" +
                                         std::to_string(job_.id));
  if (!scratch.is_ok()) return scratch.status();
  scratch_dir_ = scratch.value();

  // Stage input files (job inputs and, per Figure 5B, the tool daemon
  // binary itself when listed in transfer_input_files).
  const bool remote_io =
      job_.description.universe == Universe::kStandard && sink_ != nullptr;
  for (const std::string& file : job_.description.transfer_input_files) {
    auto staged = FileTransfer::stage_in(config_.submit_dir, file, scratch_dir_);
    if (!staged.is_ok()) return staged.status();
  }
  if (!job_.description.input.empty()) {
    if (remote_io) {
      // Standard universe: the input bytes travel over the remote-syscall
      // channel, not a shared filesystem.
      auto data = sink_->remote_read(job_.description.input);
      if (!data.is_ok()) return data.status();
      const std::string local =
          scratch_dir_ + "/" +
          std::filesystem::path(job_.description.input).filename().string();
      std::ofstream out(local, std::ios::binary | std::ios::trunc);
      out << data.value();
      if (!out.good()) {
        return make_error(ErrorCode::kInternal, "cannot write staged input");
      }
    } else {
      auto staged =
          FileTransfer::stage_in(config_.submit_dir, job_.description.input,
                                 scratch_dir_);
      if (!staged.is_ok()) return staged.status();
    }
  }
  // If the executable was transferred, run the staged copy.
  if (job_.description.transfer_files || !job_.description.transfer_input_files.empty()) {
    std::filesystem::path staged_exe =
        std::filesystem::path(scratch_dir_) /
        std::filesystem::path(job_.description.executable).filename();
    std::error_code ec;
    if (!std::filesystem::exists(staged_exe, ec) &&
        !job_.description.executable.empty() &&
        job_.description.executable[0] != '/') {
      auto staged = FileTransfer::stage_in(config_.submit_dir,
                                           job_.description.executable,
                                           scratch_dir_);
      if (!staged.is_ok()) return staged.status();
    }
  }
  return Status::ok();
}

Status Starter::start_lass() {
  lass_ = std::make_unique<attr::AttrServer>(
      "LASS@" + config_.machine_name, config_.transport);
  std::string listen = config_.lass_listen_address;
  if (listen.empty()) {
    listen = "inproc://lass-" + config_.machine_name + "-" + std::to_string(job_.id);
  }
  auto started = lass_->start(listen);
  if (!started.is_ok()) {
    // TCP transports cannot listen on inproc-style defaults; retry on an
    // ephemeral localhost port.
    started = lass_->start("127.0.0.1:0");
    if (!started.is_ok()) return started.status();
  }
  lass_address_ = started.value();

  // Self-hosted telemetry: the starter writes its registry snapshot
  // straight into the LASS store (no wire hop - it owns the server).
  attr::TelemetryPublisher::Options pub_options;
  pub_options.role = "starter";
  pub_options.host = config_.machine_name;
  pub_options.context = context_;
  telemetry_pub_ = std::make_unique<attr::TelemetryPublisher>(
      std::move(pub_options), &lass_->store());

  if (config_.tool_lease_enabled) {
    tool_monitor_ =
        std::make_unique<lease::LeaseMonitor>(config_.tool_lease, config_.lease_clock);
    // Every paradynd beat that lands in this LASS renews its lease. The
    // store fires watchers outside its shard lock, and LeaseMonitor is
    // thread-safe, so observing straight from the I/O thread is fine.
    // A store callback on this LASS may also fire on the starter's own
    // thread, inside one of its RM calls (a put over the owner endpoint,
    // with that endpoint's send lock held), so it must never call back
    // into the RM session.
    lass_->store().subscribe(
        context_, std::string(lease::kLivenessPrefix) + "paradynd.*",
        [this](const std::string&, const std::string& attribute, const std::string&) {
          tool_monitor_->observe(attribute);
        });
    // The RM's own beat goes straight into its own store (no wire hop);
    // tdptop and pool-side monitors read it as tdp.liveness.starter.<host>.
    own_beat_ = std::make_unique<lease::HeartbeatPublisher>(
        lease::liveness_attr("starter", config_.machine_name), config_.tool_lease,
        config_.lease_clock,
        [this](const std::string& attribute, const std::string& value) {
          return lass_->store().put(context_, attribute, value);
        });
    own_beat_->beat_now();
  }
  return Status::ok();
}

Status Starter::init_tdp() {
  InitOptions options;
  options.role = Role::kResourceManager;
  options.context = context_;
  options.transport = config_.transport;
  options.backend = config_.backend;
  options.proxy_address = config_.proxy_address;
  options.cass_address = config_.cass_address;
  options.retry = config_.retry;
  // The starter started this LASS, so it joins over the server's owner
  // endpoint: its requests dispatch on this thread instead of crossing the
  // transport and waking the server's I/O thread and then this one.
  auto session = TdpSession::adopt(std::move(options), lass_->connect_local());
  if (!session.is_ok()) return session.status();
  session_ = std::move(session).value();

  // Section 2.2 step 5 support: if the RT announces readiness instead of
  // continuing the process itself, the RM starts the application.
  return session_->subscribe(
      attr::attrs::kRtReady, [this](const std::string&, const std::string& value) {
        if (value != "1" && value != "true") return;
        auto it = rank_pids_.find(0);
        if (it != rank_pids_.end()) {
          Status status = session_->continue_process(it->second);
          if (!status.is_ok()) {
            kLog.warn("rt_ready continue failed: ", status.to_string());
          }
        }
      });
}

Status Starter::create_rank(int rank, proc::CreateMode mode) {
  proc::CreateOptions options;

  std::string executable = job_.description.executable;
  if (config_.use_real_files && !executable.empty() && executable[0] != '/') {
    // Prefer the staged copy inside the sandbox.
    std::filesystem::path staged =
        std::filesystem::path(scratch_dir_) /
        std::filesystem::path(executable).filename();
    std::error_code ec;
    if (std::filesystem::exists(staged, ec)) executable = staged.string();
  }
  options.argv.push_back(executable);
  for (const std::string& arg : str::split_args(job_.description.arguments)) {
    options.argv.push_back(arg);
  }
  if (job_.description.universe == Universe::kMpi) {
    options.env.push_back("MPI_RANK=" + std::to_string(rank));
    options.env.push_back("MPI_SIZE=" + std::to_string(job_.description.machine_count));
  }
  options.mode = mode;
  options.sim_work_units = job_.description.sim_work_units;
  options.sim_exit_code = job_.description.sim_exit_code;

  if (config_.use_real_files) {
    options.working_dir = scratch_dir_;
    auto in_scratch = [this](const std::string& name) {
      return name.empty() ? std::string()
                          : scratch_dir_ + "/" +
                                std::filesystem::path(name).filename().string();
    };
    options.stdin_path = in_scratch(job_.description.input);
    std::string suffix = rank == 0 ? "" : "." + std::to_string(rank);
    if (!job_.description.output.empty()) {
      options.stdout_path = in_scratch(job_.description.output) + suffix;
    }
    if (!job_.description.error.empty()) {
      options.stderr_path = in_scratch(job_.description.error) + suffix;
    }
  }

  // Figure 6 step 1: while this span is open the pid puts below carry the
  // application's context on the wire, so paradynd's blocking get("pid")
  // later joins this exact subtree (the attach handoff).
  std::optional<telemetry::Span> span;
  if (telemetry::current_context().valid()) {
    span.emplace("app.create", "app");
  }

  Result<proc::Pid> pid = make_error(ErrorCode::kInternal, "not launched");
  if (rank == 0 && !job_.description.checkpoint.empty()) {
    // Resume from the checkpoint captured at the previous machine. The
    // restored process comes up paused-at-exec so a tool can re-attach;
    // without a paused-start request the starter releases it itself.
    pid = config_.backend->restore(job_.description.checkpoint, options);
    if (pid.is_ok() && !wants_paused_start()) {
      TDP_RETURN_IF_ERROR(config_.backend->continue_process(pid.value()));
    }
    if (!pid.is_ok() && pid.status().code() == ErrorCode::kUnsupported) {
      kLog.warn("job ", job_.id,
                " has a checkpoint but the backend cannot restore; "
                "restarting from scratch");
      pid = config_.backend->create_process(options);
    }
  } else {
    pid = config_.backend->create_process(options);
  }
  if (!pid.is_ok()) return pid.status();
  rank_pids_[rank] = pid.value();

  // Publish the pid: per-rank attribute always; rank 0 also as the plain
  // "pid" paradynd blocks on.
  TDP_RETURN_IF_ERROR(
      session_->put(rank_pid_attr(rank), std::to_string(pid.value())));
  if (rank == 0) {
    TDP_RETURN_IF_ERROR(
        session_->put(attr::attrs::kPid, std::to_string(pid.value())));
  }
  kLog.debug("job ", job_.id, " rank ", rank, " pid ", pid.value(), " (",
             proc::process_state_name(mode == proc::CreateMode::kRun
                                          ? proc::ProcessState::kRunning
                                          : proc::ProcessState::kPausedAtExec),
             ")");
  return Status::ok();
}

std::map<std::string, std::string> Starter::placeholder_vars() const {
  std::map<std::string, std::string> vars;
  auto rank0 = rank_pids_.find(0);
  vars["pid"] = rank0 != rank_pids_.end() ? std::to_string(rank0->second) : "0";
  vars["executable"] = job_.description.executable;
  vars["job_id"] = std::to_string(job_.id);
  vars["lass"] = lass_address_;
  vars["context"] = context_;
  vars["num_procs"] = std::to_string(job_.description.machine_count);
  return vars;
}

Status Starter::publish_job_attributes() {
  TDP_RETURN_IF_ERROR(session_->put(attr::attrs::kExecutableName,
                                    job_.description.executable));
  TDP_RETURN_IF_ERROR(session_->put(attr::attrs::kAppArgs,
                                    job_.description.arguments));
  TDP_RETURN_IF_ERROR(session_->put(attr::attrs::kJobId, std::to_string(job_.id)));
  TDP_RETURN_IF_ERROR(session_->put(
      attr::attrs::kNumProcs, std::to_string(job_.description.machine_count)));
  if (!scratch_dir_.empty()) {
    TDP_RETURN_IF_ERROR(session_->put(attr::attrs::kWorkingDir, scratch_dir_));
  }
  if (!config_.frontend_host.empty()) {
    TDP_RETURN_IF_ERROR(
        session_->put(attr::attrs::kFrontendHost, config_.frontend_host));
    TDP_RETURN_IF_ERROR(session_->put(attr::attrs::kFrontendPort,
                                      std::to_string(config_.frontend_port)));
    TDP_RETURN_IF_ERROR(session_->put(attr::attrs::kFrontendPort2,
                                      std::to_string(config_.frontend_port2)));
  } else if (session_->has_cass()) {
    // Dissemination path: the front-end published its contact info into
    // the central space; copy it into this job's local space so the tool
    // daemon finds it with plain LASS gets.
    // try_get, not a blocking get: an empty CASS (no front-end registered)
    // must not stall every job launch.
    auto host = session_->cass_try_get(attr::attrs::kFrontendHost);
    if (host.is_ok()) {
      TDP_RETURN_IF_ERROR(session_->put(attr::attrs::kFrontendHost, host.value()));
      auto port = session_->cass_try_get(attr::attrs::kFrontendPort);
      if (port.is_ok()) {
        TDP_RETURN_IF_ERROR(
            session_->put(attr::attrs::kFrontendPort, port.value()));
      }
      auto port2 = session_->cass_try_get(attr::attrs::kFrontendPort2);
      if (port2.is_ok()) {
        TDP_RETURN_IF_ERROR(
            session_->put(attr::attrs::kFrontendPort2, port2.value()));
      }
      kLog.debug("job ", job_.id,
                 ": front-end contact disseminated from the CASS");
    } else {
      kLog.debug("job ", job_.id, ": no front-end registered in the CASS");
    }
  }
  if (!config_.proxy_address.empty()) {
    TDP_RETURN_IF_ERROR(
        session_->put(attr::attrs::kProxyAddress, config_.proxy_address));
  }
  return Status::ok();
}

Status Starter::launch_tool(int rank) {
  const ToolDaemonSpec& spec = job_.description.tool_daemon;
  std::vector<std::string> argv;
  std::string cmd = spec.cmd;
  if (config_.use_real_files && !cmd.empty() && cmd[0] != '/') {
    std::filesystem::path staged =
        std::filesystem::path(scratch_dir_) / std::filesystem::path(cmd).filename();
    std::error_code ec;
    if (std::filesystem::exists(staged, ec)) cmd = staged.string();
  }
  argv.push_back(cmd);
  const std::string expanded =
      str::expand_placeholders(spec.args, placeholder_vars());
  for (const std::string& arg : str::split_args(expanded)) argv.push_back(arg);

  ToolLauncher* launcher = config_.tool_launcher;
  if (launcher == nullptr) {
    if (!default_launcher_) {
      default_launcher_ = std::make_unique<ExecToolLauncher>(scratch_dir_);
    }
    launcher = default_launcher_.get();
  }
  // Rank 0 blocks on the plain "pid" attribute (Figure 6 step 3); MPI
  // ranks r > 0 get their own daemon blocked on "pid.<r>" (Section 4.3:
  // "processes are created and stopped, paradynds attach to them").
  const std::string pid_attribute =
      rank == 0 ? std::string(attr::attrs::kPid) : rank_pid_attr(rank);
  auto pid =
      launcher->launch(spec, argv, lass_address_, context_, pid_attribute, *session_);
  if (!pid.is_ok()) return pid.status();
  tool_pids_[rank] = pid.value();
  if (rank == 0) tool_pid_ = pid.value();
  kLog.info("job ", job_.id, " tool daemon '", spec.cmd, "' launched for rank ",
            rank, " (pid ", pid.value(), ")");
  return Status::ok();
}

Status Starter::launch_aux_services() {
  for (std::size_t i = 0; i < job_.description.aux_services.size(); ++i) {
    proc::CreateOptions options;
    options.argv = str::split_args(job_.description.aux_services[i]);
    if (options.argv.empty()) continue;
    options.mode = proc::CreateMode::kRun;
    options.env = {"TDP_LASS_ADDRESS=" + lass_address_, "TDP_CONTEXT=" + context_};
    if (config_.use_real_files) options.working_dir = scratch_dir_;
    // Long-lived by default in the simulated world: the service outlives
    // the job unless explicitly killed.
    options.sim_work_units = job_.description.sim_work_units * 100;
    auto pid = config_.backend->create_process(options);
    if (!pid.is_ok()) return pid.status();
    aux_pids_.push_back(pid.value());
    TDP_RETURN_IF_ERROR(session_->put("aux_pid." + std::to_string(i),
                                      std::to_string(pid.value())));
    kLog.info("job ", job_.id, " auxiliary service ", i, " launched (pid ",
              pid.value(), ")");
  }
  return Status::ok();
}

void Starter::forward_stdio() {
  // Tail the job's stdout file and push new bytes to the submit side, so
  // output "appears at the same location as the RT's front-end" while the
  // job is still running.
  if (!config_.use_real_files || job_.description.output.empty() ||
      sink_ == nullptr || scratch_dir_.empty()) {
    return;
  }
  const std::string path =
      scratch_dir_ + "/" +
      std::filesystem::path(job_.description.output).filename().string();
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(in.tellg());
  if (size <= stdio_offset_) return;
  in.seekg(static_cast<std::streamoff>(stdio_offset_));
  std::string chunk(size - stdio_offset_, '\0');
  in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  stdio_offset_ = size;
  sink_->on_job_output(job_.id, chunk);
}

void Starter::watch_tool_daemons() {
  // Fault detection for the RT (Section 1): the RM must notice a dead
  // tool daemon. The application keeps running (losing the profiler must
  // not kill the job), but the death is published into the attribute
  // space and logged so front-ends and operators can react.
  if (done_) return;
  for (const auto& [rank, pid] : tool_pids_) {
    if (pid <= 0) continue;  // in-process tools are not backend-managed
    if (tool_death_reported_[rank]) continue;
    auto info = config_.backend->info(pid);
    if (!info.is_ok() || !proc::is_terminal(info->state)) continue;
    // Tool exit after its application rank finished is normal shutdown.
    auto rank_it = rank_pids_.find(rank);
    if (rank_it != rank_pids_.end()) {
      auto app_info = config_.backend->info(rank_it->second);
      if (app_info.is_ok() && proc::is_terminal(app_info->state)) continue;
    }
    tool_death_reported_[rank] = true;
    session_->put("tool_state." + std::to_string(rank),
                  std::string(proc::process_state_name(info->state)));
    kLog.warn("job ", job_.id, ": tool daemon for rank ", rank, " (pid ", pid,
              ") died while the application is still running");
  }
}

void Starter::check_tool_leases() {
  // Daemon-death supervision for the RT: a missed lease means the tool
  // daemon is gone even when the backend cannot tell us (in-process tools
  // have synthetic pids). The application is never touched — Section 2.3
  // puts the processes under the RM, and the pid is still in the LASS, so
  // the relaunched daemon reattaches via the ordinary Figure 6 handshake.
  if (!tool_monitor_ || done_) return;
  if (own_beat_) own_beat_->maybe_beat();
  tool_monitor_->poll();
  const std::string prefix = std::string(lease::kLivenessPrefix) + "paradynd.";
  for (const std::string& name : tool_monitor_->expired()) {
    if (!str::starts_with(name, prefix)) continue;
    // Beat suffix is the pid attribute with '.' folded to '-': "pid" is
    // rank 0, "pid-<r>" is MPI rank r.
    const std::string suffix = name.substr(prefix.size());
    int rank = 0;
    if (str::starts_with(suffix, "pid-")) {
      try {
        rank = std::stoi(suffix.substr(4));
      } catch (const std::exception&) {
        continue;
      }
    } else if (suffix != "pid") {
      continue;
    }
    // A tool outliving its application rank has nothing left to profile;
    // lease expiry after rank exit is normal shutdown, not a fault.
    auto rank_it = rank_pids_.find(rank);
    if (rank_it != rank_pids_.end()) {
      auto app_info = config_.backend->info(rank_it->second);
      if (!app_info.is_ok() || proc::is_terminal(app_info->state)) {
        tool_monitor_->forget(name);
        continue;
      }
    } else {
      tool_monitor_->forget(name);
      continue;
    }
    if (config_.recorder) {
      config_.recorder->lease("expired", "paradynd rank=" + std::to_string(rank));
    }
    if (config_.tool_recorder && !config_.capsule_dir.empty()) {
      // The starter detected the tool daemon's death and still holds its
      // last-known ring: dump the victim's black box before anything else
      // records over it.
      Status dumped = config_.tool_recorder->dump(
          config_.capsule_dir + "/" + config_.tool_recorder->role() + "." +
              config_.tool_recorder->host() + ".capsule",
          "lease-expired");
      if (!dumped.is_ok()) {
        kLog.warn("job ", job_.id,
                  ": tool capsule dump failed: ", dumped.to_string());
      }
    }
    if (tool_restarts_[rank] >= config_.tool_restart_budget) {
      if (!tool_death_reported_[rank]) {
        tool_death_reported_[rank] = true;
        session_->put("tool_state." + std::to_string(rank), "lease-expired");
        kLog.error("job ", job_.id, ": tool daemon for rank ", rank,
                   " lease expired and the restart budget (",
                   config_.tool_restart_budget, ") is spent; running untooled");
      }
      tool_monitor_->forget(name);
      continue;
    }
    ++tool_restarts_[rank];
    telemetry::Registry::instance().counter("starter.tool_restarts").inc();
    if (config_.recorder) {
      config_.recorder->state("tool-relaunch",
                              "rank=" + std::to_string(rank) + " attempt=" +
                                  std::to_string(tool_restarts_[rank]));
    }
    // Forget before relaunch: the replacement's first beat re-tracks the
    // name with a fresh lease instead of inheriting the expired one.
    tool_monitor_->forget(name);
    kLog.warn("job ", job_.id, ": tool daemon for rank ", rank,
              " lease expired while the application runs; relaunching (",
              tool_restarts_[rank], "/", config_.tool_restart_budget, ")");
    Status relaunched = launch_tool(rank);
    if (!relaunched.is_ok()) {
      kLog.error("job ", job_.id, ": tool relaunch for rank ", rank,
                 " failed: ", relaunched.to_string());
    }
    session_->put("tool_restarts." + std::to_string(rank),
                  std::to_string(tool_restarts_[rank]));
  }
}

proc::Pid Starter::app_pid(int rank) const {
  auto it = rank_pids_.find(rank);
  return it == rank_pids_.end() ? 0 : it->second;
}

bool Starter::pump() {
  if (done_) return true;
  // Pump turns run on the pool thread with no span on the stack; restore
  // the job's context so late rank creation and finish() join its tree.
  telemetry::ScopedAmbient ambient(telemetry::parse_context(job_.trace));
  const bool finished = turn();
  // Serve until quiet. A tool request that arrives while this turn's own
  // RM calls wait for their replies is queued for service_events(); the
  // session's event_fd reads ready for it, and serving it here saves the
  // caller a poll round before the next tick.
  while (!finished && session_->service_events() > 0) {
  }
  return finished;
}

bool Starter::turn() {
  session_->service_events();
  if (telemetry_pub_) telemetry_pub_->maybe_publish();
  if (config_.live_stdio) forward_stdio();
  watch_tool_daemons();
  check_tool_leases();

  // MPI staged startup: once rank 0 runs (the tool attached and continued
  // it, or no tool was requested), create the remaining ranks.
  if (!all_ranks_created_) {
    auto rank0 = config_.backend->info(rank_pids_[0]);
    if (rank0.is_ok() && (rank0->state == proc::ProcessState::kRunning ||
                          proc::is_terminal(rank0->state))) {
      const proc::CreateMode mode = wants_paused_start()
                                        ? proc::CreateMode::kPaused
                                        : proc::CreateMode::kRun;
      for (int rank = 1; rank < job_.description.machine_count; ++rank) {
        Status status = create_rank(rank, mode);
        if (!status.is_ok()) {
          finish(JobStatus::kFailed, -1,
                 "rank " + std::to_string(rank) + ": " + status.to_string());
          return true;
        }
        if (job_.description.tool_daemon.present) {
          status = launch_tool(rank);
          if (!status.is_ok()) {
            finish(JobStatus::kFailed, -1,
                   "tool for rank " + std::to_string(rank) + ": " +
                       status.to_string());
            return true;
          }
        }
      }
      all_ranks_created_ = true;
    }
  }

  // Tool-wait timeout: a requested tool that never continues the paused
  // application is a fault the RM must detect.
  if (config_.tool_wait_timeout_ms > 0 && wants_paused_start() && !done_) {
    auto rank0 = config_.backend->info(rank_pids_[0]);
    if (rank0.is_ok() && rank0->state == proc::ProcessState::kPausedAtExec) {
      const std::int64_t elapsed_ms =
          (RealClock::instance().now_micros() - launch_time_micros_) / 1000;
      if (elapsed_ms > config_.tool_wait_timeout_ms) {
        finish(JobStatus::kFailed, -1,
               "tool daemon did not start the application within " +
                   std::to_string(config_.tool_wait_timeout_ms) + "ms");
        return true;
      }
    }
  }

  // Fault detection (Section 1): an auxiliary service that dies while the
  // job is live is a failure the RM must observe and act on.
  for (proc::Pid aux : aux_pids_) {
    auto info = config_.backend->info(aux);
    if (info.is_ok() && proc::is_terminal(info->state)) {
      finish(JobStatus::kFailed, -1,
             "auxiliary service (pid " + std::to_string(aux) +
                 ") terminated while the job was running");
      return true;
    }
  }

  // Completion: every created rank terminal and all ranks created.
  if (!all_ranks_created_) return done_;
  bool all_terminal = true;
  int exit_code = 0;
  std::string failure;
  for (const auto& [rank, pid] : rank_pids_) {
    auto info = config_.backend->info(pid);
    if (!info.is_ok()) {
      all_terminal = false;
      break;
    }
    if (!proc::is_terminal(info->state)) {
      all_terminal = false;
      break;
    }
    if (info->state == proc::ProcessState::kSignalled) {
      failure = "rank " + std::to_string(rank) + " killed by signal " +
                std::to_string(info->term_signal);
    } else if (info->state == proc::ProcessState::kFailed) {
      failure = "rank " + std::to_string(rank) + " failed to launch";
    } else if (info->exit_code != 0 && exit_code == 0) {
      exit_code = info->exit_code;
    }
  }
  if (all_terminal) {
    if (!failure.empty()) {
      finish(JobStatus::kFailed, -1, failure);
    } else {
      finish(JobStatus::kCompleted, exit_code, "");
    }
  }
  return done_;
}

void Starter::finish(JobStatus status, int exit_code, const std::string& detail) {
  if (done_) return;
  done_ = true;
  telemetry::ScopedAmbient ambient(telemetry::parse_context(job_.trace));
  std::optional<telemetry::Span> span;
  if (telemetry::current_context().valid()) {
    span.emplace("starter.finish", "starter");
  }
  // Flush the tail of the live stdout stream before teardown.
  if (config_.live_stdio) forward_stdio();
  // Publish the terminal state of every rank before anything is torn
  // down, so an attached tool daemon can observe the exit through the
  // attribute space (Section 2.3 status monitoring). service_events first
  // flushes any event the backend already queued.
  if (session_) {
    session_->service_events();
    for (const auto& [rank, pid] : rank_pids_) {
      auto info = config_.backend->info(pid);
      if (!info.is_ok() || !proc::is_terminal(info->state)) continue;
      std::string value = proc::process_state_name(info->state);
      if (info->state == proc::ProcessState::kExited) {
        value += ":" + std::to_string(info->exit_code);
      } else if (info->state == proc::ProcessState::kSignalled) {
        value += ":" + std::to_string(info->term_signal);
      }
      session_->put(control::state_attr(pid), value);
    }
  }
  for (proc::Pid aux : aux_pids_) {
    auto info = config_.backend->info(aux);
    if (info.is_ok() && !proc::is_terminal(info->state)) {
      config_.backend->kill_process(aux);
    }
  }
  job_.status = status;
  job_.exit_code = exit_code;
  job_.failure_reason = detail;

  // Give the tool daemons a moment to observe the exit, flush their trace
  // files, and terminate; the RM reaps them before staging outputs (the
  // paper: trace files "must be transferred from the execution nodes after
  // the application completes").
  for (const auto& [rank, pid] : tool_pids_) {
    if (pid <= 0) continue;  // in-process tools have synthetic ids
    auto reaped = config_.backend->wait_terminal(pid, 5'000);
    if (!reaped.is_ok()) {
      kLog.warn("tool daemon for rank ", rank, " (pid ", pid,
                ") did not exit after the job; killing it");
      config_.backend->kill_process(pid);
      config_.backend->wait_terminal(pid, 2'000);
    }
  }

  // "When a job completes, the starter sends back any status information
  // to the submitting machine" (Section 4.1) — and stages the declared
  // outputs back, tool daemon trace files included.
  if (config_.use_real_files && !scratch_dir_.empty()) {
    std::vector<std::string> outputs;
    if (!job_.description.output.empty()) outputs.push_back(job_.description.output);
    if (!job_.description.error.empty()) outputs.push_back(job_.description.error);
    if (!job_.description.tool_daemon.output.empty()) {
      outputs.push_back(job_.description.tool_daemon.output);
    }
    if (!job_.description.tool_daemon.error.empty()) {
      outputs.push_back(job_.description.tool_daemon.error);
    }
    for (int rank = 1; rank < job_.description.machine_count; ++rank) {
      if (!job_.description.output.empty()) {
        outputs.push_back(job_.description.output + "." + std::to_string(rank));
      }
    }
    if (job_.description.universe == Universe::kStandard && sink_ != nullptr) {
      // Standard universe: outputs return through remote_write, one
      // "system call" per file.
      for (const std::string& name : outputs) {
        const std::string local =
            scratch_dir_ + "/" + std::filesystem::path(name).filename().string();
        std::ifstream in(local, std::ios::binary);
        if (!in) continue;  // the job did not produce this output
        std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        Status written =
            sink_->remote_write(std::filesystem::path(name).filename().string(),
                                data);
        if (!written.is_ok()) {
          kLog.warn("remote_write of ", name, " failed: ", written.to_string());
        }
      }
    } else {
      auto copied =
          FileTransfer::stage_out(scratch_dir_, outputs, config_.submit_dir);
      if (!copied.is_ok()) {
        kLog.warn("output staging failed: ", copied.status().to_string());
      }
    }
  }
  if (sink_ != nullptr) sink_->on_job_status(job_.id, status, exit_code, detail);
  kLog.info("job ", job_.id, " finished: ", job_status_name(status),
            status == JobStatus::kCompleted ? " code " + std::to_string(exit_code)
                                            : " (" + detail + ")");
}

void Starter::shutdown() {
  for (proc::Pid aux : aux_pids_) {
    auto info = config_.backend->info(aux);
    if (info.is_ok() && !proc::is_terminal(info->state)) {
      config_.backend->kill_process(aux);
    }
  }
  for (const auto& [rank, pid] : rank_pids_) {
    auto info = config_.backend->info(pid);
    if (info.is_ok() && !proc::is_terminal(info->state)) {
      config_.backend->kill_process(pid);
    }
  }
  if (session_) session_->exit();
  if (lass_) lass_->stop();
}

}  // namespace tdp::condor
