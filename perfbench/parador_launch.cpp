// parador_launch - Figure 4 plus Figure 6: monitored-job launch on the
// virtual cluster.
//
// InProcTransport, one SimProcessBackend per machine, a Pool of kMachines
// advertised machines, a paradyn::Frontend and an InProcParadynLauncher.
// One submitter keeps one monitored job in flight (suspend at exec, a
// ToolDaemon, kWorkUnits of simulated work): try_submit, then negotiate,
// backend step and pump until the job is terminal. One op is one job that
// reaches kCompleted; its latency runs from submit until the application
// leaves kPausedAtExec, i.e. until the tool's continue took effect.
//
// Runs are sized by job count: every batch of kJobsPerBatch jobs gets a
// fresh Pool, because the schedd keeps every job record it ever saw and
// scans them all on each negotiate, so a pool's speed depends on its age.
#include <poll.h>

#include <map>
#include <memory>
#include <thread>

#include "attrspace/attr_protocol.hpp"
#include "condor/pool.hpp"
#include "net/inproc.hpp"
#include "paradyn/frontend.hpp"
#include "paradyn/inproc_tool.hpp"
#include "proc/sim_backend.hpp"
#include "util/lease.hpp"
#include "util/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kMachines = 32;
constexpr int kJobsPerBatch = 256;
constexpr std::int64_t kWorkUnits = 20;
constexpr std::int64_t kJobTimeoutNs = 10'000'000'000;
constexpr std::int64_t kFrontendDrainNs = 5'000'000'000;
/// Upper bound on one wait for RM traffic between pumps. A wait that ends
/// here, with nothing readable, is counted in kPollTimeouts.
constexpr int kPollTimeoutMs = 1;
constexpr const char* kPollTimeouts = "condor.starter.rm_poll_timeouts";

using tdp::condor::JobStatus;

struct Batch {
  std::shared_ptr<tdp::net::InProcTransport> transport;
  std::unique_ptr<tdp::paradyn::Frontend> frontend;
  std::unique_ptr<tdp::paradyn::InProcParadynLauncher> launcher;
  std::map<std::string, std::shared_ptr<tdp::proc::SimProcessBackend>> backends;
  std::unique_ptr<tdp::condor::Pool> pool;  // last: destroyed first
};

/// Pool, machines and front-end up. Returns an error string on failure.
std::string set_up(Batch& batch, std::mt19937_64& rng) {
  batch.transport = tdp::net::InProcTransport::create();
  batch.frontend = std::make_unique<tdp::paradyn::Frontend>(batch.transport);
  auto frontend_address = batch.frontend->start("inproc://perfbench-frontend");
  if (!frontend_address.is_ok()) return "frontend: " + frontend_address.status().to_string();
  tdp::paradyn::InProcParadynLauncher::Options options;
  options.transport = batch.transport;
  options.frontend_address = frontend_address.value();
  batch.launcher = std::make_unique<tdp::paradyn::InProcParadynLauncher>(options);

  tdp::condor::PoolConfig config;
  config.transport = batch.transport;
  config.use_real_files = false;
  config.tool_launcher = batch.launcher.get();
  config.backend_factory = [&batch](const std::string& machine) {
    auto backend = std::make_shared<tdp::proc::SimProcessBackend>();
    batch.backends[machine] = backend;
    return backend;
  };
  batch.pool = std::make_unique<tdp::condor::Pool>(std::move(config));
  for (int m = 0; m < kMachines; ++m) {
    const std::string name = "node" + std::to_string(m);
    const int memory_mb = 1024 + 256 * static_cast<int>(rng() % 8);
    batch.pool->add_machine(name, tdp::condor::Pool::default_machine_ad(name, memory_mb));
  }
  return "";
}

/// Submits one monitored job and drives it to a terminal state. Returns
/// submit->running in microseconds, or a negative value on failure.
double run_job(Batch& batch, const tdp::condor::JobDescription& job,
               WorkloadResult& result) {
  tdp::condor::Pool& pool = *batch.pool;
  ScopedSpan op("parador_launch.job");
  const std::int64_t submitted = now_ns();
  const std::int64_t give_up = submitted + kJobTimeoutNs;
  tdp::Result<tdp::condor::JobId> id = tdp::make_error(tdp::ErrorCode::kInternal, "");
  {
    ScopedSpan span("condor.pool.try_submit");
    id = pool.try_submit(job);
  }
  if (!id.is_ok()) {
    result.fail("try_submit: " + id.status().to_string());
    return -1;
  }

  // Negotiate until a cycle activates the job; only that cycle is timed.
  std::int64_t activated = 0;
  while (activated == 0) {
    const std::int64_t start = now_ns();
    if (pool.negotiate() > 0) {
      activated = now_ns();
      record_span("condor.pool.negotiate", start, activated);
    } else if (now_ns() > give_up) {
      result.fail("job never activated");
      return -1;
    } else {
      pool.pump();
    }
  }

  auto record = pool.schedd().job(id.value());
  if (!record.is_ok()) {
    result.fail("job record: " + record.status().to_string());
    return -1;
  }
  const std::string machine = record->matched_machine;
  tdp::condor::Startd* startd = pool.startd(machine);
  tdp::condor::Starter* starter = startd != nullptr ? startd->starter() : nullptr;
  if (starter == nullptr || starter->app_pid() == 0) {
    result.fail("no application on " + machine);
    return -1;
  }
  const tdp::proc::Pid pid = starter->app_pid();
  const auto& backend = batch.backends.at(machine);

  // Wait for the tool's continue. The tool's attach and continue reach the
  // starter as attribute-space traffic on its RM session, which only
  // pump() serves. Between pumps, block in poll() on that session's
  // event_fd. A request queued while the RM waited on its own reply leaves
  // the descriptor unreadable, so such a wait ends at the poll bound; the
  // count of those shows how often the program loses a wake-up.
  const int event_fd = starter->rm_session().event_fd();
  std::int64_t running = 0;
  while (true) {
    auto info = backend->info(pid);
    if (!info.is_ok() || now_ns() > give_up) {
      result.fail("application " + std::to_string(pid) + " lost before running");
      return -1;
    }
    if (info->state != tdp::proc::ProcessState::kPausedAtExec) {
      running = now_ns();
      break;
    }
    {
      ScopedSpan span("condor.pool.pump");
      pool.pump();
    }
    if (backend->info(pid).value_or({}).state == tdp::proc::ProcessState::kPausedAtExec) {
      pollfd ready = {event_fd, POLLIN, 0};
      if (poll(&ready, 1, kPollTimeoutMs) == 0) ++result.counts[kPollTimeouts];
    }
  }
  record_span("condor.tool_wait", activated, running);
  record_span("condor.submit_running", submitted, running);

  // The daemon's start-up ends with its first liveness beat, put after its
  // continue. If the application exits first, the starter retires the
  // job's LASS, the beat fails, and the daemon quits without a final
  // report. Waiting for the beat keeps every job's report; the wait is
  // past the running point, so it costs throughput, not latency. A get
  // adopts the writer's trace context as this thread's ambient one; the
  // guard restores it, so the next submit starts a trace of its own.
  tdp::Result<std::string> beat = tdp::make_error(tdp::ErrorCode::kInternal, "");
  {
    const tdp::telemetry::ScopedAmbient keep(tdp::telemetry::ambient_context());
    beat = starter->rm_session().get(
        tdp::lease::liveness_attr("paradynd", tdp::attr::attrs::kPid), 10'000);
  }
  if (!beat.is_ok()) {
    result.fail("tool daemon never finished starting: " + beat.status().to_string());
    return -1;
  }

  // Run the application to completion.
  JobStatus status = JobStatus::kRunning;
  while (!tdp::condor::job_status_terminal(status)) {
    if (now_ns() > give_up) {
      result.fail("job did not finish");
      return -1;
    }
    backend->step(1);
    {
      ScopedSpan span("condor.pool.pump");
      pool.pump();
    }
    auto now = pool.schedd().job(id.value());
    if (!now.is_ok()) {
      result.fail("job record vanished");
      return -1;
    }
    status = now->status;
  }
  if (status != JobStatus::kCompleted) {
    result.fail("job ended " + std::string(tdp::condor::job_status_name(status)));
    return -1;
  }
  return static_cast<double>(running - submitted) / 1e3;
}

}  // namespace

WorkloadResult run_parador_launch(const WorkloadConfig& config) {
  WorkloadResult result;
  std::mt19937_64 rng(config.seed);
  const std::vector<std::string> executables = make_keys(rng, "app", 8);

  SpanLog::instance().attach_thread();
  result.counts[kPollTimeouts] = 0;
  LatencyBuffer latency_us(kJobsPerBatch);
  const Deadline deadline = Deadline::after(config.seconds);
  do {
    // Each batch starts the program's tracer from empty, so every batch
    // runs in the same regime (spans kept, not dropped at the cap).
    tdp::telemetry::Tracer::instance().clear();

    Batch batch;
    const std::int64_t setup_start = now_ns();
    const std::string setup_error = set_up(batch, rng);
    if (!setup_error.empty()) {
      result.fail(setup_error);
      return result;
    }
    result.setup_s.add(static_cast<double>(now_ns() - setup_start) / 1e9);

    const std::int64_t batch_start = now_ns();
    std::size_t completed = 0;
    latency_us.clear();
    for (int j = 0; j < kJobsPerBatch; ++j) {
      tdp::condor::JobDescription job;
      job.executable = executables[rng() % executables.size()];
      job.arguments = "-n " + std::to_string(rng() % 1000);
      job.suspend_job_at_exec = true;
      job.tool_daemon.present = true;
      job.tool_daemon.cmd = "paradynd";
      job.tool_daemon.args = "-a%pid";
      job.sim_work_units = kWorkUnits;
      ++result.attempted;
      const double submit_running_us = run_job(batch, job, result);
      if (submit_running_us >= 0) {
        ++completed;
        latency_us.add(submit_running_us);
      }
    }
    const double elapsed = static_cast<double>(now_ns() - batch_start) / 1e9;
    result.end_round(latency_us, static_cast<double>(completed) / elapsed);

    // Every tool daemon reported its application's end to the front-end.
    // The front-end exposes no descriptor for its reports, so this check,
    // which runs after the batch's timing, polls until they have landed.
    batch.launcher->join_all();
    const std::int64_t drain_until = now_ns() + kFrontendDrainNs;
    while (batch.frontend->finished_pids().size() < completed && now_ns() < drain_until) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const std::size_t reported = batch.frontend->finished_pids().size();
    if (reported != completed) {
      result.fail("front-end saw " + std::to_string(reported) + " finished daemons for " +
                  std::to_string(completed) + " completed jobs");
    }

    const auto stats = batch.pool->matchmaker().stats();
    result.counts["condor.matchmaker.evaluations_per_cycle"] =
        stats.cycles > 0 ? static_cast<double>(stats.evaluations) / stats.cycles : 0.0;
    double retained = 0;
    for (JobStatus status : {JobStatus::kIdle, JobStatus::kMatched, JobStatus::kClaimed,
                             JobStatus::kRunning, JobStatus::kCompleted,
                             JobStatus::kFailed, JobStatus::kRemoved}) {
      retained += static_cast<double>(batch.pool->schedd().count_with_status(status));
    }
    result.counts["condor.schedd.jobs_retained"] = retained;

    batch.pool.reset();
    batch.frontend->stop();
  } while (!deadline.passed());
  return result;
}

}  // namespace perfbench
