// Integration tests: the full Parador stack — MiniCondor pool + MiniParadyn
// front-end and daemons coupled through TDP — in one process over the
// in-process transport and the simulated process backend. This is the
// paper's Section 4 as an executable artifact.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "condor/pool.hpp"
#include "net/inproc.hpp"
#include "net/proxy.hpp"
#include "paradyn/frontend.hpp"
#include "paradyn/inproc_tool.hpp"
#include "proc/sim_backend.hpp"

namespace tdp {
namespace {

using condor::JobDescription;
using condor::JobId;
using condor::JobStatus;
using condor::Pool;
using condor::PoolConfig;
using condor::SubmitFile;
using condor::Universe;

class ParadorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    transport_ = net::InProcTransport::create();
    frontend_ = std::make_unique<paradyn::Frontend>(transport_);
    auto started = frontend_->start("inproc://paradyn-fe");
    ASSERT_TRUE(started.is_ok());

    paradyn::InProcParadynLauncher::Options launcher_options;
    launcher_options.transport = transport_;
    launcher_options.frontend_address = started.value();
    launcher_options.sample_quantum_micros = 5'000;
    launcher_ = std::make_unique<paradyn::InProcParadynLauncher>(launcher_options);

    PoolConfig config;
    config.transport = transport_;
    config.use_real_files = false;
    config.tool_launcher = launcher_.get();
    config.tool_wait_timeout_ms = 20'000;
    config.frontend_host = started.value();  // inproc address doubles as host
    config.backend_factory = [this](const std::string& machine) {
      auto backend = std::make_shared<proc::SimProcessBackend>();
      backends_[machine] = backend;
      return backend;
    };
    pool_ = std::make_unique<Pool>(std::move(config));
    for (int i = 0; i < 3; ++i) {
      std::string name = "node" + std::to_string(i);
      pool_->add_machine(name, Pool::default_machine_ad(name));
    }
  }

  void TearDown() override {
    launcher_->join_all();
    pool_.reset();
    frontend_->stop();
  }

  /// Drives negotiation, starter pumps and virtual time until the job is
  /// terminal (wall-clock bounded: the paradynd threads run in real time).
  condor::JobRecord drive(JobId id, int timeout_ms = 30'000) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      pool_->negotiate();
      pool_->pump();
      for (auto& [name, backend] : backends_) backend->step(1);
      auto record = pool_->schedd().job(id);
      if (record.is_ok() && condor::job_status_terminal(record->status)) {
        return record.value();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto record = pool_->schedd().job(id);
    return record.is_ok() ? record.value() : condor::JobRecord{};
  }

  /// The daemon's final report travels over the transport and is folded
  /// in by a front-end thread; wait (bounded) for it to land.
  bool wait_for_finished(std::size_t count, int timeout_ms = 5'000) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (frontend_->finished_pids().size() >= count) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return frontend_->finished_pids().size() >= count;
  }

  static JobDescription monitored_job(std::int64_t work = 300) {
    JobDescription job;
    job.executable = "simulated_app";
    job.arguments = "1 2 3";
    job.suspend_job_at_exec = true;
    job.tool_daemon.present = true;
    job.tool_daemon.cmd = "paradynd";
    job.tool_daemon.args = "-zunix -l3 -a%pid";
    job.sim_work_units = work;
    return job;
  }

  std::shared_ptr<net::InProcTransport> transport_;
  std::unique_ptr<paradyn::Frontend> frontend_;
  std::unique_ptr<paradyn::InProcParadynLauncher> launcher_;
  std::map<std::string, std::shared_ptr<proc::SimProcessBackend>> backends_;
  std::unique_ptr<Pool> pool_;
};

TEST_F(ParadorTest, VanillaCreateModeEndToEnd) {
  // The whole Figure-6 choreography: starter creates the app paused,
  // paradynd fetches the pid from the LASS, attaches, continues, profiles,
  // and reports to the front-end until the app exits.
  JobId id = pool_->submit(monitored_job());
  auto record = drive(id);
  EXPECT_EQ(record.status, JobStatus::kCompleted) << record.failure_reason;

  launcher_->join_all();
  EXPECT_EQ(launcher_->daemons_launched(), 1u);
  EXPECT_TRUE(launcher_->last_daemon_status().is_ok())
      << launcher_->last_daemon_status().to_string();

  // The front-end collected performance data from the daemon.
  EXPECT_GT(frontend_->reports_received(), 0u);
  EXPECT_TRUE(wait_for_finished(1));
  EXPECT_GT(frontend_->metrics().value(paradyn::Metric::kCpuTime, "/Code"), 0.0);
  ASSERT_EQ(frontend_->finished_pids().size(), 1u);
}

TEST_F(ParadorTest, StarterLassAcceptsOnlyTheToolDaemonsConnection) {
  // The starter starts each job's LASS and joins it over the owner
  // endpoint, so the one transport connection that LASS accepts is
  // paradynd's.
  JobId id = pool_->submit(monitored_job());
  ASSERT_EQ(pool_->negotiate(), 1);
  condor::Starter* starter = nullptr;
  for (int i = 0; i < 3 && starter == nullptr; ++i) {
    starter = pool_->startd("node" + std::to_string(i))->starter();
  }
  ASSERT_NE(starter, nullptr);
  auto backend = backends_[starter->job().matched_machine];
  const proc::Pid app = starter->app_pid();

  // Until paradynd has attached and continued the application.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (backend->info(app)->state == proc::ProcessState::kPausedAtExec &&
         std::chrono::steady_clock::now() < deadline) {
    starter->pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(backend->info(app)->state, proc::ProcessState::kPausedAtExec);
  EXPECT_EQ(starter->lass().connections_served(), 1u);

  auto record = drive(id);
  EXPECT_EQ(record.status, JobStatus::kCompleted) << record.failure_reason;
}

TEST_F(ParadorTest, ConsultantFindsTheHotSpot) {
  JobId id = pool_->submit(monitored_job(600));
  auto record = drive(id);
  ASSERT_EQ(record.status, JobStatus::kCompleted) << record.failure_reason;
  launcher_->join_all();

  auto findings = frontend_->run_consultant();
  ASSERT_FALSE(findings.empty());
  // The synthesized workload concentrates ~half its time in
  // compute.o/hot_spot; the search must converge there.
  EXPECT_EQ(findings[0].focus, "/Code/compute.o/hot_spot");
  EXPECT_EQ(findings[0].hypothesis, paradyn::Hypothesis::kCpuBound);
  EXPECT_GT(findings[0].severity, 0.3);
}

TEST_F(ParadorTest, MpiUniversePerRankDaemons) {
  JobDescription job = monitored_job(200);
  job.universe = Universe::kMpi;
  job.machine_count = 3;
  JobId id = pool_->submit(job);
  auto record = drive(id, 45'000);
  EXPECT_EQ(record.status, JobStatus::kCompleted) << record.failure_reason;

  launcher_->join_all();
  // One paradynd per rank (Section 4.3's MPI universe behaviour).
  EXPECT_EQ(launcher_->daemons_launched(), 3u);
  EXPECT_TRUE(wait_for_finished(3));
  EXPECT_EQ(frontend_->finished_pids().size(), 3u);
  // Per-process foci exist for every rank.
  std::size_t process_foci = 0;
  for (const std::string& focus :
       frontend_->metrics().foci(paradyn::Metric::kCpuTime)) {
    if (focus.rfind("/Process/", 0) == 0) ++process_foci;
  }
  EXPECT_EQ(process_foci, 3u);
}

TEST_F(ParadorTest, SuspendJobAtExecHoldsUntilToolContinues) {
  // Without a tool and with SuspendJobAtExec, the app stays paused: the
  // Section 2.2 step-5 handshake (rt_ready) is then the RM-side release.
  JobDescription job;
  job.executable = "held_app";
  job.suspend_job_at_exec = true;
  job.sim_work_units = 5;
  JobId id = pool_->submit(job);
  ASSERT_EQ(pool_->negotiate(), 1);

  condor::Starter* starter = nullptr;
  for (int i = 0; i < 3; ++i) {
    starter = pool_->startd("node" + std::to_string(i))->starter();
    if (starter != nullptr) break;
  }
  ASSERT_NE(starter, nullptr);
  auto backend = backends_[starter->job().matched_machine];
  ASSERT_NE(backend, nullptr);

  // Stepping does nothing while paused.
  for (int i = 0; i < 5; ++i) {
    backend->step(10);
    pool_->pump();
  }
  EXPECT_EQ(backend->info(starter->app_pid())->state,
            proc::ProcessState::kPausedAtExec);

  // A (tool-role) TDP session announces readiness; the RM continues the app.
  InitOptions tool_options;
  tool_options.role = Role::kTool;
  tool_options.lass_address = starter->lass_address();
  tool_options.context = starter->context();
  tool_options.transport = transport_;
  auto tool = TdpSession::init(std::move(tool_options));
  ASSERT_TRUE(tool.is_ok());
  ASSERT_TRUE(tool.value()->put(attr::attrs::kRtReady, "1").is_ok());

  auto record = drive(id);
  EXPECT_EQ(record.status, JobStatus::kCompleted);
}

TEST_F(ParadorTest, ToolTimeoutFailsJob) {
  // A tool daemon that never shows up must not hang the job forever: the
  // starter's fault detection kicks in (tool_wait_timeout_ms).
  struct NullLauncher final : condor::ToolLauncher {
    Result<proc::Pid> launch(const condor::ToolDaemonSpec&,
                             const std::vector<std::string>&, const std::string&,
                             const std::string&, const std::string&,
                             TdpSession&) override {
      return static_cast<proc::Pid>(-1);  // pretend launched; never acts
    }
  } null_launcher;

  PoolConfig config;
  config.transport = transport_;
  config.use_real_files = false;
  config.tool_launcher = &null_launcher;
  config.tool_wait_timeout_ms = 150;
  config.backend_factory = [](const std::string&) {
    return std::make_shared<proc::SimProcessBackend>();
  };
  Pool pool(std::move(config));
  pool.add_machine("lone", Pool::default_machine_ad("lone"));

  JobId id = pool.submit(monitored_job());
  ASSERT_EQ(pool.negotiate(), 1);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    pool.pump();
    auto record = pool.schedd().job(id);
    if (condor::job_status_terminal(record->status)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto record = pool.schedd().job(id);
  EXPECT_EQ(record->status, JobStatus::kFailed);
  EXPECT_NE(record->failure_reason.find("tool daemon"), std::string::npos);
}

TEST_F(ParadorTest, FirewalledDaemonReachesFrontendViaProxy) {
  // Section 2.4: the execution host cannot dial the front-end directly;
  // the RM's proxy relays the paradynd connection transparently.
  net::ProxyServer proxy(transport_);
  proxy.register_service("paradyn-frontend", frontend_->address());
  auto proxy_address = proxy.start("inproc://rm-proxy");
  ASSERT_TRUE(proxy_address.is_ok());

  const std::string frontend_address = frontend_->address();
  auto walled = std::make_shared<net::FirewalledTransport>(
      transport_, [frontend_address, proxy_addr = proxy_address.value()](
                      const std::string& address) {
        return address != frontend_address;  // only the front-end is blocked
      });

  paradyn::InProcParadynLauncher::Options launcher_options;
  launcher_options.transport = walled;
  launcher_options.frontend_address = frontend_address;
  paradyn::InProcParadynLauncher walled_launcher(launcher_options);

  std::map<std::string, std::shared_ptr<proc::SimProcessBackend>> backends;
  PoolConfig config;
  config.transport = walled;
  config.use_real_files = false;
  config.tool_launcher = &walled_launcher;
  config.proxy_address = proxy_address.value();
  config.backend_factory = [&backends](const std::string& machine) {
    auto backend = std::make_shared<proc::SimProcessBackend>();
    backends[machine] = backend;
    return backend;
  };
  Pool pool(std::move(config));
  pool.add_machine("island", Pool::default_machine_ad("island"));

  JobId id = pool.submit(monitored_job(100));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    pool.negotiate();
    pool.pump();
    for (auto& [name, backend] : backends) backend->step(1);
    auto record = pool.schedd().job(id);
    if (condor::job_status_terminal(record->status)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.schedd().job(id)->status, JobStatus::kCompleted)
      << pool.schedd().job(id)->failure_reason;
  walled_launcher.join_all();
  EXPECT_TRUE(walled_launcher.last_daemon_status().is_ok())
      << walled_launcher.last_daemon_status().to_string();
  EXPECT_EQ(proxy.tunnels_opened(), 1u);  // the daemon went through the wall
  // Reports cross the tunnel's relay threads and are folded in by a
  // front-end thread, so the daemon's exit does not mean they have landed.
  EXPECT_TRUE(wait_for_finished(1));
  EXPECT_GT(frontend_->reports_received(), 0u);
  proxy.stop();
}

TEST_F(ParadorTest, TwoMonitoredJobsInParallel) {
  JobId a = pool_->submit(monitored_job(200));
  JobId b = pool_->submit(monitored_job(200));
  pool_->negotiate();
  EXPECT_EQ(pool_->busy_count(), 2u);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    pool_->negotiate();
    pool_->pump();
    for (auto& [name, backend] : backends_) backend->step(1);
    if (condor::job_status_terminal(pool_->schedd().job(a)->status) &&
        condor::job_status_terminal(pool_->schedd().job(b)->status)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool_->schedd().job(a)->status, JobStatus::kCompleted);
  EXPECT_EQ(pool_->schedd().job(b)->status, JobStatus::kCompleted);
  launcher_->join_all();
  EXPECT_EQ(launcher_->daemons_launched(), 2u);
  EXPECT_TRUE(wait_for_finished(2));
  EXPECT_EQ(frontend_->finished_pids().size(), 2u);
}

}  // namespace
}  // namespace tdp
