// Tests for the live-stdio forwarding channel (the paper's "standard input
// and output management") and for RM-side fault detection of dead tool
// daemons.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "condor/pool.hpp"
#include "net/inproc.hpp"
#include "proc/posix_backend.hpp"
#include "proc/sim_backend.hpp"
#include "support/tempdir.hpp"

namespace tdp::condor {
namespace {

class LiveStdioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    submit_dir_ = testdir::fresh("live_stdio");

    PoolConfig config;
    config.transport = net::InProcTransport::create();
    config.submit_dir = submit_dir_;
    config.scratch_base = testdir::fresh("scratch");
    config.use_real_files = true;
    config.live_stdio = true;
    config.backend_factory = [](const std::string&) {
      return std::make_shared<proc::PosixProcessBackend>();
    };
    pool_ = std::make_unique<Pool>(std::move(config));
    pool_->add_machine("exec1", Pool::default_machine_ad("exec1"));
  }

  std::string submit_dir_;
  std::unique_ptr<Pool> pool_;
};

TEST_F(LiveStdioTest, OutputStreamsToShadowWhileJobRuns) {
  // A job that emits a line, sleeps, then emits more: the first line must
  // reach the shadow BEFORE the job completes.
  JobDescription job;
  job.executable = "/bin/sh";
  job.arguments = "-c 'echo first-line; sleep 1; echo second-line'";
  job.output = "out";
  JobId id = pool_->submit(job);
  ASSERT_EQ(pool_->negotiate(), 1);
  Shadow* shadow = pool_->schedd().shadow(id);
  ASSERT_NE(shadow, nullptr);

  // Pump until the first chunk arrives; the job must still be running.
  bool saw_early_output = false;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    pool_->pump();
    if (shadow->live_output().find("first-line") != std::string::npos) {
      saw_early_output = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(saw_early_output);
  EXPECT_FALSE(job_status_terminal(pool_->schedd().job(id)->status))
      << "output should stream while the job is still running";

  auto record = pool_->run_to_completion(id, 15'000);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted);
  // The tail is flushed at completion.
  EXPECT_NE(shadow->live_output().find("second-line"), std::string::npos);
}

TEST_F(LiveStdioTest, NoStreamingWhenDisabled) {
  PoolConfig config;
  config.transport = net::InProcTransport::create();
  config.submit_dir = submit_dir_;
  config.scratch_base = testdir::fresh("scratch");
  config.use_real_files = true;
  config.live_stdio = false;  // default
  config.backend_factory = [](const std::string&) {
    return std::make_shared<proc::PosixProcessBackend>();
  };
  Pool pool(std::move(config));
  pool.add_machine("m", Pool::default_machine_ad("m"));

  JobDescription job;
  job.executable = "/bin/sh";
  job.arguments = "-c 'echo data'";
  job.output = "out";
  JobId id = pool.submit(job);
  auto record = pool.run_to_completion(id, 15'000);
  ASSERT_TRUE(record.is_ok());
  EXPECT_TRUE(pool.schedd().shadow(id)->live_output().empty());
}

TEST(ToolFaultTest, DeadToolDaemonDetectedAndPublished) {
  // A tool daemon (a real process) that exits immediately after starting,
  // while the application keeps running: the starter must publish
  // tool_state.<rank> and the job must NOT be killed.
  auto transport = net::InProcTransport::create();
  auto backend = std::make_shared<proc::PosixProcessBackend>();

  const std::string submit_dir = testdir::fresh("tool_fault");

  JobRecord record;
  record.id = 7;
  record.description.executable = "/bin/sleep";
  record.description.arguments = "2";
  // No SuspendJobAtExec: the app runs immediately; the "tool" is a process
  // that dies at once.
  record.description.tool_daemon.present = true;
  record.description.tool_daemon.cmd = "/bin/true";

  StarterConfig config;
  config.submit_dir = submit_dir;
  config.scratch_base = testdir::fresh("scratch");
  config.transport = transport;
  config.backend = backend;
  config.tool_wait_timeout_ms = 0;

  Starter starter(std::move(record), std::move(config), nullptr);
  ASSERT_TRUE(starter.launch().is_ok());

  // Pump until the tool's death is noticed.
  InitOptions observer_options;
  observer_options.lass_address = starter.lass_address();
  observer_options.context = starter.context();
  observer_options.transport = transport;
  auto observer = TdpSession::init(std::move(observer_options)).value();

  std::string tool_state;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    starter.pump();
    auto value = observer->try_get("tool_state.0");
    if (value.is_ok()) {
      tool_state = value.value();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(tool_state, "exited");

  // The application survives the tool's death.
  auto app_info = backend->info(starter.app_pid());
  ASSERT_TRUE(app_info.is_ok());
  EXPECT_FALSE(proc::is_terminal(app_info->state));

  // And the job still completes normally.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!starter.pump() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(starter.job().status, JobStatus::kCompleted);
}

TEST(ToolFaultTest, ToolOutlivingAppIsNotAFault) {
  // Normal Parador shutdown: the app exits first, the tool follows. No
  // tool_state fault attribute may appear.
  auto transport = net::InProcTransport::create();
  auto backend = std::make_shared<proc::SimProcessBackend>();

  JobRecord record;
  record.id = 8;
  record.description.executable = "app";
  record.description.sim_work_units = 2;

  StarterConfig config;
  config.transport = transport;
  config.backend = backend;
  config.use_real_files = false;
  config.tool_wait_timeout_ms = 0;

  Starter starter(std::move(record), std::move(config), nullptr);
  ASSERT_TRUE(starter.launch().is_ok());
  for (int i = 0; i < 10 && !starter.pump(); ++i) backend->step(1);
  EXPECT_EQ(starter.job().status, JobStatus::kCompleted);

  InitOptions observer_options;
  observer_options.lass_address = starter.lass_address();
  observer_options.context = starter.context();
  observer_options.transport = transport;
  auto observer = TdpSession::init(std::move(observer_options)).value();
  EXPECT_FALSE(observer->try_get("tool_state.0").is_ok());
}

}  // namespace
}  // namespace tdp::condor
