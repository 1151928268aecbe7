// Integration test over REAL infrastructure: TCP transport, POSIX process
// backend, and the actual `paradynd` executable launched through the
// +ToolDaemonCmd submit-file mechanism — the closest this reproduction
// gets to the deployment the paper ran on a Condor pool.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "condor/pool.hpp"
#include "net/tcp.hpp"
#include "paradyn/frontend.hpp"
#include "proc/posix_backend.hpp"
#include "support/tempdir.hpp"

// Set by CMake to the built paradynd binary.
#ifndef TDP_PARADYND_PATH
#define TDP_PARADYND_PATH "paradynd"
#endif

namespace tdp {
namespace {

using condor::JobStatus;
using condor::Pool;
using condor::PoolConfig;
using condor::SubmitFile;

class ParadorRealTest : public ::testing::Test {
 protected:
  void SetUp() override {
    submit_dir_ = testdir::fresh("parador_real");

    transport_ = std::make_shared<net::TcpTransport>();
    frontend_ = std::make_unique<paradyn::Frontend>(transport_);
    auto started = frontend_->start("127.0.0.1:0");
    ASSERT_TRUE(started.is_ok());

    PoolConfig config;
    config.transport = transport_;
    config.submit_dir = submit_dir_;
    config.scratch_base = testdir::fresh("scratch");
    config.use_real_files = true;
    config.frontend_host = frontend_->host();
    config.frontend_port = frontend_->port();
    config.frontend_port2 = frontend_->port2();
    config.lass_listen_pattern = "127.0.0.1:0";
    config.backend_factory = [](const std::string&) {
      return std::make_shared<proc::PosixProcessBackend>();
    };
    pool_ = std::make_unique<Pool>(std::move(config));
    pool_->add_machine("exec1", Pool::default_machine_ad("exec1"));
  }

  void TearDown() override {
    pool_.reset();
    frontend_->stop();
  }

  std::string submit_dir_;
  std::shared_ptr<net::TcpTransport> transport_;
  std::unique_ptr<paradyn::Frontend> frontend_;
  std::unique_ptr<Pool> pool_;
};

TEST_F(ParadorRealTest, Figure5BStyleSubmitRunsMonitoredJob) {
  // The Figure 5B submit file adapted to this environment: a real shell
  // job, monitored by the real paradynd binary; -p/-P come from the live
  // front-end instead of hard-coded 2090/2091.
  const std::string submit_text =
      "universe = Vanilla\n"
      "executable = /bin/sh\n"
      "arguments = \"-c 'sleep 0.4; echo monitored-done'\"\n"
      "output = outfile\n"
      "+SuspendJobAtExec = True\n"
      "+ToolDaemonCmd = \"" TDP_PARADYND_PATH "\"\n"
      "+ToolDaemonArgs = \"-zunix -l1 -a%pid\"\n"
      "+ToolDaemonOutput = \"daemon.out\"\n"
      "+ToolDaemonError = \"daemon.err\"\n"
      "queue\n";

  auto file = SubmitFile::parse(submit_text);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  auto ids = pool_->submit(file.value());
  ASSERT_EQ(ids.size(), 1u);

  auto record = pool_->run_to_completion(ids[0], 30'000);
  ASSERT_TRUE(record.is_ok()) << record.status().to_string();
  EXPECT_EQ(record->status, JobStatus::kCompleted) << record->failure_reason;
  EXPECT_EQ(record->exit_code, 0);

  // The job really ran (its output came back to the submit machine)...
  std::ifstream out(submit_dir_ + "/outfile");
  std::string line;
  std::getline(out, line);
  EXPECT_EQ(line, "monitored-done");

  // ...and the tool daemon really monitored it: it connected to the
  // front-end, shipped reports, and its stdout was staged back too.
  EXPECT_GT(frontend_->reports_received(), 0u);
  EXPECT_GT(frontend_->metrics().value(paradyn::Metric::kCpuTime, "/Code"), 0.0);
  std::ifstream daemon_out(submit_dir_ + "/daemon.out");
  std::string daemon_line;
  std::getline(daemon_out, daemon_line);
  EXPECT_NE(daemon_line.find("paradynd: monitoring pid"), std::string::npos);
}

TEST_F(ParadorRealTest, UnmonitoredJobStillWorksOverTcp) {
  condor::JobDescription job;
  job.executable = "/bin/sh";
  job.arguments = "-c 'echo plain'";
  job.output = "plain.out";
  auto record = pool_->run_to_completion(pool_->submit(job), 20'000);
  ASSERT_TRUE(record.is_ok()) << record.status().to_string();
  EXPECT_EQ(record->status, JobStatus::kCompleted);
  std::ifstream out(submit_dir_ + "/plain.out");
  std::string line;
  std::getline(out, line);
  EXPECT_EQ(line, "plain");
}

}  // namespace
}  // namespace tdp
