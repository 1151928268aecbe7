// Tests for the Vampir-style TraceTool: the second run-time tool of the
// m-tools story, and the embodiment of the paper's observation that trace
// tools cannot use attach mode.
#include "paradyn/tracetool.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "attrspace/attr_server.hpp"
#include "condor/pool.hpp"
#include "net/inproc.hpp"
#include "proc/sim_backend.hpp"
#include "support/tempdir.hpp"

namespace tdp::paradyn {
namespace {

class TraceToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    transport_ = net::InProcTransport::create();
    lass_ = std::make_unique<attr::AttrServer>("LASS", transport_);
    lass_address_ = lass_->start("inproc://trace-lass").value();
    backend_ = std::make_shared<proc::SimProcessBackend>();

    InitOptions options;
    options.role = Role::kResourceManager;
    options.lass_address = lass_address_;
    options.transport = transport_;
    options.backend = backend_;
    rm_ = TdpSession::init(std::move(options)).value();
    pump_ = std::thread([this] {
      while (!stop_.load()) {
        rm_->service_events();
        backend_->step(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  void TearDown() override {
    stop_.store(true);
    pump_.join();
    rm_->exit();
    lass_->stop();
  }

  proc::Pid create_app(proc::CreateMode mode, std::int64_t work = 200) {
    proc::CreateOptions options;
    options.argv = {"traced_app"};
    options.mode = mode;
    options.sim_work_units = work;
    auto pid = rm_->create_process(options).value();
    rm_->put(attr::attrs::kPid, std::to_string(pid));
    rm_->put(attr::attrs::kExecutableName, "traced_app");
    return pid;
  }

  TraceToolConfig tracer_config() {
    TraceToolConfig config;
    config.lass_address = lass_address_;
    config.transport = transport_;
    config.quantum_micros = 1000;
    return config;
  }

  std::shared_ptr<net::InProcTransport> transport_;
  std::unique_ptr<attr::AttrServer> lass_;
  std::string lass_address_;
  std::shared_ptr<proc::SimProcessBackend> backend_;
  std::unique_ptr<TdpSession> rm_;
  std::thread pump_;
  std::atomic<bool> stop_{false};
};

TEST_F(TraceToolTest, TracesFromFirstInstruction) {
  proc::Pid pid = create_app(proc::CreateMode::kPaused);
  TraceTool tracer(tracer_config());
  ASSERT_TRUE(tracer.start().is_ok());
  EXPECT_EQ(tracer.app_pid(), pid);
  EXPECT_EQ(backend_->info(pid)->state, proc::ProcessState::kRunning);

  ASSERT_TRUE(tracer.run(20'000).is_ok());
  EXPECT_TRUE(tracer.app_exited());
  ASSERT_FALSE(tracer.records().empty());
  // The trace must begin at virtual time zero — nothing happened before
  // tracing started, which is the whole point of create mode.
  EXPECT_EQ(tracer.records().front().timestamp_micros, 0);
  // Every ENTER has its EXIT and timestamps are monotone.
  int depth = 0;
  std::int64_t last_time = -1;
  for (const TraceRecord& record : tracer.records()) {
    EXPECT_GE(record.timestamp_micros, last_time);
    last_time = record.timestamp_micros;
    depth += record.kind == TraceRecord::Kind::kEnter ? 1 : -1;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  tracer.stop();
}

TEST_F(TraceToolTest, RefusesAlreadyRunningApplication) {
  // Figure 3B attach mode: forbidden for trace tools ("the Vampir trace
  // tool requires the tracing to be started before the application starts
  // execution").
  create_app(proc::CreateMode::kRun);
  TraceTool tracer(tracer_config());
  Status status = tracer.start();
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidState);
  EXPECT_NE(status.message().find("first instruction"), std::string::npos);
}

TEST_F(TraceToolTest, WritesTraceFileAtExit) {
  const std::string trace_path = testdir::path("tdp_trace.out");
  create_app(proc::CreateMode::kPaused, 100);

  TraceToolConfig config = tracer_config();
  config.trace_path = trace_path;
  TraceTool tracer(std::move(config));
  ASSERT_TRUE(tracer.start().is_ok());
  ASSERT_TRUE(tracer.run(20'000).is_ok());

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("ENTER"), std::string::npos);
  std::size_t lines = 1;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, tracer.records().size());
}

TEST_F(TraceToolTest, HotFunctionDominatesTrace) {
  create_app(proc::CreateMode::kPaused, 400);
  TraceTool tracer(tracer_config());
  ASSERT_TRUE(tracer.start().is_ok());
  ASSERT_TRUE(tracer.run(20'000).is_ok());

  std::size_t hot = 0, total = 0;
  for (const TraceRecord& record : tracer.records()) {
    if (record.kind != TraceRecord::Kind::kEnter) continue;
    ++total;
    if (record.function == "hot_spot") ++hot;
  }
  ASSERT_GT(total, 20u);
  // hot_spot holds ~half the weight: it must dominate the call mix.
  EXPECT_GT(hot * 3, total);
}

TEST(TraceToolPool, SecondToolRunsUnderUnchangedMiniCondor) {
  // The m-tools payoff: the SAME pool code that ran paradynd runs the
  // tracer — only the launcher (the tool side) differs.
  auto transport = net::InProcTransport::create();
  const std::string trace_dir = testdir::fresh("pool_traces");

  paradyn::InProcTraceLauncher::Options launcher_options;
  launcher_options.transport = transport;
  launcher_options.trace_dir = trace_dir;
  launcher_options.quantum_micros = 2000;
  paradyn::InProcTraceLauncher launcher(launcher_options);

  std::map<std::string, std::shared_ptr<proc::SimProcessBackend>> backends;
  condor::PoolConfig config;
  config.transport = transport;
  config.use_real_files = false;
  config.tool_launcher = &launcher;
  config.backend_factory = [&backends](const std::string& machine) {
    auto backend = std::make_shared<proc::SimProcessBackend>();
    backends[machine] = backend;
    return backend;
  };
  condor::Pool pool(std::move(config));
  pool.add_machine("node", condor::Pool::default_machine_ad("node"));

  condor::JobDescription job;
  job.executable = "traced_app";
  job.suspend_job_at_exec = true;  // trace tools require it
  job.tool_daemon.present = true;
  job.tool_daemon.cmd = "tracetool";
  job.tool_daemon.output = "app.trace";
  job.sim_work_units = 150;
  auto id = pool.submit(job);

  auto record = pool.run_to_completion(id, 30'000, [&backends] {
    for (auto& [name, backend] : backends) backend->step(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  launcher.join_all();
  ASSERT_TRUE(record.is_ok()) << record.status().to_string();
  EXPECT_EQ(record->status, condor::JobStatus::kCompleted)
      << record->failure_reason;
  EXPECT_EQ(launcher.tracers_launched(), 1u);
  EXPECT_TRUE(launcher.last_tracer_status().is_ok())
      << launcher.last_tracer_status().to_string();
  EXPECT_GT(launcher.last_record_count(), 0u);

  // The trace file landed where configured.
  bool trace_found = false;
  for (const auto& entry : std::filesystem::directory_iterator(trace_dir)) {
    if (entry.path().string().find("app.trace") != std::string::npos) {
      trace_found = true;
    }
  }
  EXPECT_TRUE(trace_found);
}

}  // namespace
}  // namespace tdp::paradyn
