// Unit tests for Paradynd and Frontend outside MiniCondor: a bare RM
// session plays the starter, so every daemon behaviour is testable in
// isolation — including the front-end's command channel ("the paradynds
// operate under the control of paradyn", Section 4.2).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "attrspace/attr_server.hpp"
#include "net/inproc.hpp"
#include "paradyn/frontend.hpp"
#include "paradyn/paradynd.hpp"
#include "proc/sim_backend.hpp"

namespace tdp::paradyn {
namespace {

class ParadyndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    transport_ = net::InProcTransport::create();
    lass_ = std::make_unique<attr::AttrServer>("LASS", transport_);
    lass_address_ = lass_->start("inproc://pd-lass").value();
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
        backend_->step(1);  // virtual time advances with the pump
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

  proc::Pid create_app(std::int64_t work, proc::CreateMode mode) {
    proc::CreateOptions options;
    options.argv = {"unit_app"};
    options.mode = mode;
    options.sim_work_units = work;
    auto pid = rm_->create_process(options).value();
    rm_->put(attr::attrs::kPid, std::to_string(pid));
    rm_->put(attr::attrs::kExecutableName, "unit_app");
    return pid;
  }

  ParadyndConfig daemon_config() {
    ParadyndConfig config;
    config.lass_address = lass_address_;
    config.transport = transport_;
    config.sample_quantum_micros = 1000;
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

TEST_F(ParadyndTest, CreateModeStartupAndProfile) {
  proc::Pid pid = create_app(300, proc::CreateMode::kPaused);
  Paradynd daemon(daemon_config());
  ASSERT_TRUE(daemon.start().is_ok());
  EXPECT_EQ(daemon.app_pid(), pid);
  EXPECT_FALSE(daemon.connected_to_frontend());  // none configured
  // start() continued the app.
  EXPECT_EQ(backend_->info(pid)->state, proc::ProcessState::kRunning);

  ASSERT_TRUE(daemon.run(20'000).is_ok());
  EXPECT_TRUE(daemon.app_exited());
  EXPECT_GT(daemon.local_metrics().value(Metric::kCpuTime, "/Code"), 0.0);
  daemon.stop();
}

TEST_F(ParadyndTest, AttachModeSkipsPidLookup) {
  proc::Pid pid = create_app(100, proc::CreateMode::kRun);
  // Remove the published pid to prove attach mode does not need it.
  rm_->lass_client().remove(attr::attrs::kPid);

  ParadyndConfig config = daemon_config();
  config.attach_pid = pid;
  Paradynd daemon(std::move(config));
  ASSERT_TRUE(daemon.start().is_ok());
  EXPECT_EQ(daemon.app_pid(), pid);
  ASSERT_TRUE(daemon.run(20'000).is_ok());
  daemon.stop();
}

TEST_F(ParadyndTest, MissingPidTimesOutCleanly) {
  ParadyndConfig config = daemon_config();
  config.pid_wait_timeout_ms = 100;
  Paradynd daemon(std::move(config));
  Status status = daemon.start();
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kTimeout);
}

TEST_F(ParadyndTest, InferiorSeededFromPublishedExecutable) {
  create_app(50, proc::CreateMode::kPaused);
  Paradynd daemon(daemon_config());
  ASSERT_TRUE(daemon.start().is_ok());
  ASSERT_NE(daemon.inferior(), nullptr);
  // Whole-program instrumentation was installed at init.
  EXPECT_GT(daemon.inferior()->active_points(), 0u);
  EXPECT_NE(daemon.inferior()->symbols().find("compute.o", "hot_spot"), nullptr);
  daemon.run(20'000);
  daemon.stop();
}

TEST_F(ParadyndTest, FrontendCommandsControlTheApplication) {
  Frontend frontend(transport_);
  auto frontend_address = frontend.start("inproc://pd-fe").value();

  proc::Pid pid = create_app(100'000, proc::CreateMode::kPaused);
  ParadyndConfig config = daemon_config();
  config.frontend_address = frontend_address;
  Paradynd daemon(std::move(config));
  ASSERT_TRUE(daemon.start().is_ok());
  ASSERT_TRUE(daemon.connected_to_frontend());

  // Wait for the hello to register the daemon.
  for (int i = 0; i < 500 && frontend.daemon_count() == 0; ++i) {
    daemon.poll_once();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(frontend.daemon_count(), 1u);

  // Pause through the front-end: front-end -> daemon -> (TDP) -> RM.
  ASSERT_TRUE(frontend.command(pid, "pause").is_ok());
  for (int i = 0; i < 500; ++i) {
    daemon.poll_once();
    if (backend_->info(pid)->state == proc::ProcessState::kStopped) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(backend_->info(pid)->state, proc::ProcessState::kStopped);

  ASSERT_TRUE(frontend.command(pid, "continue").is_ok());
  for (int i = 0; i < 500; ++i) {
    daemon.poll_once();
    if (backend_->info(pid)->state == proc::ProcessState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(backend_->info(pid)->state, proc::ProcessState::kRunning);

  // Dynamic instrumentation on demand.
  const std::size_t points_before = daemon.inferior()->active_points();
  ASSERT_TRUE(frontend
                  .command(pid, "uninstrument",
                           {{"module", "compute.o"}, {"function", "hot_spot"}})
                  .is_ok());
  for (int i = 0; i < 500; ++i) {
    daemon.poll_once();
    if (daemon.inferior()->active_points() < points_before) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_LT(daemon.inferior()->active_points(), points_before);

  // Kill through the front-end ends the session.
  ASSERT_TRUE(frontend.command(pid, "kill").is_ok());
  for (int i = 0; i < 1000 && !daemon.app_exited(); ++i) {
    daemon.poll_once();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(daemon.app_exited());

  daemon.stop();
  frontend.stop();
}

TEST_F(ParadyndTest, CommandForUnknownPidFails) {
  Frontend frontend(transport_);
  frontend.start("inproc://pd-fe2").value();
  EXPECT_EQ(frontend.command(4242, "pause").code(), ErrorCode::kNotFound);
  frontend.stop();
}

// The starter retires a job's LASS once the application has exited. When
// that happens between paradynd's continue request and its reply, the RM
// is gone, not the report: the daemon must still end the job with a final
// report to the front-end.
TEST(ParadyndStartupRace, LassRetiredBeforeContinueReplyStillReports) {
  auto transport = net::InProcTransport::create();
  attr::AttrServer lass("LASS", transport);
  const std::string lass_address = lass.start("inproc://race-lass").value();
  Frontend frontend(transport);
  const std::string frontend_address = frontend.start("inproc://race-fe").value();

  auto backend = std::make_shared<proc::SimProcessBackend>();
  proc::CreateOptions create;
  create.argv = {"race_app"};
  create.mode = proc::CreateMode::kPaused;
  create.sim_work_units = 1;
  const proc::Pid pid = backend->create_process(create).value();

  // A hand-written RM: it answers attach, but on continue it runs the
  // 1-unit application to its exit and stops the LASS before replying.
  auto rm = attr::AttrClient::connect(*transport, lass_address, "tdp").value();
  ASSERT_TRUE(rm->put(attr::attrs::kPid, std::to_string(pid)).is_ok());
  std::atomic<bool> retired{false};
  ASSERT_TRUE(rm->subscribe(control::kRequestPattern,
                            [&](const std::string& attribute, const std::string& value) {
                              const std::string reply =
                                  "tdprep." + attribute.substr(std::strlen("tdpreq."));
                              if (value.rfind("op:attach", 0) == 0) {
                                backend->attach(pid);
                                rm->put(reply, "ok");
                              } else if (value.rfind("op:continue", 0) == 0) {
                                backend->continue_process(pid);
                                while (!proc::is_terminal(backend->info(pid)->state)) {
                                  backend->step(1);
                                }
                                lass.stop();
                                retired.store(true);
                              }
                            })
                  .is_ok());
  std::atomic<bool> started_up{false};
  std::thread pump([&] {
    while (!retired.load() && !started_up.load()) {
      rm->service_events();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  ParadyndConfig config;
  config.lass_address = lass_address;
  config.transport = transport;
  config.frontend_address = frontend_address;
  Paradynd daemon(std::move(config));
  Status started = daemon.start();
  started_up.store(true);
  pump.join();
  ASSERT_TRUE(retired.load());
  ASSERT_TRUE(started.is_ok()) << started.to_string();
  EXPECT_TRUE(daemon.run(5'000).is_ok());
  EXPECT_TRUE(daemon.app_exited());
  daemon.stop();

  for (int i = 0; i < 2500 && frontend.finished_pids().empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(frontend.finished_pids(), std::vector<proc::Pid>{pid});
  frontend.stop();
}

TEST_F(ParadyndTest, DoubleStartRejected) {
  create_app(50, proc::CreateMode::kPaused);
  Paradynd daemon(daemon_config());
  ASSERT_TRUE(daemon.start().is_ok());
  EXPECT_EQ(daemon.start().code(), ErrorCode::kInvalidState);
  daemon.run(20'000);
  daemon.stop();
}

}  // namespace
}  // namespace tdp::paradyn
