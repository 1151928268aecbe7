// Tests for TdpSession: the full RM/RT pairing over a live LASS, the
// Figure 3A create sequence, the Figure 3B attach sequence, and the
// Section 2.3 control routing. Every RM-side case runs twice: as
// SessionTest.<Case> with the RM dialing its LASS, and as
// CoLocatedSessionTest.<Case> with the RM joined over the LASS's owner
// endpoint, as the starter is.
#include "core/tdp.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "attrspace/attr_server.hpp"
#include "net/inproc.hpp"
#include "proc/sim_backend.hpp"

#include "lass_path.hpp"

namespace tdp {
namespace {

using attr::attrs::kPid;
using proc::CreateMode;
using proc::CreateOptions;
using proc::ProcessState;

class SessionTest : public ::testing::Test {
 protected:
  explicit SessionTest(LassPath path = LassPath::kDialed) : path_(path) {}

  // RM-side case bodies (TDP_RM_SESSION_TEST).
  void RmRequiresBackend();
  void AttributeOpsWork();
  void Figure3ACreateSequence();
  void Figure3BAttachSequence();
  void ToolControlRoutesThroughRm();
  void ControlRequestOnBadPidReportsError();
  void ControlTimesOutWhenRmNotPumping();
  void RmPublishesProcessStateChanges();
  void ToolSubscribesToStateNotifications();
  void TwoToolsTwoContextsDoNotInterfere();

  void SetUp() override {
    transport_ = net::InProcTransport::create();
    lass_ = std::make_unique<attr::AttrServer>("LASS", transport_);
    auto started = lass_->start("inproc://lass");
    ASSERT_TRUE(started.is_ok());
    lass_address_ = started.value();
    backend_ = std::make_shared<proc::SimProcessBackend>();
  }

  void TearDown() override {
    rm_pump_stop_.store(true);
    if (rm_pump_.joinable()) rm_pump_.join();
    lass_->stop();
  }

  /// The RM session is fixture-owned: the pump thread started by
  /// pump_rm() outlives the test body and is only joined in TearDown, so
  /// the session it services must not be a test-body local.
  TdpSession* make_rm() {
    InitOptions options;
    options.role = Role::kResourceManager;
    options.lass_address = lass_address_;
    options.transport = transport_;
    options.backend = backend_;
    auto session = init_rm(path_, *lass_, std::move(options));
    EXPECT_TRUE(session.is_ok()) << session.status().to_string();
    rm_session_ = std::move(session).value();
    return rm_session_.get();
  }

  std::unique_ptr<TdpSession> make_tool() {
    InitOptions options;
    options.role = Role::kTool;
    options.lass_address = lass_address_;
    options.transport = transport_;
    auto session = TdpSession::init(std::move(options));
    EXPECT_TRUE(session.is_ok()) << session.status().to_string();
    return std::move(session).value();
  }

  /// Runs the RM's central poll loop on a thread, as a real starter would.
  void pump_rm(TdpSession& rm) {
    rm_pump_ = std::thread([this, &rm] {
      while (!rm_pump_stop_.load()) {
        rm.service_events();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  static CreateOptions sim_app(CreateMode mode, std::int64_t work = 5) {
    CreateOptions options;
    options.argv = {"app"};
    options.mode = mode;
    options.sim_work_units = work;
    return options;
  }

  const LassPath path_;
  std::shared_ptr<net::InProcTransport> transport_;
  std::unique_ptr<attr::AttrServer> lass_;
  std::string lass_address_;
  std::shared_ptr<proc::SimProcessBackend> backend_;
  std::unique_ptr<TdpSession> rm_session_;  ///< owned past the pump join
  std::thread rm_pump_;
  std::atomic<bool> rm_pump_stop_{false};
};

class CoLocatedSessionTest : public SessionTest {
 protected:
  CoLocatedSessionTest() : SessionTest(LassPath::kCoLocated) {}
};

#define RM_SESSION_TEST(Case) \
  TDP_RM_SESSION_TEST(SessionTest, CoLocatedSessionTest, Case)

TEST_F(SessionTest, InitRequiresTransportAndLass) {
  InitOptions no_transport;
  no_transport.lass_address = lass_address_;
  EXPECT_EQ(TdpSession::init(std::move(no_transport)).status().code(),
            ErrorCode::kInvalidArgument);

  InitOptions no_lass;
  no_lass.transport = transport_;
  EXPECT_EQ(TdpSession::init(std::move(no_lass)).status().code(),
            ErrorCode::kInvalidArgument);
}

RM_SESSION_TEST(RmRequiresBackend) {
  InitOptions options;
  options.role = Role::kResourceManager;
  options.lass_address = lass_address_;
  options.transport = transport_;
  EXPECT_EQ(init_rm(path_, *lass_, std::move(options)).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(SessionTest, ToolCannotCreateProcesses) {
  auto tool = make_tool();
  auto result = tool->create_process(sim_app(CreateMode::kRun));
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidState);
}

RM_SESSION_TEST(AttributeOpsWork) {
  auto rm = make_rm();
  auto tool = make_tool();
  ASSERT_TRUE(rm->put("executable_name", "/bin/foo").is_ok());
  EXPECT_EQ(tool->get("executable_name", 2000).value(), "/bin/foo");
  EXPECT_EQ(tool->try_get("nope").status().code(), ErrorCode::kNotFound);
}

RM_SESSION_TEST(Figure3ACreateSequence) {
  // RM side: tdp_init, create AP paused, publish pid, create RT
  // (the RT here is this test's tool session).
  auto rm = make_rm();
  auto app = rm->create_process(sim_app(CreateMode::kPaused));
  ASSERT_TRUE(app.is_ok());
  EXPECT_EQ(backend_->info(app.value())->state, ProcessState::kPausedAtExec);
  ASSERT_TRUE(rm->put(kPid, std::to_string(app.value())).is_ok());
  pump_rm(*rm);

  // RT side: tdp_init, blocking get of the pid, attach, initialize,
  // continue.
  auto tool = make_tool();
  auto pid_value = tool->get(kPid, 5000);
  ASSERT_TRUE(pid_value.is_ok());
  const proc::Pid pid = std::stoll(pid_value.value());
  EXPECT_EQ(pid, app.value());

  ASSERT_TRUE(tool->attach(pid).is_ok());
  // Attach on a paused-at-exec process keeps it paused.
  EXPECT_EQ(backend_->info(pid)->state, ProcessState::kPausedAtExec);

  ASSERT_TRUE(tool->continue_process(pid).is_ok());
  EXPECT_EQ(backend_->info(pid)->state, ProcessState::kRunning);
}

RM_SESSION_TEST(Figure3BAttachSequence) {
  // Application is already running under the RM.
  auto rm = make_rm();
  auto app = rm->create_process(sim_app(CreateMode::kRun));
  ASSERT_TRUE(app.is_ok());
  ASSERT_TRUE(rm->put(kPid, std::to_string(app.value())).is_ok());
  pump_rm(*rm);

  // Tool arrives later, attaches mid-execution.
  auto tool = make_tool();
  const proc::Pid pid = std::stoll(tool->get(kPid, 5000).value());
  ASSERT_TRUE(tool->attach(pid).is_ok());
  EXPECT_EQ(backend_->info(pid)->state, ProcessState::kStopped);
  ASSERT_TRUE(tool->continue_process(pid).is_ok());
  EXPECT_EQ(backend_->info(pid)->state, ProcessState::kRunning);
}

RM_SESSION_TEST(ToolControlRoutesThroughRm) {
  auto rm = make_rm();
  auto app = rm->create_process(sim_app(CreateMode::kRun)).value();
  pump_rm(*rm);

  auto tool = make_tool();
  ASSERT_TRUE(tool->pause_process(app).is_ok());
  EXPECT_EQ(backend_->info(app)->state, ProcessState::kStopped);
  ASSERT_TRUE(tool->continue_process(app).is_ok());
  EXPECT_EQ(backend_->info(app)->state, ProcessState::kRunning);
  ASSERT_TRUE(tool->kill_process(app).is_ok());
  EXPECT_EQ(backend_->info(app)->state, ProcessState::kSignalled);
}

RM_SESSION_TEST(ControlRequestOnBadPidReportsError) {
  auto rm = make_rm();
  pump_rm(*rm);
  auto tool = make_tool();
  Status status = tool->continue_process(424242);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("NOT_FOUND"), std::string::npos);
}

RM_SESSION_TEST(ControlTimesOutWhenRmNotPumping) {
  auto rm = make_rm();  // created but its event loop never runs
  auto app = rm->create_process(sim_app(CreateMode::kRun)).value();

  InitOptions options;
  options.role = Role::kTool;
  options.lass_address = lass_address_;
  options.transport = transport_;
  options.control_timeout_ms = 100;
  auto tool = TdpSession::init(std::move(options)).value();

  Status status = tool->pause_process(app);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kTimeout);
}

RM_SESSION_TEST(RmPublishesProcessStateChanges) {
  auto rm = make_rm();
  auto app = rm->create_process(sim_app(CreateMode::kRun, 2)).value();
  pump_rm(*rm);

  auto tool = make_tool();
  // Drive the app to completion in the simulated world.
  backend_->step(2);
  // The RM pump publishes proc_state.<pid>; the tool sees it.
  auto value = tool->get(control::state_attr(app), 5000);
  ASSERT_TRUE(value.is_ok());
  // Final published state must be the exit.
  for (int i = 0; i < 200; ++i) {
    auto latest = tool->try_get(control::state_attr(app));
    if (latest.is_ok() && latest.value() == "exited:0") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(tool->try_get(control::state_attr(app)).value(), "exited:0");

  // And process_info on the tool side decodes it.
  auto info = tool->process_info(app);
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info->state, ProcessState::kExited);
  EXPECT_EQ(info->exit_code, 0);
}

RM_SESSION_TEST(ToolSubscribesToStateNotifications) {
  auto rm = make_rm();
  pump_rm(*rm);
  auto tool = make_tool();

  std::vector<std::string> seen;
  ASSERT_TRUE(tool->subscribe("proc_state.*",
                              [&](const std::string&, const std::string& value) {
                                seen.push_back(value);
                              })
                  .is_ok());

  auto app = rm->create_process(sim_app(CreateMode::kPaused)).value();
  // Paused event published by the pump (generous bound: one core runs the
  // pump, the server and this loop).
  for (int i = 0; i < 1000 && seen.empty(); ++i) {
    tool->service_events();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen[0], "paused_at_exec");
  (void)app;
}

TEST_F(SessionTest, ExitIsIdempotentAndFinal) {
  auto tool = make_tool();
  EXPECT_TRUE(tool->exit().is_ok());
  EXPECT_TRUE(tool->exit().is_ok());
}

TEST_F(SessionTest, ControlAttrNamesAreWellFormed) {
  EXPECT_EQ(control::request_attr("tok", 3), "tdpreq.tok.3");
  EXPECT_EQ(control::reply_attr("tok", 3), "tdprep.tok.3");
  EXPECT_EQ(control::state_attr(42), "proc_state.42");
}

RM_SESSION_TEST(TwoToolsTwoContextsDoNotInterfere) {
  // An RM managing two RTs uses one context per RT (Section 3.2).
  auto backend2 = std::make_shared<proc::SimProcessBackend>();

  InitOptions rm1_options;
  rm1_options.role = Role::kResourceManager;
  rm1_options.lass_address = lass_address_;
  rm1_options.transport = transport_;
  rm1_options.backend = backend_;
  rm1_options.context = "rt-alpha";
  auto rm1 = init_rm(path_, *lass_, std::move(rm1_options)).value();

  InitOptions rm2_options;
  rm2_options.role = Role::kResourceManager;
  rm2_options.lass_address = lass_address_;
  rm2_options.transport = transport_;
  rm2_options.backend = backend2;
  rm2_options.context = "rt-beta";
  auto rm2 = init_rm(path_, *lass_, std::move(rm2_options)).value();

  ASSERT_TRUE(rm1->put(kPid, "111").is_ok());
  ASSERT_TRUE(rm2->put(kPid, "222").is_ok());

  InitOptions t1_options;
  t1_options.lass_address = lass_address_;
  t1_options.transport = transport_;
  t1_options.context = "rt-alpha";
  auto tool1 = TdpSession::init(std::move(t1_options)).value();

  InitOptions t2_options;
  t2_options.lass_address = lass_address_;
  t2_options.transport = transport_;
  t2_options.context = "rt-beta";
  auto tool2 = TdpSession::init(std::move(t2_options)).value();

  EXPECT_EQ(tool1->get(kPid, 2000).value(), "111");
  EXPECT_EQ(tool2->get(kPid, 2000).value(), "222");
}

}  // namespace
}  // namespace tdp
