// Thread model of the Paradyn side: the front-end serves every paradynd
// from one I/O thread, and the in-process launchers join each daemon's
// thread once the daemon has returned, so neither keeps a thread (and its
// stack) per daemon it ever served.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "attrspace/attr_server.hpp"
#include "net/inproc.hpp"
#include "paradyn/frontend.hpp"
#include "paradyn/inproc_tool.hpp"
#include "paradyn/tracetool.hpp"
#include "proc/sim_backend.hpp"
#include "util/log.hpp"

namespace tdp::paradyn {
namespace {

std::size_t thread_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

/// VmSize from /proc/self/status, in KiB.
std::size_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::size_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

/// Polls `done` every millisecond for up to 10 s.
bool eventually(const std::function<bool()>& done) {
  for (int i = 0; i < 10'000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

net::Message hello(proc::Pid pid) {
  net::Message msg(net::MsgType::kParadynHello);
  msg.set("daemon", "test-daemon");
  msg.set_int("pid", pid);
  msg.set("executable", "test_app");
  return msg;
}

net::Message final_report(proc::Pid pid) {
  net::Message msg(net::MsgType::kParadynReport);
  msg.set_int("pid", pid);
  msg.set_int("count", 0);
  msg.set("final", "1");
  return msg;
}

class FrontendReactorTest : public ::testing::Test {
 protected:
  /// Dials the front-end as a daemon would and announces `pid`.
  std::unique_ptr<net::Endpoint> connect_daemon(proc::Pid pid) {
    auto endpoint = transport_->connect(address_).value();
    EXPECT_TRUE(endpoint->send(hello(pid)).is_ok());
    return endpoint;
  }

  std::shared_ptr<net::InProcTransport> transport_ = net::InProcTransport::create();
  Frontend frontend_{transport_};
  std::string address_;
};

TEST_F(FrontendReactorTest, SixtyFourConnectedDaemonsAddOneThread) {
  const std::size_t before = thread_count();
  address_ = frontend_.start("inproc://fe-64").value();
  std::vector<std::unique_ptr<net::Endpoint>> daemons;
  for (proc::Pid pid = 1; pid <= 64; ++pid) daemons.push_back(connect_daemon(pid));
  ASSERT_TRUE(eventually([&] { return frontend_.daemon_count() == 64; }));
  EXPECT_LE(thread_count(), before + 1);
  frontend_.stop();
}

TEST_F(FrontendReactorTest, ThousandSequentialDaemonsAllFinish) {
  address_ = frontend_.start("inproc://fe-1000").value();
  constexpr proc::Pid kDaemons = 1000;
  for (proc::Pid pid = 1; pid <= kDaemons; ++pid) {
    auto daemon = connect_daemon(pid);
    ASSERT_TRUE(daemon->send(final_report(pid)).is_ok());
    daemon->close();
  }
  ASSERT_TRUE(eventually([&] {
    return frontend_.finished_pids().size() == static_cast<std::size_t>(kDaemons);
  }));
  EXPECT_EQ(frontend_.reports_received(), static_cast<std::size_t>(kDaemons));
  // Every disconnect dropped its daemon.
  EXPECT_TRUE(eventually([&] { return frontend_.daemon_count() == 0; }));
  frontend_.stop();
}

TEST_F(FrontendReactorTest, CommandReachesLiveDaemonAndItsReplyIsConsumed) {
  address_ = frontend_.start("inproc://fe-cmd").value();
  auto daemon = connect_daemon(7);
  ASSERT_TRUE(eventually([&] { return frontend_.daemon_count() == 1; }));

  ASSERT_TRUE(frontend_.command(7, "pause", {{"why", "test"}}).is_ok());
  auto command = daemon->receive(5000);
  ASSERT_TRUE(command.is_ok()) << command.status().to_string();
  EXPECT_EQ(command->type(), net::MsgType::kParadynCommand);
  EXPECT_EQ(command->get("cmd"), "pause");
  EXPECT_EQ(command->get("why"), "test");

  net::Message reply(net::MsgType::kParadynCommandReply);
  reply.set_seq(command->seq());
  reply.set("status", "ok");
  ASSERT_TRUE(daemon->send(reply).is_ok());
  // The reply is drained in order before the final report, and the link
  // survives it.
  ASSERT_TRUE(daemon->send(final_report(7)).is_ok());
  ASSERT_TRUE(eventually([&] { return frontend_.finished_pids().size() == 1; }));
  EXPECT_EQ(frontend_.daemon_count(), 1u);
  EXPECT_TRUE(frontend_.command_all("continue").is_ok());
  auto broadcast = daemon->receive(5000);
  ASSERT_TRUE(broadcast.is_ok());
  EXPECT_EQ(broadcast->get("cmd"), "continue");
  frontend_.stop();
}

TEST_F(FrontendReactorTest, StopWithDaemonsConnectedClosesThem) {
  address_ = frontend_.start("inproc://fe-stop").value();
  std::vector<std::unique_ptr<net::Endpoint>> daemons;
  for (proc::Pid pid = 1; pid <= 8; ++pid) daemons.push_back(connect_daemon(pid));
  // One more connection that never says hello.
  daemons.push_back(transport_->connect(address_).value());
  ASSERT_TRUE(eventually([&] { return frontend_.daemon_count() == 8; }));

  frontend_.stop();
  EXPECT_EQ(frontend_.daemon_count(), 0u);
  for (auto& daemon : daemons) {
    auto received = daemon->receive(5000);
    ASSERT_FALSE(received.is_ok());
    EXPECT_EQ(received.status().code(), ErrorCode::kConnectionError);
  }
  EXPECT_EQ(frontend_.command(1, "pause").code(), ErrorCode::kNotFound);
}

/// A LASS with an RM session, so launchers get a real rm_session argument.
class LauncherThreadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Every failing daemon warns; hundreds of them would bury the output.
    log::set_level(log::Level::kError);
    lass_ = std::make_unique<attr::AttrServer>("LASS", transport_);
    lass_address_ = lass_->start("inproc://launcher-lass").value();
    InitOptions options;
    options.role = Role::kResourceManager;
    options.lass_address = lass_address_;
    options.transport = transport_;
    options.backend = std::make_shared<proc::SimProcessBackend>();
    rm_ = TdpSession::init(std::move(options)).value();
  }

  void TearDown() override {
    rm_->exit();
    lass_->stop();
    log::set_level(level_);
  }

  /// Launches `count` daemons one after another, each against a LASS
  /// address nobody listens on, so it fails at tdp_init and returns at
  /// once. Each launch waits until the previous daemon's thread has
  /// exited. Returns the growth of VmSize in KiB, measured after two
  /// warm-up daemons have made a daemon thread's malloc arena and stack.
  std::size_t vm_growth_kib(condor::ToolLauncher& launcher, int count) {
    const std::size_t threads = thread_count();
    condor::ToolDaemonSpec spec;
    spec.present = true;
    auto launch_one = [&] {
      ASSERT_TRUE(launcher
                      .launch(spec, {}, "inproc://nobody-listens", "tdp",
                              attr::attrs::kPid, *rm_)
                      .is_ok());
      ASSERT_TRUE(eventually([&] { return thread_count() == threads; }));
    };
    launch_one();
    launch_one();
    const std::size_t before = vm_size_kib();
    for (int i = 0; i < count; ++i) launch_one();
    const std::size_t after = vm_size_kib();
    return after > before ? after - before : 0;
  }

  const log::Level level_ = log::get_level();
  std::shared_ptr<net::InProcTransport> transport_ = net::InProcTransport::create();
  std::unique_ptr<attr::AttrServer> lass_;
  std::string lass_address_;
  std::unique_ptr<TdpSession> rm_;
};

// glibc caches up to 40 MiB of freed thread stacks. A launcher that kept
// every finished thread unjoined grew by a whole 8-MiB stack per daemon
// (about 2 GiB for 256).
constexpr std::size_t kStackCacheKib = 40 * 1024;

TEST_F(LauncherThreadsTest, ParadyndLauncherJoinsReturnedDaemons) {
  InProcParadynLauncher::Options options;
  options.transport = transport_;
  InProcParadynLauncher launcher(options);
  EXPECT_LT(vm_growth_kib(launcher, 256), kStackCacheKib);
  launcher.join_all();
  EXPECT_EQ(launcher.daemons_launched(), 258u);
  EXPECT_EQ(launcher.last_daemon_status().code(), ErrorCode::kConnectionError);
}

TEST_F(LauncherThreadsTest, TraceLauncherJoinsReturnedDaemons) {
  InProcTraceLauncher::Options options;
  options.transport = transport_;
  InProcTraceLauncher launcher(options);
  EXPECT_LT(vm_growth_kib(launcher, 256), kStackCacheKib);
  launcher.join_all();
  EXPECT_EQ(launcher.tracers_launched(), 258u);
  EXPECT_EQ(launcher.last_tracer_status().code(), ErrorCode::kConnectionError);
}

TEST_F(LauncherThreadsTest, JoinAllWaitsForARunningDaemon) {
  InProcParadynLauncher::Options options;
  options.transport = transport_;
  InProcParadynLauncher launcher(options);
  condor::ToolDaemonSpec spec;
  spec.present = true;
  const std::size_t threads = thread_count();
  // No pid is ever published, so the daemon parks in its blocking get
  // until the LASS goes away.
  ASSERT_TRUE(launcher
                  .launch(spec, {}, lass_address_, "tdp", attr::attrs::kPid, *rm_)
                  .is_ok());
  ASSERT_TRUE(eventually([&] { return thread_count() == threads + 1; }));
  std::atomic<bool> retiring{false};
  std::thread retire([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    retiring.store(true);
    lass_->stop();
  });
  launcher.join_all();
  EXPECT_TRUE(retiring.load());
  EXPECT_EQ(launcher.last_daemon_status().code(), ErrorCode::kConnectionError);
  retire.join();
}

}  // namespace
}  // namespace tdp::paradyn
