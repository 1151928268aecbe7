// Tests for TdpSession inside a real Reactor poll loop — the Section 3.3
// daemon structure at the C++ level — plus coverage for async_put,
// CASS operations, and the tdp_fd contract. The RM-side cases also run as
// CoLocatedSessionEventLoopTest.<Case>, with the RM joined over the LASS's
// owner endpoint.
#include <gtest/gtest.h>

#include <poll.h>

#include <thread>

#include "attrspace/attr_server.hpp"
#include "core/tdp.hpp"
#include "net/inproc.hpp"
#include "net/reactor.hpp"
#include "proc/sim_backend.hpp"

#include "lass_path.hpp"

namespace tdp {
namespace {

class SessionEventLoopTest : public ::testing::Test {
 protected:
  explicit SessionEventLoopTest(LassPath path = LassPath::kDialed) : path_(path) {}

  // RM-side case bodies (TDP_RM_SESSION_TEST).
  void ReactorDrivenDaemonLoop();
  void SubscriptionSurvivesManyEvents();

  void SetUp() override {
    transport_ = net::InProcTransport::create();
    lass_ = std::make_unique<attr::AttrServer>("LASS", transport_);
    lass_address_ = lass_->start("inproc://loop-lass").value();
  }

  void TearDown() override { lass_->stop(); }

  std::unique_ptr<TdpSession> make_session(Role role) {
    InitOptions options;
    options.role = role;
    options.lass_address = lass_address_;
    options.transport = transport_;
    if (role == Role::kResourceManager) {
      options.backend = std::make_shared<proc::SimProcessBackend>();
      return init_rm(path_, *lass_, std::move(options)).value();
    }
    return TdpSession::init(std::move(options)).value();
  }

  const LassPath path_;
  std::shared_ptr<net::InProcTransport> transport_;
  std::unique_ptr<attr::AttrServer> lass_;
  std::string lass_address_;
};

class CoLocatedSessionEventLoopTest : public SessionEventLoopTest {
 protected:
  CoLocatedSessionEventLoopTest() : SessionEventLoopTest(LassPath::kCoLocated) {}
};

#define RM_SESSION_TEST(Case) \
  TDP_RM_SESSION_TEST(SessionEventLoopTest, CoLocatedSessionEventLoopTest, Case)

RM_SESSION_TEST(ReactorDrivenDaemonLoop) {
  // The canonical daemon structure: the session's event fd registered in
  // a Reactor; the handler calls service_events. Exactly the paper's
  // "asynchronous events simply cause activity on a descriptor".
  auto rm = make_session(Role::kResourceManager);
  auto tool = make_session(Role::kTool);

  net::Reactor reactor;
  int completions = 0;
  reactor.add_readable(tool->event_fd(), [&] { completions += tool->service_events(); });

  tool->async_get("pid", [](const Status&, const std::string&, const std::string&) {});
  tool->async_get("executable_name",
                  [](const Status&, const std::string&, const std::string&) {});
  EXPECT_EQ(reactor.run_once(50), 0);  // nothing completed yet

  rm->put("executable_name", "/bin/app");
  int spins = 0;
  while (completions < 1 && spins++ < 200) reactor.run_once(100);
  EXPECT_EQ(completions, 1);

  rm->put("pid", "99");
  while (completions < 2 && spins++ < 400) reactor.run_once(100);
  EXPECT_EQ(completions, 2);
}

TEST_F(SessionEventLoopTest, AsyncPutCompletesViaServiceEvents) {
  auto session = make_session(Role::kTool);
  Status seen = make_error(ErrorCode::kInternal, "pending");
  auto fd = session->async_put("key", "value",
                               [&seen](const Status& status, const std::string&,
                                       const std::string&) { seen = status; });
  ASSERT_TRUE(fd.is_ok());
  struct pollfd pfd{fd.value(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 3000), 1);
  while (!seen.is_ok()) session->service_events();
  EXPECT_EQ(session->try_get("key").value(), "value");
}

TEST_F(SessionEventLoopTest, CassOpsRequireConfiguration) {
  auto session = make_session(Role::kTool);
  EXPECT_EQ(session->cass_put("a", "b").code(), ErrorCode::kInvalidState);
  EXPECT_EQ(session->cass_get("a", 10).status().code(), ErrorCode::kInvalidState);
  EXPECT_FALSE(session->has_cass());
}

TEST_F(SessionEventLoopTest, CassOpsWorkWhenConfigured) {
  attr::AttrServer cass("CASS", transport_);
  auto cass_address = cass.start("inproc://loop-cass").value();

  InitOptions options;
  options.lass_address = lass_address_;
  options.cass_address = cass_address;
  options.transport = transport_;
  auto session = TdpSession::init(std::move(options)).value();
  ASSERT_TRUE(session->has_cass());

  ASSERT_TRUE(session->cass_put("global", "value").is_ok());
  EXPECT_EQ(session->cass_get("global", 2000).value(), "value");
  // LASS and CASS are distinct spaces.
  EXPECT_EQ(session->try_get("global").status().code(), ErrorCode::kNotFound);

  session->exit();
  cass.stop();
}

TEST_F(SessionEventLoopTest, EventFdIsPollable) {
  auto session = make_session(Role::kTool);
  EXPECT_GE(session->event_fd(), 0);
  struct pollfd pfd{session->event_fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0);  // quiescent session: nothing pending
}

RM_SESSION_TEST(SubscriptionSurvivesManyEvents) {
  auto rm = make_session(Role::kResourceManager);
  auto tool = make_session(Role::kTool);
  int notifications = 0;
  ASSERT_TRUE(tool->subscribe("tick*", [&](const std::string&, const std::string&) {
                     ++notifications;
                   })
                  .is_ok());
  constexpr int kEvents = 100;
  for (int i = 0; i < kEvents; ++i) {
    rm->put("tick" + std::to_string(i), "x");
  }
  for (int spins = 0; notifications < kEvents && spins < 1000; ++spins) {
    tool->service_events();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(notifications, kEvents);
}

}  // namespace
}  // namespace tdp
