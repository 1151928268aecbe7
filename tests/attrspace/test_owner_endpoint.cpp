// The owner endpoint (AttrServer::connect_local): the process that runs a
// server joins it without the transport or the I/O thread. Its requests
// must behave exactly as a dialed client's do — same replies, parked gets
// released by remote puts, notifies, trace headers, implicit exit — and it
// must stop working once the server stops.
#include <gtest/gtest.h>

#include <poll.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "attrspace/attr_client.hpp"
#include "attrspace/attr_server.hpp"
#include "net/inproc.hpp"
#include "util/telemetry.hpp"

namespace tdp::attr {
namespace {

class OwnerEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    transport_ = net::InProcTransport::create();
    server_ = std::make_unique<AttrServer>("LASS", transport_);
    auto started = server_->start("inproc://owner-lass");
    ASSERT_TRUE(started.is_ok()) << started.status().to_string();
    address_ = started.value();
  }

  void TearDown() override { server_->stop(); }

  std::unique_ptr<AttrClient> make_owner(const std::string& context = "tdp") {
    auto client = AttrClient::adopt(server_->connect_local(), context);
    EXPECT_TRUE(client.is_ok()) << client.status().to_string();
    return std::move(client).value();
  }

  std::unique_ptr<AttrClient> make_remote(const std::string& context = "tdp") {
    auto client = AttrClient::connect(*transport_, address_, context);
    EXPECT_TRUE(client.is_ok()) << client.status().to_string();
    return std::move(client).value();
  }

  /// Waits (bounded) until `count` watchers are registered in the store.
  bool wait_for_watchers(std::size_t count) {
    for (int i = 0; i < 2000; ++i) {
      if (server_->store().watcher_count() >= count) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  std::shared_ptr<net::InProcTransport> transport_;
  std::unique_ptr<AttrServer> server_;
  std::string address_;
};

TEST_F(OwnerEndpointTest, PutGetAndTryGet) {
  auto owner = make_owner();
  ASSERT_TRUE(owner->put("pid", "31337").is_ok());
  EXPECT_EQ(owner->get("pid", 1000).value(), "31337");
  EXPECT_EQ(owner->try_get("pid").value(), "31337");
  EXPECT_EQ(owner->try_get("absent").status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(owner->put_batch({{"a", "1"}, {"b", "2"}}).is_ok());
  EXPECT_EQ(server_->store().get("tdp", "b").value(), "2");

  // A remote reader sees what the owner wrote, and the other way round.
  auto remote = make_remote();
  EXPECT_EQ(remote->try_get("pid").value(), "31337");
  ASSERT_TRUE(remote->put("reply", "ok").is_ok());
  EXPECT_EQ(owner->try_get("reply").value(), "ok");

  // The owner joined the context and is no transport connection.
  EXPECT_EQ(server_->store().context_refcount("tdp"), 2);
  EXPECT_EQ(server_->connections_served(), 1u);
}

TEST_F(OwnerEndpointTest, ParkedGetIsReleasedByARemotePut) {
  auto owner = make_owner();
  auto remote = make_remote();
  const std::size_t before = server_->store().watcher_count();

  std::thread writer([&] {
    // Put only once the owner's get is parked server-side.
    if (wait_for_watchers(before + 1)) remote->put("pid", "4242");
  });
  auto value = owner->get("pid", 10'000);
  writer.join();
  ASSERT_TRUE(value.is_ok()) << value.status().to_string();
  EXPECT_EQ(value.value(), "4242");
}

TEST_F(OwnerEndpointTest, RemotePutNotifiesTheOwnerThroughItsDescriptor) {
  auto owner = make_owner();
  std::vector<std::string> seen;
  ASSERT_TRUE(owner
                  ->subscribe("tdpreq.*",
                              [&](const std::string& attribute, const std::string& value) {
                                seen.push_back(attribute + "=" + value);
                              })
                  .is_ok());
  const int fd = owner->readable_fd();
  ASSERT_GE(fd, 0);
  pollfd idle = {fd, POLLIN, 0};
  EXPECT_EQ(::poll(&idle, 1, 0), 0) << "descriptor readable with nothing queued";

  auto remote = make_remote();
  ASSERT_TRUE(remote->put("tdpreq.1", "op:continue pid:7").is_ok());
  pollfd ready = {fd, POLLIN, 0};
  ASSERT_EQ(::poll(&ready, 1, 5'000), 1) << "notify did not wake the owner";
  EXPECT_EQ(owner->service_events(), 1);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "tdpreq.1=op:continue pid:7");
  pollfd drained = {fd, POLLIN, 0};
  EXPECT_EQ(::poll(&drained, 1, 0), 0) << "descriptor still readable once drained";
}

TEST_F(OwnerEndpointTest, RequestsCarryTheCallersTrace) {
  telemetry::Tracer::instance().set_enabled(true);
  telemetry::Tracer::instance().clear();
  auto owner = make_owner();
  telemetry::SpanContext writer;
  {
    telemetry::Span span("starter.publish", "rm");
    writer = span.context();
    ASSERT_TRUE(owner->put("pid", "99").is_ok());
  }
  bool saw_dispatch = false;
  for (const auto& span : telemetry::Tracer::instance().finished()) {
    if (span.role != "LASS") continue;
    saw_dispatch = true;
    EXPECT_EQ(span.trace_id, writer.trace_id);
    EXPECT_EQ(span.parent_id, writer.span_id);
  }
  EXPECT_TRUE(saw_dispatch) << "the owner's traced put produced no dispatch span";

  // The value keeps the owner's trace, which is what paradynd's get("pid")
  // hands back to it.
  std::string stored_trace;
  ASSERT_TRUE(server_->store().get("tdp", "pid", &stored_trace).is_ok());
  EXPECT_EQ(telemetry::parse_context(stored_trace).trace_id, writer.trace_id);
  telemetry::Tracer::instance().clear();
}

TEST_F(OwnerEndpointTest, ClosingIsAnImplicitExit) {
  auto owner = make_owner("job-1");
  ASSERT_TRUE(owner->subscribe("x.*", [](const std::string&, const std::string&) {})
                  .is_ok());
  EXPECT_EQ(server_->store().context_refcount("job-1"), 1);
  EXPECT_EQ(server_->store().watcher_count(), 1u);

  // Dropping the connection without tdp_exit, as a crashed owner would.
  owner->abandon();
  EXPECT_EQ(server_->store().context_refcount("job-1"), 0);
  EXPECT_FALSE(server_->store().context_exists("job-1"));
  EXPECT_EQ(server_->store().watcher_count(), 0u);
}

TEST_F(OwnerEndpointTest, SendAfterStopFails) {
  auto endpoint = server_->connect_local();
  auto owner = make_owner("job-2");
  ASSERT_TRUE(owner->put("pid", "1").is_ok());
  server_->stop();

  EXPECT_FALSE(endpoint->is_open());
  net::Message ping(net::MsgType::kPing);
  EXPECT_EQ(endpoint->send(ping).code(), ErrorCode::kConnectionError);
  EXPECT_EQ(owner->put("pid", "2").code(), ErrorCode::kConnectionError);
  // stop() applied the implicit exit.
  EXPECT_FALSE(server_->store().context_exists("job-2"));
}

}  // namespace
}  // namespace tdp::attr
