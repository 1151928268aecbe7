// Transport conformance tests, run against BOTH the in-process and TCP
// implementations through one parameterized suite — the same daemon code
// must behave identically over either (that is the point of the
// abstraction).
#include <gtest/gtest.h>

#include <poll.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>

#include "net/inproc.hpp"
#include "net/tcp.hpp"

namespace tdp::net {
namespace {

enum class Kind { kInProc, kTcp };

// gtest has no printer for TransportCase, so ctest registers each case
// under a hex dump of all 16 bytes. Every byte is therefore defined:
// `id_bytes` fills what used to be uninitialised padding, set to the
// values the case IDs were first recorded with, and the name is stored
// inline instead of behind a pointer that moves with every run.
struct TransportCase {
  Kind kind;
  std::uint32_t id_bytes;
  char name[8];
};
static_assert(sizeof(TransportCase) == 16);
static_assert(std::has_unique_object_representations_v<TransportCase>);

class TransportConformance : public ::testing::TestWithParam<TransportCase> {
 protected:
  void SetUp() override {
    if (GetParam().kind == Kind::kInProc) {
      transport_ = InProcTransport::create();
      listen_address_ = "inproc://conformance";
    } else {
      transport_ = std::make_shared<TcpTransport>();
      listen_address_ = "127.0.0.1:0";
    }
  }

  std::shared_ptr<Transport> transport_;
  std::string listen_address_;
};

TEST_P(TransportConformance, ListenReportsConcreteAddress) {
  auto listener = transport_->listen(listen_address_);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  EXPECT_FALSE(listener.value()->address().empty());
  if (GetParam().kind == Kind::kTcp) {
    // Port 0 must be replaced by the kernel-assigned port.
    EXPECT_EQ(listener.value()->address().find(":0"), std::string::npos);
  }
}

TEST_P(TransportConformance, ConnectAcceptExchange) {
  auto listener = transport_->listen(listen_address_).value();
  auto client = transport_->connect(listener->address());
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto server = listener->accept(2000);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  Message ping(MsgType::kPing);
  ping.set_seq(7);
  ping.set("from", "client");
  ASSERT_TRUE(client.value()->send(ping).is_ok());
  auto got = server.value()->receive(2000);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), ping);

  Message pong(MsgType::kPong);
  pong.set_seq(7);
  ASSERT_TRUE(server.value()->send(pong).is_ok());
  auto back = client.value()->receive(2000);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->type(), MsgType::kPong);
}

TEST_P(TransportConformance, ManyMessagesInOrder) {
  auto listener = transport_->listen(listen_address_).value();
  auto client = transport_->connect(listener->address()).value();
  auto server = listener->accept(2000).value();

  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    Message msg(MsgType::kAttrPut);
    msg.set_seq(static_cast<std::uint64_t>(i));
    msg.set("i", std::to_string(i));
    ASSERT_TRUE(client->send(msg).is_ok());
  }
  for (int i = 0; i < kCount; ++i) {
    auto got = server->receive(2000);
    ASSERT_TRUE(got.is_ok()) << "at i=" << i;
    EXPECT_EQ(got->seq(), static_cast<std::uint64_t>(i));
    EXPECT_EQ(got->get_int("i"), i);
  }
}

TEST_P(TransportConformance, ReceiveTimesOutWithoutTraffic) {
  auto listener = transport_->listen(listen_address_).value();
  auto client = transport_->connect(listener->address()).value();
  auto server = listener->accept(2000).value();
  (void)client;
  auto got = server->receive(50);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kTimeout);
}

TEST_P(TransportConformance, ZeroTimeoutPolls) {
  auto listener = transport_->listen(listen_address_).value();
  auto client = transport_->connect(listener->address()).value();
  auto server = listener->accept(2000).value();

  auto empty = server->receive(0);
  EXPECT_FALSE(empty.is_ok());

  Message msg(MsgType::kPing);
  ASSERT_TRUE(client->send(msg).is_ok());
  // Give TCP a moment to land the bytes.
  for (int i = 0; i < 100; ++i) {
    auto got = server->receive(10);
    if (got.is_ok()) {
      EXPECT_EQ(got->type(), MsgType::kPing);
      return;
    }
  }
  FAIL() << "message never arrived";
}

TEST_P(TransportConformance, PeerCloseObservedAfterDrain) {
  auto listener = transport_->listen(listen_address_).value();
  auto client = transport_->connect(listener->address()).value();
  auto server = listener->accept(2000).value();

  Message msg(MsgType::kShutdown);
  ASSERT_TRUE(client->send(msg).is_ok());
  client->close();

  // The queued message must still be deliverable...
  auto got = server->receive(2000);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got->type(), MsgType::kShutdown);
  // ...and then the disconnect becomes visible.
  auto after = server->receive(2000);
  ASSERT_FALSE(after.is_ok());
  EXPECT_EQ(after.status().code(), ErrorCode::kConnectionError);
}

TEST_P(TransportConformance, SendAfterCloseFails) {
  auto listener = transport_->listen(listen_address_).value();
  auto client = transport_->connect(listener->address()).value();
  auto server = listener->accept(2000).value();
  (void)server;
  client->close();
  EXPECT_FALSE(client->is_open());
  EXPECT_FALSE(client->send(Message(MsgType::kPing)).is_ok());
}

TEST_P(TransportConformance, ReadableFdSignalsPendingMessage) {
  auto listener = transport_->listen(listen_address_).value();
  auto client = transport_->connect(listener->address()).value();
  auto server = listener->accept(2000).value();

  int fd = server->readable_fd();
  ASSERT_GE(fd, 0);

  struct pollfd pfd{fd, POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "fd readable before any message";

  ASSERT_TRUE(client->send(Message(MsgType::kPing)).is_ok());
  pfd.revents = 0;
  EXPECT_EQ(::poll(&pfd, 1, 2000), 1) << "fd did not become readable";

  auto got = server->receive(0);
  EXPECT_TRUE(got.is_ok());
}

TEST_P(TransportConformance, ConnectToNothingFails) {
  const std::string bogus = GetParam().kind == Kind::kInProc
                                ? std::string("inproc://nobody-home")
                                : std::string("127.0.0.1:1");  // reserved port
  auto client = transport_->connect(bogus);
  EXPECT_FALSE(client.is_ok());
}

TEST_P(TransportConformance, AcceptTimesOutWithoutClient) {
  auto listener = transport_->listen(listen_address_).value();
  auto accepted = listener->accept(50);
  ASSERT_FALSE(accepted.is_ok());
  EXPECT_EQ(accepted.status().code(), ErrorCode::kTimeout);
}

TEST_P(TransportConformance, LargeMessage) {
  auto listener = transport_->listen(listen_address_).value();
  auto client = transport_->connect(listener->address()).value();
  auto server = listener->accept(2000).value();

  Message msg(MsgType::kProxyData);
  msg.set("blob", std::string(1 << 20, 'z'));  // 1 MiB value
  ASSERT_TRUE(client->send(msg).is_ok());
  auto got = server->receive(5000);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got->get("blob").size(), static_cast<std::size_t>(1 << 20));
}

INSTANTIATE_TEST_SUITE_P(
    Transports, TransportConformance,
    ::testing::Values(TransportCase{Kind::kInProc, 0x5593, "inproc"},
                      TransportCase{Kind::kTcp, 0x7FFF, "tcp"}),
    [](const ::testing::TestParamInfo<TransportCase>& info) {
      return info.param.name;
    });

// --- inproc-specific behaviours ---

TEST(InProc, DuplicateListenerNameRejected) {
  auto transport = InProcTransport::create();
  auto first = transport->listen("inproc://dup");
  ASSERT_TRUE(first.is_ok());
  auto second = transport->listen("inproc://dup");
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kAlreadyExists);
}

TEST(InProc, ListenerNameFreedOnClose) {
  auto transport = InProcTransport::create();
  {
    auto listener = transport->listen("inproc://transient").value();
    EXPECT_EQ(transport->listener_count(), 1u);
  }
  EXPECT_EQ(transport->listener_count(), 0u);
  EXPECT_TRUE(transport->listen("inproc://transient").is_ok());
}

TEST(InProc, SeparateTransportsAreIsolated) {
  auto net_a = InProcTransport::create();
  auto net_b = InProcTransport::create();
  auto listener = net_a->listen("inproc://svc").value();
  EXPECT_FALSE(net_b->connect("inproc://svc").is_ok());
  EXPECT_TRUE(net_a->connect("inproc://svc").is_ok());
}

TEST(InProc, RejectsNonInprocAddress) {
  auto transport = InProcTransport::create();
  EXPECT_FALSE(transport->listen("127.0.0.1:0").is_ok());
  EXPECT_FALSE(transport->connect("host:1").is_ok());
}

}  // namespace
}  // namespace tdp::net
