// Tests for the Section 2.4 proxy: firewall policy, tunnel splicing, the
// direct-or-proxied fallback TDP hands to tools, and attribute-space
// clients sharing a context through tunnels.
#include "net/proxy.hpp"

#include <gtest/gtest.h>

#include "attrspace/attr_client.hpp"
#include "attrspace/attr_server.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"

namespace tdp::net {
namespace {

/// A trivial echo service used as the "tool front-end" behind the firewall
/// boundary: replies to each message with the same payload, type kPong.
class EchoService {
 public:
  explicit EchoService(std::shared_ptr<Transport> transport) {
    listener_ = transport->listen("inproc://echo").value();
    thread_ = std::thread([this] {
      auto accepted = listener_->accept(5000);
      if (!accepted.is_ok()) return;
      auto endpoint = std::move(accepted).value();
      while (true) {
        auto msg = endpoint->receive(2000);
        if (!msg.is_ok()) break;
        Message reply(MsgType::kPong);
        reply.set_seq(msg->seq());
        reply.set("echo", msg->get("payload"));
        if (!endpoint->send(reply).is_ok()) break;
      }
    });
  }
  ~EchoService() {
    listener_->close();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] std::string address() const { return listener_->address(); }

 private:
  std::unique_ptr<Listener> listener_;
  std::thread thread_;
};

TEST(Firewall, BlocksConfiguredAddresses) {
  auto inner = InProcTransport::create();
  auto listener = inner->listen("inproc://private").value();
  FirewalledTransport walled(inner, [](const std::string& address) {
    return address != "inproc://private";
  });
  auto blocked = walled.connect("inproc://private");
  ASSERT_FALSE(blocked.is_ok());
  EXPECT_EQ(blocked.status().code(), ErrorCode::kPermissionDenied);
}

TEST(Firewall, ListenIsUnrestricted) {
  auto inner = InProcTransport::create();
  FirewalledTransport walled(inner, [](const std::string&) { return false; });
  EXPECT_TRUE(walled.listen("inproc://local").is_ok());
}

TEST(Proxy, TunnelRelaysBothDirections) {
  auto transport = InProcTransport::create();
  EchoService echo(transport);

  ProxyServer proxy(transport);
  proxy.register_service("frontend", echo.address());
  auto started = proxy.start("inproc://proxy");
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();

  auto tunnel = proxy_connect(*transport, started.value(), "frontend");
  ASSERT_TRUE(tunnel.is_ok()) << tunnel.status().to_string();

  Message msg(MsgType::kPing);
  msg.set_seq(11);
  msg.set("payload", "through the wall");
  ASSERT_TRUE(tunnel.value()->send(msg).is_ok());
  auto reply = tunnel.value()->receive(3000);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply->type(), MsgType::kPong);
  EXPECT_EQ(reply->seq(), 11u);
  EXPECT_EQ(reply->get("echo"), "through the wall");
  EXPECT_EQ(proxy.tunnels_opened(), 1u);
  proxy.stop();
}

TEST(Proxy, UnknownServiceRefused) {
  auto transport = InProcTransport::create();
  ProxyServer proxy(transport);
  auto started = proxy.start("inproc://proxy2");
  ASSERT_TRUE(started.is_ok());
  auto tunnel = proxy_connect(*transport, started.value(), "nonexistent");
  ASSERT_FALSE(tunnel.is_ok());
  EXPECT_EQ(tunnel.status().code(), ErrorCode::kNotFound);
  proxy.stop();
}

TEST(Proxy, UnreachableTargetReportedToClient) {
  auto transport = InProcTransport::create();
  ProxyServer proxy(transport);
  proxy.register_service("ghost", "inproc://not-listening");
  auto started = proxy.start("inproc://proxy3");
  ASSERT_TRUE(started.is_ok());
  auto tunnel = proxy_connect(*transport, started.value(), "ghost");
  EXPECT_FALSE(tunnel.is_ok());
  proxy.stop();
}

TEST(Proxy, DirectOrProxiedPrefersDirectWhenAllowed) {
  auto transport = InProcTransport::create();
  EchoService echo(transport);
  ProxyServer proxy(transport);
  proxy.register_service("frontend", echo.address());
  auto proxy_addr = proxy.start("inproc://proxy4").value();

  // No firewall: direct connection, proxy never used.
  auto endpoint = connect_direct_or_proxied(*transport, echo.address(), proxy_addr,
                                            "frontend");
  ASSERT_TRUE(endpoint.is_ok());
  EXPECT_EQ(proxy.tunnels_opened(), 0u);
  proxy.stop();
}

TEST(Proxy, DirectOrProxiedFallsBackThroughFirewall) {
  auto open_net = InProcTransport::create();
  EchoService echo(open_net);
  ProxyServer proxy(open_net);  // the RM's proxy sees the open network
  proxy.register_service("frontend", echo.address());
  auto proxy_addr = proxy.start("inproc://rm-proxy").value();

  // The execution host's view: only the RM proxy is reachable directly.
  auto walled = std::make_shared<FirewalledTransport>(
      open_net, [proxy_addr](const std::string& address) {
        return address == proxy_addr;
      });

  auto endpoint =
      connect_direct_or_proxied(*walled, echo.address(), proxy_addr, "frontend");
  ASSERT_TRUE(endpoint.is_ok()) << endpoint.status().to_string();
  EXPECT_EQ(proxy.tunnels_opened(), 1u);

  Message msg(MsgType::kPing);
  msg.set("payload", "hi");
  ASSERT_TRUE(endpoint.value()->send(msg).is_ok());
  auto reply = endpoint.value()->receive(3000);
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply->get("echo"), "hi");
  proxy.stop();
}

TEST(Proxy, WorksOverTcpToo) {
  auto transport = std::make_shared<TcpTransport>();
  // Echo service over TCP.
  auto listener = transport->listen("127.0.0.1:0").value();
  std::thread echo_thread([&listener] {
    auto accepted = listener->accept(5000);
    if (!accepted.is_ok()) return;
    auto endpoint = std::move(accepted).value();
    auto msg = endpoint->receive(3000);
    if (msg.is_ok()) {
      Message reply(MsgType::kPong);
      reply.set("echo", msg->get("payload"));
      endpoint->send(reply);
    }
  });

  ProxyServer proxy(transport);
  proxy.register_service("svc", listener->address());
  auto proxy_addr = proxy.start("127.0.0.1:0").value();

  auto tunnel = proxy_connect(*transport, proxy_addr, "svc");
  ASSERT_TRUE(tunnel.is_ok()) << tunnel.status().to_string();
  Message msg(MsgType::kPing);
  msg.set("payload", "tcp");
  ASSERT_TRUE(tunnel.value()->send(msg).is_ok());
  auto reply = tunnel.value()->receive(3000);
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply->get("echo"), "tcp");

  echo_thread.join();
  proxy.stop();
}

TEST(Proxy, TunneledAttrClientsShareAContext) {
  // Full stack: attribute server upstream, proxy in the middle, two
  // clients that reach the same context only through their own tunnels.
  auto transport = std::make_shared<TcpTransport>();
  attr::AttrServer server("CASS", transport);
  auto server_addr = server.start(":0");
  ASSERT_TRUE(server_addr.is_ok());

  ProxyServer proxy(transport);
  proxy.register_service("cass", server_addr.value());
  auto proxy_addr = proxy.start(":0");
  ASSERT_TRUE(proxy_addr.is_ok());

  auto writer_ep = proxy_connect(*transport, proxy_addr.value(), "cass");
  ASSERT_TRUE(writer_ep.is_ok());
  auto writer = attr::AttrClient::adopt(std::move(writer_ep).value(), "job-1");
  ASSERT_TRUE(writer.is_ok());
  auto reader_ep = proxy_connect(*transport, proxy_addr.value(), "cass");
  ASSERT_TRUE(reader_ep.is_ok());
  auto reader = attr::AttrClient::adopt(std::move(reader_ep).value(), "job-1");
  ASSERT_TRUE(reader.is_ok());

  ASSERT_TRUE(writer.value()->put("pid", "4242").is_ok());
  auto got = reader.value()->get("pid", 5000);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), "4242");
  EXPECT_EQ(proxy.tunnels_opened(), 2u);

  reader.value().reset();
  writer.value().reset();
  proxy.stop();
  server.stop();
}

}  // namespace
}  // namespace tdp::net
