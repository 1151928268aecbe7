// Tests for the Section 2.4 proxy: firewall policy, tunnel splicing, the
// direct-or-proxied fallback TDP hands to tools, and attribute-space
// clients sharing a context through tunnels.
#include "net/proxy.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

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

// ---------------------------------------------------------------------------
// The proxy's one I/O thread: a Reactor over the listener, every connection
// that owes its hello and both legs of every tunnel.

/// Threads in this process right now.
int thread_count() {
  int threads = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

long long ms_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Sends a ping into the tunnel from `client`, answers it on the service's
/// `leg`, and expects the pong back on `client`.
void round_trip(Endpoint& client, Endpoint& leg, const std::string& payload) {
  Message ping(MsgType::kPing);
  ping.set("payload", payload);
  ASSERT_TRUE(client.send(ping).is_ok());
  auto relayed = leg.receive(3000);
  ASSERT_TRUE(relayed.is_ok()) << relayed.status().to_string();
  Message pong(MsgType::kPong);
  pong.set("echo", relayed->get("payload"));
  ASSERT_TRUE(leg.send(pong).is_ok());
  auto back = client.receive(3000);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->get("echo"), payload);
}

/// Opens 16 tunnels to a service whose legs this thread accepts itself, so
/// every thread the count gains is the proxy's.
void expect_one_proxy_thread(const std::shared_ptr<Transport>& transport,
                             const std::string& service_address,
                             const std::string& proxy_address) {
  auto service = transport->listen(service_address).value();
  ProxyServer proxy(transport);
  proxy.register_service("svc", service->address());
  const int before = thread_count();
  auto started = proxy.start(proxy_address);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  std::vector<std::unique_ptr<Endpoint>> clients;
  std::vector<std::unique_ptr<Endpoint>> legs;
  for (int i = 0; i < 16; ++i) {
    auto client = proxy_connect(*transport, started.value(), "svc");
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    auto leg = service->accept(3000);
    ASSERT_TRUE(leg.is_ok()) << leg.status().to_string();
    clients.push_back(std::move(client).value());
    legs.push_back(std::move(leg).value());
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    round_trip(*clients[i], *legs[i], "tunnel " + std::to_string(i));
  }
  EXPECT_EQ(thread_count() - before, 1) << "over " << started.value();
  EXPECT_EQ(proxy.tunnels_opened(), 16u);
  proxy.stop();
}

TEST(ProxyReactor, OneThreadForAnyNumberOfTunnels) {
  expect_one_proxy_thread(InProcTransport::create(), "inproc://threads-svc",
                          "inproc://threads-proxy");
  expect_one_proxy_thread(std::make_shared<TcpTransport>(), "127.0.0.1:0",
                          "127.0.0.1:0");
}

TEST(ProxyReactor, StopIsPromptOverTcp) {
  auto transport = std::make_shared<TcpTransport>();
  auto service = transport->listen("127.0.0.1:0").value();
  ProxyServer proxy(transport);
  proxy.register_service("svc", service->address());
  auto started = proxy.start("127.0.0.1:0");
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto client = proxy_connect(*transport, started.value(), "svc");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto leg = service->accept(3000);
  ASSERT_TRUE(leg.is_ok()) << leg.status().to_string();

  const auto begin = std::chrono::steady_clock::now();
  proxy.stop();
  EXPECT_LT(ms_since(begin), 100);
  // stop() severed the tunnel, so the client sees its end close.
  EXPECT_EQ(client.value()->receive(3000).status().code(),
            ErrorCode::kConnectionError);
}

TEST(ProxyReactor, FramesBehindTheHelloAreRelayed) {
  auto transport = std::make_shared<TcpTransport>();
  auto service = transport->listen("127.0.0.1:0").value();
  ProxyServer proxy(transport);
  proxy.register_service("svc", service->address());
  auto started = proxy.start("127.0.0.1:0");
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto client = transport->connect(started.value());
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  // The hello and the first request leave in one write, so the proxy's
  // read of the hello takes the request along with it.
  Message hello(MsgType::kProxyConnect);
  hello.set("service", "svc");
  Message ping(MsgType::kPing);
  ping.set("payload", "behind the hello");
  std::vector<std::uint8_t> both = hello.encode();
  const std::vector<std::uint8_t> second = ping.encode();
  both.insert(both.end(), second.begin(), second.end());
  ASSERT_TRUE(client.value()->send_frame(both.data(), both.size()).is_ok());

  auto reply = client.value()->receive(3000);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply->type(), MsgType::kProxyConnectReply);
  EXPECT_EQ(reply->get("status"), "ok");
  auto leg = service->accept(3000);
  ASSERT_TRUE(leg.is_ok()) << leg.status().to_string();
  auto relayed = leg.value()->receive(3000);
  ASSERT_TRUE(relayed.is_ok()) << relayed.status().to_string();
  Message pong(MsgType::kPong);
  pong.set("echo", relayed->get("payload"));
  ASSERT_TRUE(leg.value()->send(pong).is_ok());
  auto back = client.value()->receive(3000);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->type(), MsgType::kPong);
  EXPECT_EQ(back->get("echo"), "behind the hello");
  proxy.stop();
}

TEST(ProxyReactor, RelinkBackoffDoesNotStallOtherTunnels) {
  auto transport = InProcTransport::create();
  auto service = transport->listen("inproc://relink-svc").value();
  ProxyServer proxy(transport);
  proxy.register_service("svc", service->address());
  RelinkPolicy relink;
  relink.enabled = true;
  relink.max_relinks = 1;
  relink.backoff_ms = 1000;
  proxy.set_relink_policy(relink);
  auto started = proxy.start("inproc://relink-proxy");
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto a = proxy_connect(*transport, started.value(), "svc");
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  auto a_leg = service->accept(3000);
  ASSERT_TRUE(a_leg.is_ok()) << a_leg.status().to_string();
  auto b = proxy_connect(*transport, started.value(), "svc");
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  auto b_leg = service->accept(3000);
  ASSERT_TRUE(b_leg.is_ok()) << b_leg.status().to_string();

  // A's upstream dies; its redial is a second away.
  const auto lost_at = std::chrono::steady_clock::now();
  a_leg.value()->close();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto begin = std::chrono::steady_clock::now();
  round_trip(*b.value(), *b_leg.value(), "b while a waits");
  EXPECT_LT(ms_since(begin), 200);

  // After the backoff the proxy redials, and A relays on the fresh leg.
  auto a_relinked = service->accept(3000);
  ASSERT_TRUE(a_relinked.is_ok()) << a_relinked.status().to_string();
  EXPECT_GE(ms_since(lost_at), 900);
  round_trip(*a.value(), *a_relinked.value(), "a again");
  EXPECT_EQ(proxy.relinks(), 1u);
  proxy.stop();
}

TEST(ProxyReactor, SilentClientIsDroppedAtTheHelloDeadline) {
  auto transport = std::make_shared<TcpTransport>();
  auto service = transport->listen("127.0.0.1:0").value();
  ProxyServer proxy(transport);
  proxy.register_service("svc", service->address());
  auto started = proxy.start("127.0.0.1:0");
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  const auto connected_at = std::chrono::steady_clock::now();
  auto silent = transport->connect(started.value());
  ASSERT_TRUE(silent.is_ok()) << silent.status().to_string();

  // Meanwhile another client's tunnel relays normally.
  auto other = proxy_connect(*transport, started.value(), "svc");
  ASSERT_TRUE(other.is_ok()) << other.status().to_string();
  auto leg = service->accept(3000);
  ASSERT_TRUE(leg.is_ok()) << leg.status().to_string();
  round_trip(*other.value(), *leg.value(), "meanwhile");

  auto dropped = silent.value()->receive(8000);
  const long long waited = ms_since(connected_at);
  EXPECT_EQ(dropped.status().code(), ErrorCode::kConnectionError);
  EXPECT_GE(waited, 4000);
  EXPECT_LE(waited, 6000);
  proxy.stop();
}

}  // namespace
}  // namespace tdp::net
