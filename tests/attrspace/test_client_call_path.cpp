// The client's one call path: every call is an entry in one table keyed by
// seq, one receive loop completes them, and readable_fd() is the paper's
// tdp_fd ("asynchronous events simply cause activity on a descriptor").
// These cases pin what that buys a multi-threaded or poll-driven daemon:
//   * a notify that a blocking call reads on the way to its own reply
//     leaves the descriptor readable (over inproc, TCP and the owner
//     endpoint), and so do frames a TCP reply arrived with;
//   * a second thread's call is not held behind a first thread's get;
//   * the descriptor is one number for the client's life, reconnects too;
//   * a get hands the writer's trace context out instead of leaking it
//     into the caller's thread;
//   * a link the client has seen fail reads as not connected;
//   * an adopted session's lost init frame is re-sent;
//   * a client nobody polls owns no descriptor beyond its connection.
#include <gtest/gtest.h>

#include <poll.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attrspace/attr_client.hpp"
#include "attrspace/attr_protocol.hpp"
#include "attrspace/attr_server.hpp"
#include "core/tdp.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "util/clock.hpp"
#include "util/telemetry.hpp"

namespace tdp::attr {
namespace {

/// How the client under test reaches its server.
enum class Path { kInProc, kTcp, kOwner };

const char* path_name(Path path) {
  switch (path) {
    case Path::kInProc: return "inproc";
    case Path::kTcp: return "tcp";
    case Path::kOwner: return "owner";
  }
  return "?";
}

/// Readiness of `fd` after waiting at most `timeout_ms`: 1 readable, 0 not.
int poll_readable(int fd, int timeout_ms) {
  pollfd ready{fd, POLLIN, 0};
  return ::poll(&ready, 1, timeout_ms);
}

/// Descriptors this process has open.
std::size_t open_descriptors() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

/// Waits (bounded) until the store holds `count` watchers: parked gets
/// and subscriptions both register one.
bool wait_for_watchers(AttrServer& server, std::size_t count) {
  for (int i = 0; i < 2000; ++i) {
    if (server.store().watcher_count() >= count) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

class ClientCallPath : public ::testing::TestWithParam<Path> {
 protected:
  void SetUp() override {
    if (GetParam() == Path::kTcp) {
      transport_ = std::make_shared<net::TcpTransport>();
    } else {
      transport_ = net::InProcTransport::create();
    }
    server_ = std::make_unique<AttrServer>("LASS", transport_);
    auto started = server_->start(GetParam() == Path::kTcp ? "127.0.0.1:0"
                                                           : "inproc://call-path");
    ASSERT_TRUE(started.is_ok()) << started.status().to_string();
    address_ = started.value();
  }

  void TearDown() override { server_->stop(); }

  /// The client under test: dialed, or the server owner's endpoint.
  std::unique_ptr<AttrClient> make_subject() {
    auto client = GetParam() == Path::kOwner
                      ? AttrClient::adopt(server_->connect_local(), "ctx")
                      : AttrClient::connect(*transport_, address_, "ctx");
    EXPECT_TRUE(client.is_ok()) << client.status().to_string();
    return std::move(client).value();
  }

  std::unique_ptr<AttrClient> make_writer() {
    auto client = AttrClient::connect(*transport_, address_, "ctx");
    EXPECT_TRUE(client.is_ok()) << client.status().to_string();
    return std::move(client).value();
  }

  std::shared_ptr<net::Transport> transport_;
  std::unique_ptr<AttrServer> server_;
  std::string address_;
};

// The notify reaches the client before the get's reply on the same
// connection, so the blocking get reads it and queues its callback. The
// descriptor must say so: a poll loop that sleeps on it would otherwise
// sleep on work that is already there.
TEST_P(ClientCallPath, NotifyReadDuringABlockingGetKeepsTheDescriptorReadable) {
  auto subject = make_subject();
  auto writer = make_writer();
  int notifies = 0;
  ASSERT_TRUE(subject
                  ->subscribe("watch.*",
                              [&notifies](const std::string&, const std::string&) {
                                ++notifies;
                              })
                  .is_ok());
  const int fd = subject->readable_fd();
  ASSERT_GE(fd, 0);
  EXPECT_EQ(poll_readable(fd, 0), 0) << "readable with nothing to service";

  Result<std::string> got = make_error(ErrorCode::kInternal, "not run");
  std::thread getter([&] { got = subject->get("gate", 5000); });
  ASSERT_TRUE(wait_for_watchers(*server_, 2)) << "the get never parked";
  ASSERT_TRUE(writer->put("watch.a", "1").is_ok());
  ASSERT_TRUE(writer->put("gate", "open").is_ok());
  getter.join();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), "open");

  EXPECT_EQ(poll_readable(fd, 0), 1) << "a queued notify left the descriptor quiet";
  EXPECT_EQ(subject->service_events(), 1);
  EXPECT_EQ(notifies, 1);
  EXPECT_EQ(poll_readable(fd, 0), 0) << "still readable once serviced";
}

// One client, two threads: a put must not wait for another thread's get,
// which here only the put itself can release.
TEST_P(ClientCallPath, ACallIsNotHeldBehindAnotherThreadsGet) {
  auto subject = make_subject();
  Result<std::string> got = make_error(ErrorCode::kInternal, "not run");
  std::thread getter([&] { got = subject->get("k", 2000); });
  ASSERT_TRUE(wait_for_watchers(*server_, 1)) << "the get never parked";

  const Micros start = RealClock::instance().now_micros();
  ASSERT_TRUE(subject->put("k", "v").is_ok());
  const Micros put_us = RealClock::instance().now_micros() - start;
  getter.join();
  EXPECT_LT(put_us, 100'000) << "the put waited behind the get";
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), "v");
}

// A get hands the writer's context out; the caller's own ambient context,
// whatever it was, survives both get forms.
TEST_P(ClientCallPath, GetsLeaveTheCallersTraceContextAlone) {
  telemetry::Tracer& tracer = telemetry::Tracer::instance();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  auto subject = make_subject();
  auto writer = make_writer();
  telemetry::SpanContext written;
  {
    telemetry::Span span("writer.publish", "rm");
    written = span.context();
    ASSERT_TRUE(writer->put("pid", "7").is_ok());
  }
  ASSERT_TRUE(written.valid());

  const telemetry::SpanContext mine{0x1234, 0x5678};
  {
    telemetry::ScopedAmbient ambient(mine);
    ASSERT_TRUE(subject->try_get("pid").is_ok());
    EXPECT_EQ(telemetry::ambient_context().span_id, mine.span_id);
    telemetry::SpanContext handed;
    ASSERT_TRUE(subject->get("pid", 2000, &handed).is_ok());
    EXPECT_EQ(handed.span_id, written.span_id);
    EXPECT_EQ(telemetry::ambient_context().span_id, mine.span_id);
  }
  ASSERT_TRUE(subject->try_get("pid").is_ok());
  EXPECT_FALSE(telemetry::ambient_context().valid())
      << "try_get left the writer's context on the calling thread";
  tracer.clear();
  tracer.set_enabled(was_enabled);
}

INSTANTIATE_TEST_SUITE_P(Paths, ClientCallPath,
                         ::testing::Values(Path::kInProc, Path::kTcp, Path::kOwner),
                         [](const auto& info) { return path_name(info.param); });

// The tdp_fd is created on demand and belongs to the client, not to the
// connection under it: a redial must not change or close it, and the next
// notify must still make it readable.
TEST(ClientCallPathReconnect, TheDescriptorOutlivesAReconnect) {
  auto transport = std::make_shared<net::TcpTransport>();
  auto server = std::make_unique<AttrServer>("LASS", transport);
  auto address = server->start("127.0.0.1:0");
  ASSERT_TRUE(address.is_ok()) << address.status().to_string();

  RetryPolicy retry;
  retry.enabled = true;
  retry.attempt_timeout_ms = 200;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 10;
  auto subject = AttrClient::connect(*transport, address.value(), "ctx", retry);
  ASSERT_TRUE(subject.is_ok()) << subject.status().to_string();
  int notifies = 0;
  ASSERT_TRUE(subject.value()
                  ->subscribe("w*", [&notifies](const std::string&,
                                                const std::string&) { ++notifies; })
                  .is_ok());
  const int fd = subject.value()->readable_fd();
  ASSERT_GE(fd, 0);

  // Restart the server on the same port; the next call redials.
  server->stop();
  server = std::make_unique<AttrServer>("LASS", transport);
  ASSERT_TRUE(server->start(address.value()).is_ok());
  ASSERT_TRUE(subject.value()->put("k", "v").is_ok());
  EXPECT_GE(subject.value()->reconnects(), 1);
  EXPECT_EQ(subject.value()->readable_fd(), fd);
  subject.value()->service_events();  // whatever the reconnect left queued

  auto writer = AttrClient::connect(*transport, address.value(), "ctx");
  ASSERT_TRUE(writer.is_ok()) << writer.status().to_string();
  ASSERT_TRUE(writer.value()->put("w1", "x").is_ok());
  ASSERT_EQ(poll_readable(fd, 2000), 1) << "the notify never reached the descriptor";
  for (int i = 0; i < 100 && notifies == 0; ++i) {
    subject.value()->service_events();
    if (notifies == 0) poll_readable(fd, 20);
  }
  EXPECT_EQ(notifies, 1);
  writer.value()->exit();
  subject.value()->exit();
  server->stop();
}

// A TCP peer may write a reply and the frames after it in one segment; the
// receive that returns the reply leaves the rest in the endpoint's buffer,
// where no poll of the socket sees them. The fake LASS here does exactly
// that: the get's reply and a notify in one write.
TEST(ClientCallPathTcp, FramesThatArriveWithAReplyKeepTheDescriptorReadable) {
  net::TcpTransport transport;
  auto listener = transport.listen("127.0.0.1:0");
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();

  std::atomic<bool> peer_ok{false};
  std::thread peer([&] {
    auto accepted = listener.value()->accept(5000);
    if (!accepted.is_ok()) return;
    net::Endpoint& link = *accepted.value();
    auto answer = [&link](const net::Message& request, net::MsgType type) {
      net::Message reply(type);
      reply.set_seq(request.seq());
      reply.set(field::kStatus, "ok");
      return link.send(reply).is_ok();
    };
    auto init = link.receive(5000);
    if (!init.is_ok() || !answer(init.value(), net::MsgType::kAttrInitReply)) return;
    auto subscribe = link.receive(5000);
    if (!subscribe.is_ok() || !answer(subscribe.value(), net::MsgType::kAttrPutReply)) {
      return;
    }
    auto get = link.receive(5000);
    if (!get.is_ok()) return;
    net::Message reply(net::MsgType::kAttrGetReply);
    reply.set_seq(get->seq());
    reply.set(field::kStatus, "ok").set(field::kValue, "v");
    net::Message notify(net::MsgType::kAttrNotify);
    notify.set_seq(subscribe->seq());
    notify.set(field::kAttribute, "w.1").set(field::kValue, "x");
    std::vector<std::uint8_t> burst = reply.encode();
    const std::vector<std::uint8_t> second = notify.encode();
    burst.insert(burst.end(), second.begin(), second.end());
    if (!link.send_frame(burst.data(), burst.size()).is_ok()) return;
    peer_ok.store(true);
    while (link.receive(5000).is_ok()) {
    }  // until the client leaves
  });

  auto client = AttrClient::connect(transport, listener.value()->address(), "ctx");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  int notifies = 0;
  ASSERT_TRUE(client.value()
                  ->subscribe("w*", [&notifies](const std::string&,
                                                const std::string&) { ++notifies; })
                  .is_ok());
  const int fd = client.value()->readable_fd();
  auto got = client.value()->get("k", 2000);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), "v");
  EXPECT_EQ(poll_readable(fd, 0), 1) << "the notify sat unseen behind the reply";
  EXPECT_EQ(client.value()->service_events(), 1);
  EXPECT_EQ(notifies, 1);
  client.value()->abandon();
  peer.join();
  EXPECT_TRUE(peer_ok.load());
}

// A poll loop learns that its server is gone from connected(): over TCP
// the endpoint still reads as open after the peer closed, but the client
// has seen its link fail.
TEST(ClientCallPathTcp, ALinkSeenDeadIsNotConnected) {
  auto transport = std::make_shared<net::TcpTransport>();
  AttrServer server("CASS", transport);
  auto address = server.start("127.0.0.1:0");
  ASSERT_TRUE(address.is_ok()) << address.status().to_string();
  auto client = AttrClient::connect(*transport, address.value(), "ctx");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  const int fd = client.value()->readable_fd();
  EXPECT_TRUE(client.value()->connected());
  server.stop();
  ASSERT_EQ(poll_readable(fd, 2000), 1) << "the dead link never woke the poller";
  EXPECT_EQ(client.value()->service_events(), 0);
  EXPECT_FALSE(client.value()->connected());
}

/// Drops the first frame sent through it, as a lossy link would.
class DropFirstSend final : public net::Endpoint {
 public:
  explicit DropFirstSend(std::unique_ptr<net::Endpoint> inner) : inner_(std::move(inner)) {}

  using net::Endpoint::send;
  Status send(const net::Message& msg) override {
    if (!dropped_.exchange(true)) return Status::ok();
    return inner_->send(msg);
  }
  Result<net::Message> receive(int timeout_ms) override {
    return inner_->receive(timeout_ms);
  }
  [[nodiscard]] int readable_fd() const override { return inner_->readable_fd(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  void close() override { inner_->close(); }
  [[nodiscard]] std::string peer_address() const override {
    return inner_->peer_address();
  }

 private:
  std::unique_ptr<net::Endpoint> inner_;
  std::atomic<bool> dropped_{false};
};

// An adopted session's retry policy covers its init: the lost tdp_init
// frame is re-sent after one attempt timeout, as for a dialed client.
TEST(ClientCallPathAdopt, AnAdoptedSessionResendsALostInit) {
  auto transport = net::InProcTransport::create();
  AttrServer server("LASS", transport);
  auto address = server.start("inproc://adopt-retry");
  ASSERT_TRUE(address.is_ok()) << address.status().to_string();
  auto endpoint = transport->connect(address.value());
  ASSERT_TRUE(endpoint.is_ok()) << endpoint.status().to_string();

  InitOptions options;
  options.role = Role::kTool;
  options.context = "ctx";
  options.transport = transport;
  options.retry.enabled = true;
  options.retry.attempt_timeout_ms = 100;
  const Micros start = RealClock::instance().now_micros();
  auto session = TdpSession::adopt(
      std::move(options), std::make_unique<DropFirstSend>(std::move(endpoint).value()));
  const Micros join_us = RealClock::instance().now_micros() - start;
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  EXPECT_LT(join_us, 2'000'000) << "the lost init was not re-sent";
  EXPECT_TRUE(session.value()->put("k", "v").is_ok());
  session.value()->exit();
  server.stop();
}

// The descriptor behind readable_fd() is made on demand: blocking calls,
// subscriptions and service_events() open nothing, so a daemon that never
// polls (an RPC client, a publisher) pays no descriptor for it.
TEST(ClientCallPathDescriptors, AClientNobodyPollsOwnsNoExtraDescriptor) {
  auto transport = net::InProcTransport::create();
  AttrServer server("LASS", transport);
  ASSERT_TRUE(server.start("inproc://no-extra-fd").is_ok());

  const std::size_t before = open_descriptors();
  {
    auto client = AttrClient::adopt(server.connect_local(), "ctx");
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    ASSERT_TRUE(client.value()
                    ->subscribe("w*", [](const std::string&, const std::string&) {})
                    .is_ok());
    ASSERT_TRUE(client.value()->put("w1", "x").is_ok());
    ASSERT_TRUE(client.value()->try_get("w1").is_ok());
    client.value()->service_events();
    EXPECT_EQ(open_descriptors(), before);
  }
  EXPECT_EQ(open_descriptors(), before);
  server.stop();
}

}  // namespace
}  // namespace tdp::attr
