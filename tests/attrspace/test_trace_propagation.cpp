// Trace-context propagation over the attribute-space wire: a writer's span
// rides the request into the server, is retained with the stored value, and
// comes back to the reader so the reader's next span joins the writer's
// causal tree. The same contract must hold over the in-process transport,
// real localhost TCP, and a fault-injected transport with a fixed chaos
// seed (retries and replays must not detach the trace).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "attrspace/attr_client.hpp"
#include "attrspace/attr_server.hpp"
#include "net/faulty.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "util/telemetry.hpp"

namespace tdp {
namespace {

enum class Wire { kInProc, kTcp, kFaulty };

const char* wire_name(Wire wire) {
  switch (wire) {
    case Wire::kInProc: return "inproc";
    case Wire::kTcp: return "tcp";
    case Wire::kFaulty: return "faulty";
  }
  return "?";
}

std::shared_ptr<net::Transport> make_transport(Wire wire) {
  switch (wire) {
    case Wire::kInProc:
      return net::InProcTransport::create();
    case Wire::kTcp:
      return std::make_shared<net::TcpTransport>();
    case Wire::kFaulty:
      // Fixed seed: the schedule (drops, delays, one forced disconnect) is
      // reproducible forever; the retry machinery must carry the trace
      // header across every replay.
      return std::make_shared<net::FaultyTransport>(
          net::InProcTransport::create(), net::FaultPlan::chaos(20030211));
  }
  return nullptr;
}

attr::RetryPolicy retry_for(Wire wire) {
  attr::RetryPolicy retry;
  if (wire == Wire::kFaulty) {
    retry.enabled = true;
    retry.max_reconnects = 8;
    retry.attempt_timeout_ms = 200;
    retry.base_backoff_ms = 2;
    retry.max_backoff_ms = 40;
  }
  return retry;
}

class TracePropagation : public ::testing::TestWithParam<Wire> {
 protected:
  void SetUp() override {
    telemetry::Tracer::instance().set_enabled(true);
    telemetry::Tracer::instance().clear();
    telemetry::set_ambient_context(telemetry::SpanContext{});

    transport_ = make_transport(GetParam());
    server_ = std::make_unique<attr::AttrServer>("LASS", transport_);
    auto started = server_->start(GetParam() == Wire::kTcp
                                      ? "127.0.0.1:0"
                                      : "inproc://trace-lass");
    ASSERT_TRUE(started.is_ok()) << started.status().to_string();
    address_ = started.value();

    // Anchor: keeps the context alive across the chaos schedule's forced
    // disconnect (the implicit exit of a dying client must not wipe the
    // attributes the test is propagating traces through).
    anchor_ = make_client();
  }

  void TearDown() override {
    anchor_.reset();
    server_->stop();
    telemetry::set_ambient_context(telemetry::SpanContext{});
    telemetry::Tracer::instance().clear();
  }

  std::unique_ptr<attr::AttrClient> make_client() {
    auto client = attr::AttrClient::connect(*transport_, address_, "trace-ctx",
                                            retry_for(GetParam()));
    EXPECT_TRUE(client.is_ok()) << client.status().to_string();
    return std::move(client).value();
  }

  std::shared_ptr<net::Transport> transport_;
  std::unique_ptr<attr::AttrServer> server_;
  std::string address_;
  std::unique_ptr<attr::AttrClient> anchor_;
};

TEST_P(TracePropagation, WriterSpanReachesReaderThroughTheStore) {
  SCOPED_TRACE(wire_name(GetParam()));
  auto writer = make_client();
  auto reader = make_client();

  // Writer: put under a live span, as the starter does when it publishes
  // the application pid (Figure 6 step 2).
  telemetry::SpanContext writer_ctx;
  {
    telemetry::Span span("writer.publish", "rm");
    writer_ctx = span.context();
    ASSERT_TRUE(writer_ctx.valid());
    ASSERT_TRUE(writer->put("pid", "31337").is_ok());
  }

  // Reader thread state starts traceless; the get reply names the writer
  // and leaves the thread's own context alone.
  ASSERT_FALSE(telemetry::ambient_context().valid());
  telemetry::SpanContext adopted;
  auto value = reader->get("pid", 20'000, &adopted);
  ASSERT_TRUE(value.is_ok()) << value.status().to_string();
  EXPECT_EQ(value.value(), "31337");

  ASSERT_TRUE(adopted.valid()) << "reply did not carry the writer's trace";
  EXPECT_EQ(adopted.trace_id, writer_ctx.trace_id);
  EXPECT_EQ(adopted.span_id, writer_ctx.span_id);
  EXPECT_FALSE(telemetry::ambient_context().valid())
      << "the get leaked the writer's context into the caller's thread";

  // The reader's follow-up work (paradynd: attach) joins the writer's tree.
  {
    telemetry::ScopedAmbient handoff(adopted);
    telemetry::Span attach("reader.attach", "rt");
    EXPECT_EQ(attach.context().trace_id, writer_ctx.trace_id);
  }

  const auto spans = telemetry::Tracer::instance().finished();
  bool saw_reader = false;
  bool saw_dispatch = false;
  for (const auto& span : spans) {
    EXPECT_EQ(span.trace_id, writer_ctx.trace_id)
        << span.name << " detached from the writer's trace";
    if (span.name == "reader.attach") {
      saw_reader = true;
      EXPECT_EQ(span.parent_id, writer_ctx.span_id);
    }
    if (span.role == "LASS") saw_dispatch = true;  // server-side span
  }
  EXPECT_TRUE(saw_reader);
  EXPECT_TRUE(saw_dispatch) << "traced request produced no server span";
}

TEST_P(TracePropagation, BlockingGetAdoptsTheEventualWriter) {
  SCOPED_TRACE(wire_name(GetParam()));
  auto writer = make_client();
  auto reader = make_client();

  // Reader parks first (paradynd blocking in get("pid")); the reply is
  // produced by the put path and must still carry the writer's header,
  // handed to the caller without touching its thread's ambient context.
  telemetry::SpanContext adopted;
  telemetry::SpanContext ambient_after;
  std::atomic<bool> got{false};
  std::thread tool([&] {
    auto result = reader->get("handshake", 20'000, &adopted);
    if (result.is_ok()) {
      ambient_after = telemetry::ambient_context();  // thread-local to this thread
      got.store(true);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  telemetry::SpanContext writer_ctx;
  {
    telemetry::Span span("writer.late", "rm");
    writer_ctx = span.context();
    ASSERT_TRUE(writer->put("handshake", "ready").is_ok());
  }
  tool.join();
  ASSERT_TRUE(got.load());
  EXPECT_EQ(adopted.trace_id, writer_ctx.trace_id);
  EXPECT_EQ(adopted.span_id, writer_ctx.span_id);
  EXPECT_FALSE(ambient_after.valid());
}

TEST_P(TracePropagation, UntracedTrafficStaysSpanFree) {
  SCOPED_TRACE(wire_name(GetParam()));
  auto client = make_client();
  ASSERT_TRUE(client->put("plain", "1").is_ok());
  ASSERT_TRUE(client->try_get("plain").is_ok());
  EXPECT_FALSE(telemetry::ambient_context().valid());
  // No span was live on either side, so nothing may be recorded: the
  // untraced hot path must not manufacture trees.
  EXPECT_TRUE(telemetry::Tracer::instance().finished().empty());
}

INSTANTIATE_TEST_SUITE_P(Wires, TracePropagation,
                         ::testing::Values(Wire::kInProc, Wire::kTcp,
                                           Wire::kFaulty),
                         [](const auto& info) {
                           return wire_name(info.param);
                         });

}  // namespace
}  // namespace tdp
