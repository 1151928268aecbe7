// probes.cpp - per-layer probes of the traced run. Each times calls into
// one layer's public functions from outside, on inputs shaped like the
// workloads' own traffic:
//   net        Message::encode_into / MessageView::parse; Endpoint
//              send_frame -> echo -> receive_frame over TCP and through a
//              ProxyServer (raw frames, so the RTT holds no codec work), and
//              send -> echo -> receive over InProcTransport;
//   attrspace  AttributeStore::get / put, and put with one subscriber;
//   core       TdpSession::init, a parked get woken by the RM's put,
//              attach + continue_process, and the whole Figure-6 sequence,
//              on an inproc LASS whose RM thread blocks in poll() on
//              event_fd().
#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <thread>

#include "attrspace/attr_protocol.hpp"
#include "attrspace/attr_server.hpp"
#include "attrspace/attr_store.hpp"
#include "core/tdp.hpp"
#include "net/inproc.hpp"
#include "net/proxy.hpp"
#include "net/tcp.hpp"
#include "proc/sim_backend.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<std::string> make_keys(std::mt19937_64& rng, const std::string& prefix,
                                   int n) {
  std::vector<std::string> keys;
  while (static_cast<int>(keys.size()) < n) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ".%08llx",
                  static_cast<unsigned long long>(rng() & 0xffffffffu));
    std::string key = prefix + buf;
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
  }
  return keys;
}

std::string make_value(std::uint64_t writer, std::uint64_t counter) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%04llx%012llx",
                static_cast<unsigned long long>(writer & 0xffff),
                static_cast<unsigned long long>(counter & 0xffffffffffffull));
  return std::string(buf, 16);
}

namespace {

using tdp::net::Message;
using tdp::net::MsgType;
namespace field = tdp::attr::field;

// Live attrspace connections speak wire v2 once tdp_init has negotiated it.
constexpr auto kWire = tdp::net::WireVersion::kV2;
constexpr int kBatch = 16;

/// The attrspace calls whose frames the codec probe encodes and parses.
enum class OpKind : std::uint8_t { kTryGet, kPut, kPutBatch };

struct OpFrames {
  Message request;
  Message reply;
};

/// The request and reply frames of one AttrClient call, as the client and
/// the server build them.
OpFrames frames_of(OpKind kind, const std::vector<std::string>& keys,
                   std::mt19937_64& rng, std::uint64_t seq) {
  OpFrames frames;
  const std::string& key = keys[rng() % keys.size()];
  const std::string value = make_value(1, seq);
  switch (kind) {
    case OpKind::kTryGet:
      frames.request = Message(MsgType::kAttrGet);
      frames.request.set(field::kContext, "ctx.bench").set(field::kAttribute, key)
          .set(field::kBlock, "0");
      frames.reply = Message(MsgType::kAttrGetReply);
      frames.reply.set(field::kAttribute, key).set(field::kStatus, "ok")
          .set(field::kValue, value);
      break;
    case OpKind::kPut:
      frames.request = Message(MsgType::kAttrPut);
      frames.request.set(field::kContext, "ctx.bench").set(field::kAttribute, key)
          .set(field::kValue, value);
      frames.reply = Message(MsgType::kAttrPutReply);
      frames.reply.set(field::kStatus, "ok");
      break;
    case OpKind::kPutBatch:
      frames.request = Message(MsgType::kAttrPutBatch);
      frames.request.set(field::kContext, "ctx.bench").set_int(field::kCount, kBatch)
          .set(field::kBatchId, "12345-" + std::to_string(seq));
      for (int i = 0; i < kBatch; ++i) {
        frames.request.add(field::kKeyPrefix + std::to_string(i), keys[(seq + i) % keys.size()]);
        frames.request.add(field::kValPrefix + std::to_string(i), make_value(2, seq + i));
      }
      frames.reply = Message(MsgType::kAttrPutReply);
      frames.reply.set(field::kStatus, "ok").set_int(field::kCount, kBatch);
      break;
  }
  frames.request.set_seq(seq);
  frames.reply.set_seq(seq);
  return frames;
}

// --- net.codec ---

void probe_codec(std::mt19937_64& rng, double seconds, WorkloadResult& result) {
  const std::vector<std::string> keys = make_keys(rng, "app.attr", 64);
  // The attr_rpc op mix: 70% try_get, 25% put, 5% put_batch.
  std::vector<Message> mix;
  std::uint64_t seq = 1;
  for (int op = 0; op < 32; ++op) {
    const std::uint64_t draw = rng() % 100;
    const OpKind kind = draw < 70 ? OpKind::kTryGet : draw < 95 ? OpKind::kPut : OpKind::kPutBatch;
    OpFrames frames = frames_of(kind, keys, rng, seq++);
    mix.push_back(std::move(frames.request));
    mix.push_back(std::move(frames.reply));
  }
  const struct {
    OpKind kind;
    const char* encode;
    const char* parse;
  } per_op[] = {
      {OpKind::kTryGet, "net.codec.encode.try_get", "net.codec.parse.try_get"},
      {OpKind::kPut, "net.codec.encode.put", "net.codec.parse.put"},
      {OpKind::kPutBatch, "net.codec.encode.put_batch", "net.codec.parse.put_batch"},
  };
  auto encode = [](const Message& msg) {
    std::vector<std::uint8_t> bytes;
    msg.encode_into(bytes, kWire);
    return bytes;
  };
  std::vector<OpFrames> op_frames;
  std::vector<std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>> op_bytes;
  for (const auto& op : per_op) {
    op_frames.push_back(frames_of(op.kind, keys, rng, seq++));
    op_bytes.emplace_back(encode(op_frames.back().request), encode(op_frames.back().reply));
  }
  std::vector<std::vector<std::uint8_t>> mix_bytes;
  double total_bytes = 0;
  for (const Message& msg : mix) {
    mix_bytes.push_back(encode(msg));
    total_bytes += static_cast<double>(mix_bytes.back().size());
  }
  result.counts["net.codec.frame_bytes"] = total_bytes / static_cast<double>(mix.size());

  std::vector<std::uint8_t> buffer;
  tdp::net::MessageView view;
  std::size_t sink = 0;
  const Deadline deadline = Deadline::after(seconds);
  while (!deadline.passed()) {
    ++result.attempted;
    {
      ScopedSpan span("net.codec.encode", static_cast<std::uint32_t>(mix.size()));
      for (const Message& msg : mix) {
        msg.encode_into(buffer, kWire);
        sink += buffer.size();
      }
    }
    bool parsed = true;
    {
      ScopedSpan span("net.codec.parse", static_cast<std::uint32_t>(mix_bytes.size()));
      for (const auto& bytes : mix_bytes) {
        parsed &= view.parse(bytes.data(), bytes.size()).is_ok();
        sink += view.field_count();
      }
    }
    for (std::size_t i = 0; i < op_frames.size(); ++i) {
      {
        ScopedSpan span(per_op[i].encode, 2);
        op_frames[i].request.encode_into(buffer, kWire);
        sink += buffer.size();
        op_frames[i].reply.encode_into(buffer, kWire);
        sink += buffer.size();
      }
      const auto& [request, reply] = op_bytes[i];
      ScopedSpan span(per_op[i].parse, 2);
      parsed &= view.parse(request.data(), request.size()).is_ok();
      sink += view.field_count();
      parsed &= view.parse(reply.data(), reply.size()).is_ok();
      sink += view.field_count();
    }
    if (!parsed) {
      result.fail("a frame failed to parse");
      break;
    }
  }
  if (sink == 0) result.fail("codec probe did no work");
}

// --- net transports: echo round trips ---

/// Echoes raw frames back until the peer goes away.
void serve_frame_echo(tdp::net::Listener& listener) {
  auto endpoint = listener.accept(10'000);
  if (!endpoint.is_ok()) return;
  std::vector<std::uint8_t> frame;
  while (endpoint.value()->receive_frame(-1, &frame).is_ok()) {
    if (!endpoint.value()->send_frame(frame.data(), frame.size()).is_ok()) break;
  }
}

void frame_round_trips(tdp::net::Endpoint& client, const std::vector<std::uint8_t>& frame,
                       const char* span_name, double seconds, WorkloadResult& result) {
  std::vector<std::uint8_t> back;
  const Deadline deadline = Deadline::after(seconds);
  while (!deadline.passed()) {
    ++result.attempted;
    tdp::Status status;
    {
      ScopedSpan span(span_name);
      status = client.send_frame(frame.data(), frame.size());
      if (status.is_ok()) status = client.receive_frame(-1, &back);
    }
    if (!status.is_ok() || back != frame) {
      result.fail(std::string(span_name) + ": echo failed " + status.to_string());
      return;
    }
  }
}

std::vector<std::uint8_t> put_sized_frame(std::mt19937_64& rng) {
  const std::vector<std::string> keys = make_keys(rng, "app.attr", 1);
  std::vector<std::uint8_t> bytes;
  frames_of(OpKind::kPut, keys, rng, 1).request.encode_into(bytes, kWire);
  return bytes;
}

void probe_tcp(std::mt19937_64& rng, double seconds, WorkloadResult& result) {
  tdp::net::TcpTransport transport;
  auto listener = transport.listen("127.0.0.1:0");
  if (!listener.is_ok()) return result.fail("tcp listen: " + listener.status().to_string());
  std::thread echo(serve_frame_echo, std::ref(*listener.value()));
  auto client = transport.connect(listener.value()->address());
  if (client.is_ok()) {
    frame_round_trips(*client.value(), put_sized_frame(rng), "net.tcp.rtt", seconds, result);
    client.value()->close();
  } else {
    result.fail("tcp connect: " + client.status().to_string());
  }
  echo.join();
}

void probe_proxy(std::mt19937_64& rng, double seconds, WorkloadResult& result) {
  auto transport = std::make_shared<tdp::net::TcpTransport>();
  auto listener = transport->listen("127.0.0.1:0");
  if (!listener.is_ok()) return result.fail("echo listen: " + listener.status().to_string());
  std::thread echo(serve_frame_echo, std::ref(*listener.value()));
  {
    tdp::net::ProxyServer proxy(transport);
    proxy.register_service("echo", listener.value()->address());
    const int threads_before = thread_count();
    auto proxy_address = proxy.start("127.0.0.1:0");
    auto client = proxy_address.is_ok()
                      ? tdp::net::proxy_connect(*transport, proxy_address.value(), "echo")
                      : tdp::Result<std::unique_ptr<tdp::net::Endpoint>>(proxy_address.status());
    if (client.is_ok()) {
      const std::vector<std::uint8_t> frame = put_sized_frame(rng);
      // One round trip first, so the tunnel's relay threads are all up.
      std::vector<std::uint8_t> back;
      if (!client.value()->send_frame(frame.data(), frame.size()).is_ok() ||
          !client.value()->receive_frame(-1, &back).is_ok()) {
        result.fail("proxy warm-up round trip failed");
      }
      result.counts["net.proxy.threads"] = thread_count() - threads_before;
      frame_round_trips(*client.value(), frame, "net.proxy.rtt", seconds, result);
      client.value()->close();
    } else {
      result.fail("proxy connect: " + client.status().to_string());
      listener.value()->close();
    }
    proxy.stop();
  }
  echo.join();
}

void probe_inproc(std::mt19937_64& rng, double seconds, WorkloadResult& result) {
  auto transport = tdp::net::InProcTransport::create();
  auto listener = transport->listen("inproc://perfbench-echo");
  if (!listener.is_ok()) return result.fail("inproc listen: " + listener.status().to_string());
  std::thread echo([&listener] {
    auto endpoint = listener.value()->accept(10'000);
    if (!endpoint.is_ok()) return;
    while (true) {
      auto msg = endpoint.value()->receive(-1);
      if (!msg.is_ok() || !endpoint.value()->send(std::move(msg).value()).is_ok()) break;
    }
  });
  auto client = transport->connect("inproc://perfbench-echo");
  if (client.is_ok()) {
    const std::vector<std::string> keys = make_keys(rng, "app.attr", 1);
    const Message request = frames_of(OpKind::kPut, keys, rng, 1).request;
    const Deadline deadline = Deadline::after(seconds);
    while (!deadline.passed()) {
      ++result.attempted;
      tdp::Result<Message> back = tdp::make_error(tdp::ErrorCode::kInternal, "");
      {
        ScopedSpan span("net.inproc.rtt");
        const tdp::Status sent = client.value()->send(request);
        if (sent.is_ok()) back = client.value()->receive(-1);
      }
      if (!back.is_ok() || !(back.value() == request)) {
        result.fail("inproc echo failed");
        break;
      }
    }
    client.value()->close();
  } else {
    result.fail("inproc connect: " + client.status().to_string());
  }
  echo.join();
}

// --- attrspace.store ---

void probe_store(std::mt19937_64& rng, double seconds, WorkloadResult& result) {
  const std::string context = "ctx.bench";
  const std::vector<std::string> keys = make_keys(rng, "app.attr", 64);
  const std::vector<std::string> pub_keys = make_keys(rng, "pub", 64);
  std::vector<std::string> values;
  for (int i = 0; i < 64; ++i) values.push_back(make_value(3, static_cast<std::uint64_t>(i)));

  tdp::attr::AttributeStore store;
  store.open_context(context);
  for (std::size_t i = 0; i < keys.size(); ++i) store.put(context, keys[i], values[i]);
  tdp::attr::AttributeStore notify_store;
  notify_store.open_context(context);
  std::uint64_t notified = 0;
  notify_store.subscribe(context, "pub*",
                         [&notified](const std::string&, const std::string&,
                                     const std::string&) { ++notified; });

  std::uint64_t puts = 0;
  std::size_t round = 0;
  const Deadline deadline = Deadline::after(seconds);
  while (!deadline.passed()) {
    ++result.attempted;
    // After round r's puts, key i holds values[(i + r) % 64]; gets check it.
    bool correct = true;
    {
      ScopedSpan span("attrspace.store.get", static_cast<std::uint32_t>(keys.size()));
      for (std::size_t i = 0; i < keys.size(); ++i) {
        auto got = store.get(context, keys[i]);
        correct &= got.is_ok() && got.value() == values[(i + round) % values.size()];
      }
    }
    ++round;
    {
      ScopedSpan span("attrspace.store.put", static_cast<std::uint32_t>(keys.size()));
      for (std::size_t i = 0; i < keys.size(); ++i) {
        store.put(context, keys[i], values[(i + round) % values.size()]);
      }
    }
    {
      ScopedSpan span("attrspace.store.put_notify", static_cast<std::uint32_t>(pub_keys.size()));
      for (std::size_t i = 0; i < pub_keys.size(); ++i) {
        notify_store.put(context, pub_keys[i], values[(i + round) % values.size()]);
      }
    }
    puts += pub_keys.size();
    if (!correct) {
      result.fail("store get returned a stale value");
      break;
    }
  }
  if (notified != puts) result.fail("store subscription missed notifications");
}

// --- core: the TDP calls on an inproc LASS ---

void probe_core(double seconds, WorkloadResult& result) {
  auto transport = tdp::net::InProcTransport::create();
  tdp::attr::AttrServer lass("LASS", transport);
  auto address = lass.start("inproc://perfbench-lass");
  if (!address.is_ok()) return result.fail("LASS start: " + address.status().to_string());
  auto backend = std::make_shared<tdp::proc::SimProcessBackend>();

  tdp::InitOptions rm_options;
  rm_options.role = tdp::Role::kResourceManager;
  rm_options.lass_address = address.value();
  rm_options.transport = transport;
  rm_options.backend = backend;
  auto rm = tdp::TdpSession::init(rm_options);
  tdp::InitOptions tool_options;
  tool_options.role = tdp::Role::kTool;
  tool_options.lass_address = address.value();
  tool_options.transport = transport;
  auto waiter = tdp::TdpSession::init(tool_options);
  if (!rm.is_ok() || !waiter.is_ok()) return result.fail("tdp_init failed");

  // The RM's event loop: blocks in poll() until its LASS traffic (a tool's
  // control request) arrives, then services until quiet - a request that
  // arrives while the RM awaits its own reply is queued without making the
  // descriptor readable again.
  const int stop_fd = eventfd(0, EFD_CLOEXEC);
  if (stop_fd < 0) return result.fail("eventfd failed");
  std::thread rm_loop([&rm, stop_fd] {
    pollfd fds[2] = {{rm.value()->event_fd(), POLLIN, 0}, {stop_fd, POLLIN, 0}};
    while (true) {
      const int ready = poll(fds, 2, -1);
      if (ready < 0 && errno != EINTR) return;
      if ((fds[1].revents & POLLIN) != 0) return;
      if ((fds[0].revents & POLLIN) != 0) {
        while (rm.value()->service_events() > 0) {
        }
      }
    }
  });

  tdp::proc::CreateOptions app;
  app.argv = {"perfbench_app"};
  app.mode = tdp::proc::CreateMode::kPaused;
  app.sim_work_units = 1'000'000;

  std::uint64_t n = 0;
  const Deadline deadline = Deadline::after(seconds);
  while (!deadline.passed()) {
    ++result.attempted;
    const std::string pid_attr = "pid." + std::to_string(++n);
    bool ok = true;
    tdp::Result<tdp::proc::Pid> pid = tdp::make_error(tdp::ErrorCode::kInternal, "");
    tdp::Result<std::unique_ptr<tdp::TdpSession>> tool =
        tdp::make_error(tdp::ErrorCode::kInternal, "");
    {
      // Figure 6: the RM creates the application paused and publishes its
      // pid; the tool joins, reads the pid, attaches and continues.
      ScopedSpan handshake("core.handshake");
      pid = rm.value()->create_process(app);
      ok = pid.is_ok() && rm.value()->put(pid_attr, std::to_string(pid.value())).is_ok();
      if (ok) {
        ScopedSpan span("core.tdp.init");
        tool = tdp::TdpSession::init(tool_options);
      }
      ok = ok && tool.is_ok();
      if (ok) {
        auto got = tool.value()->get(pid_attr, 5000);
        ok = got.is_ok() && got.value() == std::to_string(pid.value());
      }
      if (ok) {
        ScopedSpan span("core.tdp.attach_continue");
        ok = tool.value()->attach(pid.value()).is_ok() &&
             tool.value()->continue_process(pid.value()).is_ok();
      }
    }
    if (tool.is_ok()) tool.value()->exit();
    if (pid.is_ok()) backend->kill_process(pid.value());

    // A get parked on the LASS, woken by the RM's put from another thread.
    const std::string wake_attr = "wake." + std::to_string(n);
    const std::size_t parked_before = lass.store().watcher_count();
    std::atomic<std::int64_t> put_at{0};
    std::atomic<bool> get_returned{false};
    std::thread putter([&] {
      while (lass.store().watcher_count() <= parked_before) {
        if (get_returned.load()) return;
        std::this_thread::yield();
      }
      put_at.store(now_ns());
      rm.value()->put(wake_attr, "1");
    });
    auto woke = waiter.value()->get(wake_attr, 5000);
    const std::int64_t woke_at = now_ns();
    get_returned.store(true);
    putter.join();
    if (woke.is_ok() && woke.value() == "1") {
      record_span("core.tdp.parked_get_wake", put_at.load(), woke_at);
    } else {
      ok = false;
    }
    if (!ok) {
      result.fail("core handshake step failed");
      break;
    }
  }

  const std::uint64_t one = 1;
  if (write(stop_fd, &one, sizeof(one)) != sizeof(one)) result.fail("RM stop failed");
  rm_loop.join();
  close(stop_fd);
  waiter.value()->exit();
  rm.value()->exit();
  lass.stop();
}

}  // namespace

WorkloadResult run_probes(std::uint64_t seed, double seconds) {
  WorkloadResult result;
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  SpanLog::instance().attach_thread();
  const double share = seconds / 6;
  probe_codec(rng, share, result);
  probe_tcp(rng, share, result);
  probe_proxy(rng, share, result);
  probe_inproc(rng, share, result);
  probe_store(rng, share, result);
  probe_core(share, result);
  return result;
}

}  // namespace perfbench
