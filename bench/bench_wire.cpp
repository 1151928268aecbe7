// bench_wire - what the wire format and the block journal cost and buy:
//   * codec micro-costs: encode/decode ns/op and the frame size;
//   * proxy relay throughput: pipelined messages through the raw-frame
//     relay vs a decode-and-re-encode relay (what the proxy did before);
//   * journal recovery: full replay of a 1M-record block journal vs
//     replay_from() at a checkpoint near the tail (seek-to-sync).
//
// The JSON emitter writes BENCH_wire.json at the repo root; the committed
// copy is the regression baseline `scripts/ci.sh bench-wire` gates against
// (>10% proxy-throughput regression fails).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/proxy.hpp"
#include "util/journal.hpp"

namespace {

using namespace tdp;

net::Message sample_message() {
  net::Message msg(net::MsgType::kAttrPut);
  msg.set_seq(123456789);
  msg.set("ctx", "job-1");
  msg.set("attr", "tdp.metric.cpu");
  msg.set("value", "0.73412");
  msg.set("_tc", "1-00000000000000aa-00000000000000bb");
  return msg;
}

// --- console benchmarks ----------------------------------------------------

void BM_EncodeInto(benchmark::State& state) {
  const net::Message msg = sample_message();
  std::vector<std::uint8_t> warm;
  for (auto _ : state) {
    msg.encode_into(warm);
    benchmark::DoNotOptimize(warm.data());
  }
}
BENCHMARK(BM_EncodeInto);

void BM_Decode(benchmark::State& state) {
  const auto bytes = sample_message().encode();
  for (auto _ : state) {
    auto decoded = net::Message::decode(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_Decode);

void BM_ParseView(benchmark::State& state) {
  const auto bytes = sample_message().encode();
  net::MessageView view;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.parse(bytes.data(), bytes.size()));
  }
}
BENCHMARK(BM_ParseView);

// --- JSON emission pass ----------------------------------------------------

/// Counting sink: drains pipelined pings and answers only the "fin"
/// sentinel, with the number of messages that arrived before it. Replying
/// per ping would make the sink's own send() syscalls the bottleneck and
/// mask the relay under test; one reply per run keeps the middle hop hot.
class SinkServer {
 public:
  explicit SinkServer(std::shared_ptr<net::Transport> transport) {
    listener_ = transport->listen("127.0.0.1:0").value();
    thread_ = std::thread([this] {
      auto accepted = listener_->accept(5000);
      if (!accepted.is_ok()) return;
      auto endpoint = std::move(accepted).value();
      net::MessageView view;
      std::uint64_t count = 0;
      while (running_.load(std::memory_order_acquire)) {
        auto received = endpoint->receive_view(200, &view);
        if (!received.is_ok()) {
          if (received.code() == ErrorCode::kTimeout) continue;
          break;
        }
        if (view.get("fin").empty()) {
          ++count;
          continue;
        }
        net::Message reply(net::MsgType::kPong);
        reply.set("count", std::to_string(count));
        count = 0;
        if (!endpoint->send(reply).is_ok()) break;
      }
      endpoint->close();
    });
  }
  ~SinkServer() {
    running_.store(false, std::memory_order_release);
    listener_->close();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] std::string address() const { return listener_->address(); }

 private:
  std::unique_ptr<net::Listener> listener_;
  std::thread thread_;
  std::atomic<bool> running_{true};
};

/// The pre-PR-6 proxy data path, reconstructed as a baseline: one tunnel
/// that decodes every Message and re-encodes it on the far side. Measuring
/// it side by side with ProxyServer isolates what the raw-frame relay buys.
class DecodeRelay {
 public:
  DecodeRelay(std::shared_ptr<net::Transport> transport, std::string target)
      : transport_(std::move(transport)), target_(std::move(target)) {
    listener_ = transport_->listen("127.0.0.1:0").value();
    accept_thread_ = std::thread([this] {
      auto accepted = listener_->accept(5000);
      if (!accepted.is_ok()) return;
      std::shared_ptr<net::Endpoint> client(std::move(accepted).value().release());
      auto dialed = transport_->connect(target_);
      if (!dialed.is_ok()) return;
      std::shared_ptr<net::Endpoint> upstream(std::move(dialed).value().release());
      auto pump = [this](const std::shared_ptr<net::Endpoint>& from,
                         const std::shared_ptr<net::Endpoint>& to) {
        while (running_.load(std::memory_order_acquire)) {
          auto msg = from->receive(200);
          if (!msg.is_ok()) {
            if (msg.status().code() == ErrorCode::kTimeout) continue;
            break;
          }
          if (!to->send(std::move(msg).value()).is_ok()) break;
        }
      };
      back_thread_ = std::thread([pump, client, upstream] { pump(upstream, client); });
      pump(client, upstream);
      client->close();
      upstream->close();
    });
  }
  ~DecodeRelay() {
    running_.store(false, std::memory_order_release);
    listener_->close();
    if (accept_thread_.joinable()) accept_thread_.join();
    if (back_thread_.joinable()) back_thread_.join();
  }
  [[nodiscard]] std::string address() const { return listener_->address(); }

 private:
  std::shared_ptr<net::Transport> transport_;
  std::string target_;
  std::unique_ptr<net::Listener> listener_;
  std::thread accept_thread_;
  std::thread back_thread_;
  std::atomic<bool> running_{true};
};

/// Pipelined one-way throughput through `endpoint` to a SinkServer on the
/// far side of the relay under test. The client pre-encodes a burst of
/// frames once and streams it with send_frame - the byte pattern a
/// put_batch flood produces - so neither the producer's encode cost nor a
/// per-message reply path can hide the relay's own ceiling. Returns the
/// sink-confirmed delivered rate.
double pipelined_ops_per_sec(net::Endpoint& endpoint, int count) {
  constexpr int kBurst = 64;
  net::Message ping = sample_message();
  std::vector<std::uint8_t> one;
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < kBurst; ++i) {
    ping.set_seq(static_cast<std::uint64_t>(i));
    ping.encode_into(one);
    burst.insert(burst.end(), one.begin(), one.end());
  }
  const int bursts = count / kBurst;
  const auto begin = std::chrono::steady_clock::now();
  std::thread writer([&] {
    for (int b = 0; b < bursts; ++b) {
      if (!endpoint.send_frame(burst.data(), burst.size()).is_ok()) return;
    }
    net::Message fin(net::MsgType::kPing);
    fin.set("fin", "1");
    endpoint.send(fin);
  });
  auto done = endpoint.receive(30000);
  writer.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  if (!done.is_ok() || secs <= 0) return 0.0;
  const double received = std::strtod(done->get("count").c_str(), nullptr);
  return received / secs;
}

double ns_per_op(int iterations, const std::function<void()>& op) {
  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) op();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - begin).count() / iterations;
}

void emit_wire_json() {
  bench::silence_logs();
  const net::Message msg = sample_message();

  // Codec micro-costs.
  std::vector<std::uint8_t> warm;
  const double encode_v2_ns = ns_per_op(400000, [&] { msg.encode_into(warm); });
  const auto v2_bytes = msg.encode();
  net::MessageView view;
  const double decode_v2_ns = ns_per_op(
      400000, [&] { (void)view.parse(v2_bytes.data(), v2_bytes.size()); });

  // Proxy relay throughput: raw-frame ProxyServer vs decode/re-encode
  // relay, same echo upstream, same pipelined load.
  constexpr int kPipelined = 30000;
  double relay_ops = 0;
  double decode_relay_ops = 0;
  {
    auto transport = std::make_shared<net::TcpTransport>();
    SinkServer echo(transport);
    net::ProxyServer proxy(transport);
    proxy.register_service("echo", echo.address());
    auto proxy_address = proxy.start("127.0.0.1:0").value();
    auto endpoint = net::proxy_connect(*transport, proxy_address, "echo").value();
    pipelined_ops_per_sec(*endpoint, 2000);  // warmup
    relay_ops = pipelined_ops_per_sec(*endpoint, kPipelined);
    endpoint->close();
    proxy.stop();
  }
  {
    auto transport = std::make_shared<net::TcpTransport>();
    SinkServer echo(transport);
    DecodeRelay relay(transport, echo.address());
    auto endpoint = transport->connect(relay.address()).value();
    pipelined_ops_per_sec(*endpoint, 2000);  // warmup
    decode_relay_ops = pipelined_ops_per_sec(*endpoint, kPipelined);
    endpoint->close();
  }

  // Journal recovery: 1M records appended in batches (the snapshot-sized
  // write path), then a full replay vs an incremental replay_from() at a
  // checkpoint taken at 99% - the "reader that already holds state" case.
  constexpr int kBatches = 1000;
  constexpr int kPerBatch = 1000;
  constexpr int kCheckpointAt = 990;  // batch index; last 1% is the delta
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bench_wire_journal").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  double full_replay_ms = 0;
  double delta_replay_ms = 0;
  std::size_t delta_records = 0;
  {
    auto journal = journal::Journal::open_file(dir + "/queue").value();
    std::vector<journal::Record> batch;
    batch.reserve(kPerBatch);
    std::uint64_t checkpoint = 0;
    for (int b = 0; b < kBatches; ++b) {
      if (b == kCheckpointAt) checkpoint = journal->log_position().value();
      batch.clear();
      for (int i = 0; i < kPerBatch; ++i) {
        batch.push_back({"job",
                         {std::to_string(b * kPerBatch + i), "idle", "node-7",
                          "0"}});
      }
      if (!journal->append_batch(batch).is_ok()) return;
    }
    auto begin = std::chrono::steady_clock::now();
    auto full = journal->replay();
    full_replay_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - begin)
                         .count();
    if (!full.is_ok() || full->size() != kBatches * kPerBatch) return;

    begin = std::chrono::steady_clock::now();
    auto delta = journal->replay_from(checkpoint);
    delta_replay_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
    if (!delta.is_ok()) return;
    delta_records = delta->size();
  }
  std::filesystem::remove_all(dir);

  std::ofstream out("BENCH_wire.json", std::ios::trunc);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"benchmark\": \"wire\",\n"
      "  \"encode_v2_ns\": %.1f,\n"
      "  \"decode_v2_ns\": %.1f,\n"
      "  \"frame_bytes_v2\": %zu,\n"
      "  \"proxy_relay_ops_per_sec\": %.1f,\n"
      "  \"decode_relay_ops_per_sec\": %.1f,\n"
      "  \"proxy_speedup\": %.2f,\n"
      "  \"journal_records\": %d,\n"
      "  \"journal_full_replay_ms\": %.1f,\n"
      "  \"journal_delta_replay_ms\": %.1f,\n"
      "  \"journal_delta_records\": %zu\n"
      "}\n",
      encode_v2_ns, decode_v2_ns, v2_bytes.size(), relay_ops, decode_relay_ops,
      decode_relay_ops > 0 ? relay_ops / decode_relay_ops : 0.0,
      kBatches * kPerBatch, full_replay_ms, delta_replay_ms, delta_records);
  out << buf;
  std::printf(
      "wire: encode %.0fns, frame %zuB, proxy %.0f ops/s (decode relay %.0f), "
      "1M-record replay %.0fms (delta %.0fms)\n",
      encode_v2_ns, v2_bytes.size(), relay_ops, decode_relay_ops, full_replay_ms,
      delta_replay_ms);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_wire_json();
  return 0;
}
