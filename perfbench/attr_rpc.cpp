// attr_rpc - Figure-2 LASS traffic over TCP loopback.
//
// One AttrServer on TcpTransport; kClients threads, each with its own
// AttrClient joined to its own context preloaded with kKeys 16-byte values.
// Per op: 70% try_get, 25% put, 5% put_batch of kBatch pairs. Each context
// has a single writer, so every try_get must return the value this client
// last stored there.
#include <atomic>
#include <memory>
#include <thread>

#include "attrspace/attr_client.hpp"
#include "attrspace/attr_server.hpp"
#include "net/tcp.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr int kKeys = 64;
constexpr int kBatch = 16;
/// Latency samples per client per round: a round ends early when one
/// client's buffer is full. About 3.5 times what a client does in a round
/// on a 4-vCPU Xeon VM.
constexpr std::size_t kLatencyCapacity = std::size_t{1} << 16;

struct Client {
  std::unique_ptr<tdp::attr::AttrClient> attr;
  std::vector<std::string> keys;
  std::vector<std::string> expected;  ///< last value stored per key
  std::mt19937_64 rng;
  std::uint64_t writer = 0;
  std::uint64_t counter = 0;
  // Per-round tally, owned by the client's thread while the round runs.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  LatencyBuffer* latency_us = nullptr;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
};

/// Stores a fresh value under each of `indexes` in one put_batch.
tdp::Status put_batch(Client& client, const std::vector<int>& indexes) {
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(indexes.size());
  for (int index : indexes) {
    pairs.emplace_back(client.keys[index], make_value(client.writer, ++client.counter));
  }
  tdp::Status status;
  {
    ScopedSpan span("attrspace.client.put_batch");
    status = client.attr->put_batch(pairs);
  }
  if (status.is_ok()) {
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      client.expected[indexes[i]] = pairs[i].second;
    }
  }
  return status;
}

/// One closed-loop op; records its latency when it succeeds and checks.
void one_op(Client& client) {
  const std::uint64_t draw = client.rng() % 100;
  const int key = static_cast<int>(client.rng() % kKeys);
  ++client.attempted;
  const std::int64_t start = now_ns();
  if (draw < 70) {
    tdp::Result<std::string> got = tdp::make_error(tdp::ErrorCode::kInternal, "");
    {
      ScopedSpan span("attrspace.client.try_get");
      got = client.attr->try_get(client.keys[key]);
    }
    const std::int64_t end = now_ns();
    if (!got.is_ok()) {
      client.fail("try_get " + client.keys[key] + ": " + got.status().to_string());
    } else if (got.value() != client.expected[key]) {
      client.fail("try_get " + client.keys[key] + " read '" + got.value() +
                        "', expected '" + client.expected[key] + "'");
    } else {
      client.latency_us->add(static_cast<double>(end - start) / 1e3);
    }
  } else if (draw < 95) {
    std::string value = make_value(client.writer, ++client.counter);
    tdp::Status status;
    {
      ScopedSpan span("attrspace.client.put");
      status = client.attr->put(client.keys[key], value);
    }
    const std::int64_t end = now_ns();
    if (!status.is_ok()) {
      client.fail("put " + client.keys[key] + ": " + status.to_string());
    } else {
      client.expected[key] = std::move(value);
      client.latency_us->add(static_cast<double>(end - start) / 1e3);
    }
  } else {
    std::vector<int> indexes;
    for (int i = 0; i < kBatch; ++i) indexes.push_back((key + i) % kKeys);
    const tdp::Status status = put_batch(client, indexes);
    const std::int64_t end = now_ns();
    if (!status.is_ok()) {
      client.fail("put_batch: " + status.to_string());
    } else {
      client.latency_us->add(static_cast<double>(end - start) / 1e3);
    }
  }
}

}  // namespace

WorkloadResult run_attr_rpc(const WorkloadConfig& config) {
  WorkloadResult result;
  std::mt19937_64 seed_rng(config.seed);
  const std::string context_prefix = "ctx." + std::to_string(seed_rng() % 100000);
  std::vector<std::vector<std::string>> keys;
  for (int c = 0; c < kClients; ++c) keys.push_back(make_keys(seed_rng, "app.attr", kKeys));

  const int rounds = rounds_for(config.seconds);
  const double round_seconds = config.seconds / rounds;
  double retries = 0;
  std::vector<LatencyBuffer> client_latency(kClients, LatencyBuffer(kLatencyCapacity));
  LatencyBuffer latency_us(kClients * kLatencyCapacity);
  for (int round = 0; round < rounds; ++round) {
    // --- set-up: server up, clients joined, contexts preloaded ---
    const std::int64_t setup_start = now_ns();
    auto transport = std::make_shared<tdp::net::TcpTransport>();
    tdp::attr::AttrServer server("LASS", transport);
    auto address = server.start("127.0.0.1:0");
    if (!address.is_ok()) {
      result.fail("server start: " + address.status().to_string());
      return result;
    }
    std::vector<Client> clients(kClients);
    bool setup_ok = true;
    for (int c = 0; c < kClients && setup_ok; ++c) {
      Client& client = clients[c];
      auto attr = tdp::attr::AttrClient::connect(
          *transport, address.value(), context_prefix + "." + std::to_string(c));
      if (!attr.is_ok()) {
        result.fail("client connect: " + attr.status().to_string());
        setup_ok = false;
        break;
      }
      client.attr = std::move(attr).value();
      client.keys = keys[c];
      client.expected.assign(kKeys, "");
      client.rng.seed(config.seed * 1000003u + static_cast<std::uint64_t>(round) * 31u +
                      static_cast<std::uint64_t>(c));
      client.writer = static_cast<std::uint64_t>(round) * kClients + c;
      client.latency_us = &client_latency[c];
      client.latency_us->clear();
      for (int first = 0; first < kKeys && setup_ok; first += kBatch) {
        std::vector<int> indexes;
        for (int i = first; i < first + kBatch; ++i) indexes.push_back(i);
        const tdp::Status status = put_batch(client, indexes);
        if (!status.is_ok()) {
          result.fail("preload: " + status.to_string());
          setup_ok = false;
        }
      }
    }
    if (!setup_ok) return result;
    result.setup_s.add(static_cast<double>(now_ns() - setup_start) / 1e9);

    // --- measured closed loops ---
    const std::int64_t round_start = now_ns();
    const Deadline deadline{round_start + static_cast<std::int64_t>(round_seconds * 1e9)};
    std::atomic<bool> full{false};
    std::vector<std::thread> threads;
    for (Client& client : clients) {
      threads.emplace_back([&client, &full, deadline] {
        SpanLog::instance().attach_thread();
        while (!deadline.passed() && !full.load(std::memory_order_relaxed)) {
          if (client.latency_us->full()) {
            full.store(true, std::memory_order_relaxed);
          } else {
            one_op(client);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double elapsed = static_cast<double>(now_ns() - round_start) / 1e9;

    std::uint64_t done = 0;
    latency_us.clear();
    for (Client& client : clients) {
      result.attempted += client.attempted;
      result.failed += client.failed;
      done += client.attempted - client.failed;
      latency_us.append(*client.latency_us);
      for (const std::string& error : client.errors) {
        if (result.errors.size() < 8) result.errors.push_back(error);
      }
      retries += client.attr->reconnects() + client.attr->replays();
      client.attr->exit();
    }
    result.end_round(latency_us, static_cast<double>(done) / elapsed);
    server.stop();
  }
  result.counts["attrspace.client.retries"] = retries;
  return result;
}

}  // namespace perfbench
