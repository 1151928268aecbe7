// cass_notify - the Figure-1/2 firewalled CASS write path.
//
// One AttrServer (the CASS) on TCP behind a net::ProxyServer. A publisher
// reaches the CASS only through the proxy (proxy_connect + adopt) and puts
// "<seq>:<send time>" to pub.<k> in a shared context; a front-end
// subscriber, connected directly, holds a pub* subscription and blocks in
// poll() on readable_fd() before each service_events(). One op is one
// acknowledged put; its latency runs from the put's send to the
// subscriber's callback.
#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>

#include "attrspace/attr_client.hpp"
#include "attrspace/attr_server.hpp"
#include "net/proxy.hpp"
#include "net/tcp.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kKeys = 64;
constexpr int kDrainTimeoutMs = 5000;
/// Puts per round: a round ends early when it reaches this many. About 3.5
/// times what the publisher does in a round on a 4-vCPU Xeon VM.
constexpr std::size_t kMaxPuts = std::size_t{1} << 15;

// The per-round records are fixed-size and live in vectors that are filled
// to capacity once, before the first round, then cleared and reused. So the
// benchmark's resident memory is the same whatever the program's throughput
// (see LatencyBuffer).
struct Delivery {
  int key = -1;               ///< index of the notified attribute, -1 if unknown
  std::uint64_t seq = 0;      ///< parsed from the value "<seq>:<sent_ns>"
  std::int64_t sent_ns = -1;  ///< parsed from the value
  std::int64_t at_ns = 0;     ///< when the subscriber's callback ran
};

struct Published {
  int key = 0;
  bool acked = false;
  std::int64_t sent_ns = 0;
};

/// A vector of `capacity` elements whose pages are resident, left empty.
template <typename T>
std::vector<T> touched(std::size_t capacity) {
  std::vector<T> records(capacity);
  records.clear();
  return records;
}

std::string value_of(std::uint64_t seq, std::int64_t sent_ns) {
  return std::to_string(seq) + ":" + std::to_string(sent_ns);
}

/// Parses "<seq>:<sent_ns>"; seq 0 when the value is not in that form.
Delivery parse_delivery(int key, const std::string& value, std::int64_t at_ns) {
  char* end = nullptr;
  const std::uint64_t seq = std::strtoull(value.c_str(), &end, 10);
  const std::int64_t sent_ns = *end == ':' ? std::strtoll(end + 1, nullptr, 10) : -1;
  if (value != value_of(seq, sent_ns)) return Delivery{key, 0, -1, at_ns};
  return Delivery{key, seq, sent_ns, at_ns};
}

/// Front-end loop: blocks in poll() on the client's descriptor and a stop
/// eventfd; after the stop it drains until `expected` notifies arrived or
/// the drain deadline passes.
void subscriber_loop(tdp::attr::AttrClient& subscriber, int stop_fd,
                     const std::atomic<std::size_t>& expected,
                     const std::vector<Delivery>& deliveries, std::string* error) {
  SpanLog::instance().attach_thread();
  pollfd fds[2] = {{subscriber.readable_fd(), POLLIN, 0}, {stop_fd, POLLIN, 0}};
  bool stopping = false;
  std::int64_t drain_deadline = 0;
  while (true) {
    int timeout_ms = -1;
    if (stopping) {
      if (deliveries.size() >= expected.load()) return;
      timeout_ms = static_cast<int>((drain_deadline - now_ns()) / 1'000'000);
      if (timeout_ms <= 0) return;
    }
    const int ready = poll(fds, stopping ? 1 : 2, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      *error = "poll failed";
      return;
    }
    if (ready == 0) continue;
    if (!stopping && (fds[1].revents & POLLIN) != 0) {
      stopping = true;
      drain_deadline = now_ns() + std::int64_t{kDrainTimeoutMs} * 1'000'000;
    }
    if ((fds[0].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
      *error = "subscriber connection lost";
      return;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const std::int64_t start = now_ns();
      const int dispatched = subscriber.service_events();
      if (dispatched > 0) {
        record_span("attrspace.client.service_events", start, now_ns(),
                    static_cast<std::uint32_t>(dispatched));
      }
    }
  }
}

}  // namespace

WorkloadResult run_cass_notify(const WorkloadConfig& config) {
  WorkloadResult result;
  std::mt19937_64 seed_rng(config.seed);
  const std::string context = "cass." + std::to_string(seed_rng() % 100000);
  const std::vector<std::string> keys = make_keys(seed_rng, "pub", kKeys);
  std::map<std::string, int> key_index;
  for (int k = 0; k < kKeys; ++k) key_index[keys[k]] = k;

  const int rounds = rounds_for(config.seconds);
  const double round_seconds = config.seconds / rounds;
  double retries = 0;
  std::vector<Published> published = touched<Published>(kMaxPuts);
  std::vector<Delivery> deliveries = touched<Delivery>(kMaxPuts);
  std::vector<int> seen(kMaxPuts + 1, 0);  ///< notifies per seq
  std::size_t extra_notifies = 0;          ///< arrived with `deliveries` full
  LatencyBuffer latency_us(kMaxPuts);
  for (int round = 0; round < rounds; ++round) {
    std::mt19937_64 rng(config.seed * 1000003u + static_cast<std::uint64_t>(round));
    published.clear();
    deliveries.clear();
    extra_notifies = 0;
    latency_us.clear();

    // --- set-up: CASS, proxy and tunnel up, subscriber registered ---
    const std::int64_t setup_start = now_ns();
    auto transport = std::make_shared<tdp::net::TcpTransport>();
    tdp::attr::AttrServer cass("CASS", transport);
    auto cass_address = cass.start("127.0.0.1:0");
    if (!cass_address.is_ok()) {
      result.fail("CASS start: " + cass_address.status().to_string());
      return result;
    }
    tdp::net::ProxyServer proxy(transport);
    proxy.register_service("cass", cass_address.value());
    auto proxy_address = proxy.start("127.0.0.1:0");
    if (!proxy_address.is_ok()) {
      result.fail("proxy start: " + proxy_address.status().to_string());
      return result;
    }
    auto tunnel = tdp::net::proxy_connect(*transport, proxy_address.value(), "cass");
    if (!tunnel.is_ok()) {
      result.fail("proxy_connect: " + tunnel.status().to_string());
      return result;
    }
    auto publisher = tdp::attr::AttrClient::adopt(std::move(tunnel).value(), context);
    auto subscriber = tdp::attr::AttrClient::connect(*transport, cass_address.value(), context);
    if (!publisher.is_ok() || !subscriber.is_ok()) {
      result.fail("client join failed");
      return result;
    }
    const tdp::Status subscribed = subscriber.value()->subscribe(
        "pub*",
        [&deliveries, &extra_notifies, &key_index](const std::string& attribute,
                                                   const std::string& value) {
          const std::int64_t at = now_ns();
          if (deliveries.size() == deliveries.capacity()) {
            ++extra_notifies;
            return;
          }
          auto it = key_index.find(attribute);
          deliveries.push_back(parse_delivery(it == key_index.end() ? -1 : it->second, value, at));
        });
    if (!subscribed.is_ok()) {
      result.fail("subscribe: " + subscribed.to_string());
      return result;
    }
    result.setup_s.add(static_cast<double>(now_ns() - setup_start) / 1e9);

    // --- measured: publisher closed loop on this thread ---
    const int stop_fd = eventfd(0, EFD_CLOEXEC);
    if (stop_fd < 0) {
      result.fail("eventfd failed");
      return result;
    }
    std::atomic<std::size_t> expected{~std::size_t{0}};
    std::string subscriber_error;
    std::thread front_end(subscriber_loop, std::ref(*subscriber.value()), stop_fd,
                          std::cref(expected), std::cref(deliveries), &subscriber_error);
    SpanLog::instance().attach_thread();
    const std::int64_t round_start = now_ns();
    const Deadline deadline{round_start + static_cast<std::int64_t>(round_seconds * 1e9)};
    std::size_t acked = 0;
    while (!deadline.passed() && published.size() < kMaxPuts) {
      Published put;
      put.key = static_cast<int>(rng() % kKeys);
      put.sent_ns = now_ns();
      const std::string value = value_of(published.size() + 1, put.sent_ns);
      tdp::Status status;
      {
        ScopedSpan span("attrspace.client.put");
        status = publisher.value()->put(keys[put.key], value);
      }
      put.acked = status.is_ok();
      if (put.acked) {
        ++acked;
      } else {
        result.fail("put " + keys[put.key] + ": " + status.to_string());
      }
      published.push_back(put);
    }
    const double elapsed = static_cast<double>(now_ns() - round_start) / 1e9;
    expected.store(acked);
    const std::uint64_t one = 1;
    if (write(stop_fd, &one, sizeof(one)) != sizeof(one)) {
      result.fail("stop signal failed");
    }
    front_end.join();
    close(stop_fd);
    if (!subscriber_error.empty()) result.fail(subscriber_error);

    // --- check: every acked put delivered exactly once, as written ---
    std::fill_n(seen.begin(), published.size() + 1, 0);
    if (extra_notifies > 0) {
      result.fail(std::to_string(extra_notifies) + " notifies past one per put");
    }
    for (const Delivery& delivery : deliveries) {
      const std::uint64_t seq = delivery.seq;
      if (seq == 0 || seq > published.size()) {
        result.fail("notify for an unpublished or malformed value");
        continue;
      }
      const Published& put = published[seq - 1];
      if (++seen[seq] > 1) {
        result.fail("notify delivered twice for seq " + std::to_string(seq));
      } else if (delivery.key != put.key || delivery.sent_ns != put.sent_ns) {
        result.fail("notify for seq " + std::to_string(seq) + " does not match the put");
      } else if (put.acked) {
        latency_us.add(static_cast<double>(delivery.at_ns - put.sent_ns) / 1e3);
      }
    }
    for (std::size_t seq = 1; seq <= published.size(); ++seq) {
      if (published[seq - 1].acked && seen[seq] == 0) {
        result.fail("acked put seq " + std::to_string(seq) + " never notified");
      }
    }
    result.attempted += published.size();
    result.end_round(latency_us, static_cast<double>(acked) / elapsed);
    retries += publisher.value()->reconnects() + publisher.value()->replays() +
               subscriber.value()->reconnects() + subscriber.value()->replays();

    publisher.value()->exit();
    subscriber.value()->exit();
    proxy.stop();
    cass.stop();
  }
  result.counts["attrspace.client.retries"] = retries;
  return result;
}

}  // namespace perfbench
