#include "net/faulty.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace tdp::net {

namespace {
const log::Logger kLog("faulty");

constexpr std::uint64_t kIndexSalt = 0x9e3779b97f4a7c15ULL;

// Process-wide mirrors of the per-transport FaultStats, so injected faults
// show up in tdptop next to the retry/replay counters they provoke.
telemetry::Counter& injected_counter(const char* what) {
  return telemetry::Registry::instance().counter(std::string("faulty.") + what);
}

tdp::Mutex& observer_mutex() {
  static tdp::Mutex m{"net::fault_observer_mutex"};
  return m;
}

FaultObserver& observer_ref() {
  static FaultObserver o;
  return o;
}

/// Copies the observer under its leaf lock, invokes outside all locks —
/// every call site below runs with FaultyEndpoint::mutex_ released.
void notify_fault(std::string_view kind, std::string_view detail) {
  FaultObserver observer;
  {
    LockGuard lock(observer_mutex());
    observer = observer_ref();
  }
  if (observer) observer(kind, detail);
}
}  // namespace

void set_fault_observer(FaultObserver observer) {
  LockGuard lock(observer_mutex());
  observer_ref() = std::move(observer);
}

FaultPlan FaultPlan::chaos(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.10;
  plan.delay_prob = 0.20;
  plan.max_delay_ms = 50;
  plan.dup_prob = 0.05;
  plan.disconnect_after_msgs = 8;
  plan.max_disconnects = 1;
  return plan;
}

void corrupt_frame(std::vector<std::uint8_t>& frame, Rng& rng) {
  if (frame.empty()) return;
  switch (rng.next_below(3)) {
    case 0: {  // flip 1..4 bytes anywhere in the frame
      const std::uint64_t flips = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        frame[rng.next_below(frame.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      break;
    }
    case 1: {  // truncate the tail (partial frame on the wire)
      frame.resize(1 + rng.next_below(frame.size()));
      break;
    }
    default: {  // scribble on the length prefix (classic desync)
      const std::size_t n = std::min<std::size_t>(frame.size(), Message::kLenPrefixSize);
      for (std::size_t i = 0; i < n; ++i) {
        frame[i] = static_cast<std::uint8_t>(rng.next_u64());
      }
      break;
    }
  }
}

FaultyEndpoint::FaultyEndpoint(std::unique_ptr<Endpoint> inner, const FaultPlan& plan,
                               std::shared_ptr<FaultStats> stats,
                               std::shared_ptr<std::atomic<int>> disconnect_tokens,
                               std::uint64_t endpoint_index)
    : inner_(std::move(inner)),
      plan_(plan),
      stats_(std::move(stats)),
      disconnect_tokens_(std::move(disconnect_tokens)),
      rng_(plan.seed ^ ((endpoint_index + 1) * kIndexSalt)) {}

bool FaultyEndpoint::roll(double prob) {
  if (prob <= 0.0) return false;
  return rng_.next_double() < prob;
}

void FaultyEndpoint::sleep_ms(int ms) const {
  if (ms <= 0) return;
  if (plan_.sleep_fn) {
    plan_.sleep_fn(ms);
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
}

bool FaultyEndpoint::account_message() {
  // One forced disconnect consumes a transport-wide token so "one
  // disconnect per client" schedules stay bounded.
  ++msgs_;
  if (plan_.disconnect_after_msgs <= 0 || msgs_ < plan_.disconnect_after_msgs) {
    return true;
  }
  if (killed_.load(std::memory_order_acquire)) return false;
  int tokens = disconnect_tokens_->load(std::memory_order_acquire);
  while (tokens != 0) {  // negative budget = unlimited
    if (tokens < 0 ||
        disconnect_tokens_->compare_exchange_weak(tokens, tokens - 1,
                                                  std::memory_order_acq_rel)) {
      killed_.store(true, std::memory_order_release);
      stats_->forced_disconnects.fetch_add(1, std::memory_order_relaxed);
      static telemetry::Counter& disconnects = injected_counter("disconnects");
      disconnects.inc();
      return false;
    }
  }
  return true;
}

Status FaultyEndpoint::send(const Message& msg) {
  bool drop = false;
  bool dup = false;
  int delay = 0;
  bool die = false;
  {
    LockGuard lock(mutex_);
    if (killed_.load(std::memory_order_acquire)) {
      return make_error(ErrorCode::kConnectionError, "fault injection: endpoint dead");
    }
    if (!account_message()) {
      die = true;
    } else {
      drop = roll(plan_.drop_prob);
      if (!drop) {
        dup = roll(plan_.dup_prob);
        if (roll(plan_.delay_prob) && plan_.max_delay_ms > 0) {
          delay = 1 + static_cast<int>(rng_.next_below(
                          static_cast<std::uint64_t>(plan_.max_delay_ms)));
        }
      }
    }
  }
  if (die) {
    // "Hang then die": dwell as a wedged peer would, then drop the link.
    notify_fault("disconnect", inner_->peer_address());
    sleep_ms(plan_.hang_before_die_ms);
    inner_->close();
    return make_error(ErrorCode::kConnectionError,
                      "fault injection: forced disconnect");
  }
  stats_->sent.fetch_add(1, std::memory_order_relaxed);
  if (drop) {
    stats_->dropped.fetch_add(1, std::memory_order_relaxed);
    static telemetry::Counter& drops = injected_counter("drops");
    drops.inc();
    notify_fault("drop", inner_->peer_address());
    return Status::ok();  // the link ate it; the sender cannot tell
  }
  if (delay > 0) {
    stats_->delayed.fetch_add(1, std::memory_order_relaxed);
    static telemetry::Counter& delays = injected_counter("delays");
    delays.inc();
    notify_fault("delay", inner_->peer_address());
    sleep_ms(delay);
  }
  if (dup) {
    stats_->duplicated.fetch_add(1, std::memory_order_relaxed);
    static telemetry::Counter& dups = injected_counter("dups");
    dups.inc();
    notify_fault("duplicate", inner_->peer_address());
    TDP_RETURN_IF_ERROR(inner_->send(msg));
  }
  return inner_->send(msg);
}

Result<Message> FaultyEndpoint::receive(int timeout_ms) {
  if (killed_.load(std::memory_order_acquire)) {
    return make_error(ErrorCode::kConnectionError, "fault injection: endpoint dead");
  }
  auto received = inner_->receive(timeout_ms);
  if (!received.is_ok()) return received;

  bool corrupt = false;
  bool die = false;
  {
    LockGuard lock(mutex_);
    if (!account_message()) {
      die = true;
    } else {
      corrupt = roll(plan_.corrupt_prob);
    }
  }
  if (die) {
    notify_fault("disconnect", inner_->peer_address());
    sleep_ms(plan_.hang_before_die_ms);
    inner_->close();
    return make_error(ErrorCode::kConnectionError,
                      "fault injection: forced disconnect");
  }
  stats_->received.fetch_add(1, std::memory_order_relaxed);
  if (!corrupt) return received;

  // Corrupt the encoded frame and re-decode, exactly what a receiver sees
  // when bytes are damaged in flight. A frame that still decodes is
  // delivered garbled; one that does not has desynced the stream, which
  // on a framed byte transport is fatal for the connection.
  stats_->corrupted.fetch_add(1, std::memory_order_relaxed);
  static telemetry::Counter& corruptions = injected_counter("corruptions");
  corruptions.inc();
  notify_fault("corrupt", inner_->peer_address());
  std::vector<std::uint8_t> frame = received->encode();
  {
    LockGuard lock(mutex_);
    corrupt_frame(frame, rng_);
  }
  auto decoded = Message::decode(frame.data(), frame.size());
  if (decoded.is_ok()) return decoded;
  stats_->desyncs.fetch_add(1, std::memory_order_relaxed);
  notify_fault("desync", inner_->peer_address());
  kLog.debug("injected corruption desynced stream from ", inner_->peer_address());
  killed_.store(true, std::memory_order_release);
  inner_->close();
  return make_error(ErrorCode::kConnectionError,
                    "fault injection: corrupted frame desynced stream");
}

bool FaultyEndpoint::is_open() const {
  return !killed_.load(std::memory_order_acquire) && inner_->is_open();
}

FaultyListener::FaultyListener(std::unique_ptr<Listener> inner, const FaultPlan& plan,
                               std::shared_ptr<FaultStats> stats,
                               std::shared_ptr<std::atomic<int>> disconnect_tokens,
                               std::shared_ptr<std::atomic<std::uint64_t>> next_index)
    : inner_(std::move(inner)),
      plan_(plan),
      stats_(std::move(stats)),
      disconnect_tokens_(std::move(disconnect_tokens)),
      next_index_(std::move(next_index)) {}

Result<std::unique_ptr<Endpoint>> FaultyListener::accept(int timeout_ms) {
  auto accepted = inner_->accept(timeout_ms);
  if (!accepted.is_ok()) return accepted;
  const std::uint64_t index =
      next_index_->fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Endpoint>(new FaultyEndpoint(
      std::move(accepted).value(), plan_, stats_, disconnect_tokens_, index));
}

FaultyTransport::FaultyTransport(std::shared_ptr<Transport> inner, FaultPlan plan)
    : inner_(std::move(inner)),
      plan_(std::move(plan)),
      stats_(std::make_shared<FaultStats>()),
      disconnect_tokens_(
          std::make_shared<std::atomic<int>>(plan_.max_disconnects)),
      next_index_(std::make_shared<std::atomic<std::uint64_t>>(0)),
      connect_refusals_left_(plan_.connect_failures) {}

Result<std::unique_ptr<Listener>> FaultyTransport::listen(const std::string& address) {
  auto listener = inner_->listen(address);
  if (!listener.is_ok() || !plan_.fault_accepted) return listener;
  return std::unique_ptr<Listener>(
      new FaultyListener(std::move(listener).value(), plan_, stats_,
                         disconnect_tokens_, next_index_));
}

Result<std::unique_ptr<Endpoint>> FaultyTransport::connect(const std::string& address) {
  int left = connect_refusals_left_.load(std::memory_order_acquire);
  while (left > 0) {
    if (connect_refusals_left_.compare_exchange_weak(left, left - 1,
                                                     std::memory_order_acq_rel)) {
      stats_->connects_refused.fetch_add(1, std::memory_order_relaxed);
      notify_fault("connect-refused", address);
      return make_error(ErrorCode::kConnectionError,
                        "fault injection: connection refused");
    }
  }
  auto connected = inner_->connect(address);
  if (!connected.is_ok()) return connected;
  stats_->connects.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t index =
      next_index_->fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Endpoint>(new FaultyEndpoint(
      std::move(connected).value(), plan_, stats_, disconnect_tokens_, index));
}

}  // namespace tdp::net
