#include "attrspace/attr_client.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "attrspace/attr_protocol.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace tdp::attr {

using net::Message;
using net::MsgType;

namespace {
const log::Logger kLog("attr_client");

/// The init is every client's first call, so it always has this seq.
constexpr std::uint64_t kInitSeq = 1;
/// How long a tdp_init waits for its reply before the link counts as dead.
constexpr Micros kJoinTimeoutMicros = 5'000'000;

telemetry::Counter& calls_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("attrclient.calls");
  return c;
}

telemetry::Counter& replays_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("attrclient.replays");
  return c;
}

telemetry::Counter& reconnects_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("attrclient.reconnects");
  return c;
}

telemetry::Counter& busy_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("attrclient.busy_replies");
  return c;
}

// Round-trip latency, sampled only for traced calls (a span active on the
// calling thread); the untraced hot path pays one counter add.
telemetry::Histogram& call_histogram() {
  static telemetry::Histogram& h =
      telemetry::Registry::instance().histogram("attrclient.call_us");
  return h;
}

/// Stamps the caller's trace context onto an outgoing request, so the
/// server (and whoever later reads the value) can join the causal tree.
void stamp_trace(Message& request) {
  const telemetry::SpanContext ctx = telemetry::current_context();
  if (ctx.valid() && !request.has(net::kTraceField)) {
    request.set(net::kTraceField, telemetry::format_context(ctx));
  }
}

Status status_from_reply(const Message& reply) {
  const std::string status = reply.get(field::kStatus);
  if (status == "ok") return Status::ok();
  if (status == "busy") {
    // Backpressure, not failure: the server shed the request and computed
    // how long we should stay away. Encode the hint in the message so a
    // caller that does not retry in-library can still honor it.
    return make_error(ErrorCode::kBusy,
                      "server busy; " + std::string(field::kRetryAfterMs) +
                          "=" + reply.get(field::kRetryAfterMs, "0"));
  }
  const std::string error = reply.get(field::kError, "unknown server error");
  // Preserve NOT_FOUND so callers can distinguish absence from failure.
  ErrorCode code = error.find("NOT_FOUND") != std::string::npos
                       ? ErrorCode::kNotFound
                       : ErrorCode::kInternal;
  return make_error(code, error);
}

/// True when the reply is a served-but-shed backpressure answer.
bool reply_is_busy(const Message& reply) {
  return reply.get(field::kStatus) == "busy";
}

/// The trace context a reply or notify says its value was written under.
telemetry::SpanContext writer_of(const Message& msg) {
  return telemetry::parse_context(msg.get_view(net::kTraceField));
}

/// The status a reply carries, or why there is none.
Status status_of(const Result<Message>& reply) {
  return reply.is_ok() ? status_from_reply(reply.value()) : reply.status();
}

/// The value a get reply carries. `writer`, when given, receives the trace
/// context the value was written under (the reply's trace header).
Result<std::string> value_of(Result<Message> reply, telemetry::SpanContext* writer) {
  if (!reply.is_ok()) return reply.status();
  Status status = status_from_reply(reply.value());
  if (!status.is_ok()) return status;
  if (writer != nullptr) *writer = writer_of(reply.value());
  return reply->get(field::kValue);
}

/// `wait_ms` (<0: unbounded) capped at `cap_ms`.
int capped(int wait_ms, Micros cap_ms) {
  const int cap = static_cast<int>(std::max<Micros>(0, cap_ms));
  return wait_ms < 0 ? cap : std::min(wait_ms, cap);
}

/// Distinct per client instance in this process; combined with a counter
/// it makes batch ids unique across reconnects and client generations.
std::uint64_t make_batch_nonce(const void* self) {
  static std::atomic<std::uint64_t> counter{1};
  return (counter.fetch_add(1, std::memory_order_relaxed) << 20) ^
         (reinterpret_cast<std::uintptr_t>(self) >> 4);
}
}  // namespace

int backoff_delay_ms(const RetryPolicy& policy, int attempt, int server_hint_ms,
                     Rng& jitter) {
  if (server_hint_ms > 0) {
    return server_hint_ms +
           static_cast<int>(jitter.next_below(
               static_cast<std::uint64_t>(server_hint_ms / 2 + 1)));
  }
  // base << (attempt-1) is UB once attempt exceeds the int width; beyond
  // shift 20 the doubled value exceeds any sane max_backoff_ms anyway, so
  // clamping the exponent preserves the curve and removes the UB.
  const int shift = std::clamp(attempt - 1, 0, 20);
  const std::int64_t doubled =
      static_cast<std::int64_t>(std::max(0, policy.base_backoff_ms)) << shift;
  const int backoff = static_cast<int>(
      std::min<std::int64_t>(std::max(0, policy.max_backoff_ms), doubled));
  if (backoff <= 0) return 0;
  // Half deterministic, half jitter, so a herd of daemons retrying against
  // one server spreads out instead of stampeding.
  return backoff / 2 + static_cast<int>(jitter.next_below(
                           static_cast<std::uint64_t>(backoff / 2 + 1)));
}

int retry_after_hint_ms(const Status& status) {
  if (status.code() != ErrorCode::kBusy) return 0;
  const std::string key = std::string(field::kRetryAfterMs) + "=";
  const std::size_t at = status.message().find(key);
  if (at == std::string::npos) return 0;
  return std::atoi(status.message().c_str() + at + key.size());
}

AttrClient::AttrClient(std::unique_ptr<net::Endpoint> endpoint, std::string context,
                       RetryPolicy retry, net::Transport* transport, std::string address)
    : context_(std::move(context)), retry_(retry), transport_(transport),
      address_(std::move(address)), batch_nonce_(make_batch_nonce(this)),
      endpoint_(std::move(endpoint)), link_(endpoint_ ? Link::kJoining : Link::kDown),
      join_deadline_(RealClock::instance().now_micros() + kJoinTimeoutMicros) {
  backoff_rng_.reseed(batch_nonce_);
}

Result<std::unique_ptr<AttrClient>> AttrClient::connect(net::Transport& transport,
                                                        const std::string& address,
                                                        const std::string& context,
                                                        RetryPolicy retry) {
  // With retry, a refused first dial is redialed as a dropped link is.
  auto dialed = transport.connect(address);
  if (!dialed.is_ok() && !retry.enabled) return dialed.status();
  std::unique_ptr<AttrClient> client(
      new AttrClient(dialed.is_ok() ? std::move(dialed).value() : nullptr, context,
                     retry, &transport, address));
  TDP_RETURN_IF_ERROR(client->join());
  return client;
}

Result<std::unique_ptr<AttrClient>> AttrClient::adopt(
    std::unique_ptr<net::Endpoint> endpoint, const std::string& context,
    RetryPolicy retry) {
  std::unique_ptr<AttrClient> client(
      new AttrClient(std::move(endpoint), context, retry));
  TDP_RETURN_IF_ERROR(client->join());
  return client;
}

AttrClient::~AttrClient() {
  // Best effort; exit() is a no-op when already exited or disconnected, and
  // the server also handles abrupt disconnects as implicit exits.
  exit();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
}

Status AttrClient::join() {
  auto seq = start(request(MsgType::kAttrInit));
  if (!seq.is_ok()) return seq.status();
  auto reply = run(seq.value(), -1);  // bounded by the join deadline
  if (reply.is_ok() && reply->type() != MsgType::kAttrInitReply) {
    return make_error(ErrorCode::kInternal, "bad init reply: " + reply->to_string());
  }
  return status_of(reply);
}

Message AttrClient::request(MsgType type) const {
  Message message(type);
  message.set(field::kContext, context_);
  return message;
}

Status AttrClient::put(const std::string& attribute, const std::string& value) {
  Message put = request(MsgType::kAttrPut);
  put.set(field::kAttribute, attribute);
  put.set(field::kValue, value);
  return status_of(call(std::move(put), -1));
}

Status AttrClient::put_batch(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  if (pairs.empty()) return Status::ok();
  Message batch(MsgType::kAttrPutBatch);
  batch.reserve_fields(3 + 2 * pairs.size());
  batch.set(field::kContext, context_);
  batch.set_int(field::kCount, static_cast<std::int64_t>(pairs.size()));
  {
    // Batch id: lets the server recognize a replayed batch (ack lost to a
    // disconnect) and acknowledge without applying twice.
    LockGuard lock(mutex_);
    batch.set(field::kBatchId, std::to_string(batch_nonce_) + "-" +
                                   std::to_string(++batch_counter_));
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    // add() skips the duplicate-key scan; the k<i>/v<i> scheme guarantees
    // uniqueness, keeping batch construction O(N).
    const std::string index = std::to_string(i);
    batch.add(field::kKeyPrefix + index, pairs[i].first);
    batch.add(field::kValPrefix + index, pairs[i].second);
  }
  return status_of(call(std::move(batch), -1));
}

Result<std::string> AttrClient::get(const std::string& attribute, int timeout_ms,
                                    telemetry::SpanContext* writer) {
  Message get = request(MsgType::kAttrGet);
  get.set(field::kAttribute, attribute);
  get.set(field::kBlock, "1");
  return value_of(call(std::move(get), timeout_ms), writer);
}

Result<std::string> AttrClient::try_get(const std::string& attribute) {
  Message get = request(MsgType::kAttrGet);
  get.set(field::kAttribute, attribute);
  get.set(field::kBlock, "0");
  return value_of(call(std::move(get), -1), nullptr);
}

Status AttrClient::remove(const std::string& attribute) {
  Message remove = request(MsgType::kAttrRemove);
  remove.set(field::kAttribute, attribute);
  return status_of(call(std::move(remove), -1));
}

Result<std::vector<std::pair<std::string, std::string>>> AttrClient::list() {
  auto reply = call(request(MsgType::kAttrList), -1);
  if (!reply.is_ok()) return reply.status();
  Status status = status_from_reply(reply.value());
  if (!status.is_ok()) return status;
  std::vector<std::pair<std::string, std::string>> out;
  const std::int64_t count = reply->get_int(field::kCount);
  out.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    out.emplace_back(reply->get(field::kKeyPrefix + std::to_string(i)),
                     reply->get(field::kValPrefix + std::to_string(i)));
  }
  return out;
}

Result<int> AttrClient::async_get(const std::string& attribute,
                                  CompletionCallback callback) {
  Message get = request(MsgType::kAttrAsyncGet);
  get.set(field::kAttribute, attribute);
  return async_call(std::move(get), std::move(callback));
}

Result<int> AttrClient::async_put(const std::string& attribute, const std::string& value,
                                  CompletionCallback callback) {
  Message put = request(MsgType::kAttrPut);
  put.set(field::kAttribute, attribute);
  put.set(field::kValue, value);
  return async_call(std::move(put), std::move(callback));
}

Result<int> AttrClient::async_call(Message message, CompletionCallback callback) {
  stamp_trace(message);
  TDP_RETURN_IF_ERROR(start(std::move(message), std::move(callback)).status());
  return readable_fd();
}

Status AttrClient::subscribe(const std::string& pattern, NotifyCallback callback) {
  Message subscribe = request(MsgType::kAttrSubscribe);
  subscribe.set(field::kPattern, pattern);
  stamp_trace(subscribe);
  auto seq = start(std::move(subscribe), nullptr, std::move(callback));
  if (!seq.is_ok()) return seq.status();
  // Wait (bounded) for the acknowledgement so callers know the
  // subscription is live. The entry is routable from the moment it was
  // registered, so a notify racing the ack is not lost.
  Status status =
      status_of(run(seq.value(), RealClock::instance().now_micros() + 30'000'000));
  if (!status.is_ok()) forget(seq.value());
  return status;
}

Result<Message> AttrClient::call(Message message, int timeout_ms) {
  calls_counter().inc();
  const bool traced = telemetry::current_context().valid();
  const Clock& wall = RealClock::instance();
  const Micros start_us = traced ? telemetry::Tracer::instance().now() : 0;
  const Micros deadline =
      timeout_ms < 0 ? -1 : wall.now_micros() + static_cast<Micros>(timeout_ms) * 1000;
  stamp_trace(message);
  Result<Message> reply = Message();
  for (int busy_attempt = 1;; ++busy_attempt) {
    auto seq = start(std::move(message));
    if (!seq.is_ok()) {
      reply = seq.status();
      break;
    }
    reply = run(seq.value(), deadline);
    const bool busy = reply.is_ok() && reply_is_busy(reply.value());
    const int hint_ms =
        busy ? static_cast<int>(reply->get_int(field::kRetryAfterMs, 0)) : 0;
    int delay_ms = -1;
    {
      LockGuard lock(mutex_);
      // The request leaves the table with its call; a busy retry re-sends it.
      message = std::move(pending_.at(seq.value()).request);
      pending_.erase(seq.value());
      if (busy && retry_.enabled && retry_.honor_retry_after &&
          busy_attempt <= retry_.max_reconnects &&
          (deadline < 0 || wall.now_micros() < deadline)) {
        delay_ms = backoff_delay_ms(retry_, busy_attempt, hint_ms, backoff_rng_);
      }
    }
    if (busy) busy_counter().inc();
    if (delay_ms < 0) break;  // done; a busy reply surfaces as kBusy
    if (deadline >= 0) {
      delay_ms = static_cast<int>(std::min<Micros>(
          delay_ms, std::max<Micros>(0, deadline - wall.now_micros()) / 1000));
    }
    // Wait out the server's retry-after hint with no lock held: other
    // threads keep using the client.
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
  }
  if (traced) {
    call_histogram().record(static_cast<std::uint64_t>(
        std::max<Micros>(0, telemetry::Tracer::instance().now() - start_us)));
  }
  return reply;
}

Result<std::uint64_t> AttrClient::start(Message message, CompletionCallback on_reply,
                                        NotifyCallback on_notify) {
  UniqueLock lock(mutex_);
  if (link_ == Link::kDown && !can_redial_locked()) return link_error_;
  const std::uint64_t seq = ++seq_;
  message.set_seq(seq);
  Call& call = pending_[seq];
  call.request = std::move(message);
  call.on_reply = std::move(on_reply);
  call.on_notify = std::move(on_notify);
  if (link_ == Link::kDown || (link_ == Link::kJoining && seq != kInitSeq)) {
    return seq;  // the link sends it once the init is answered
  }
  call.sent_at = RealClock::instance().now_micros();
  // Only its caller drops a synchronous entry, so it is sent in place; an
  // async one may complete, and go, while it is still being sent.
  const Message copy = call.on_reply ? call.request : Message();
  const Message& out = call.on_reply ? copy : call.request;
  const std::shared_ptr<net::Endpoint> endpoint = endpoint_;
  lock.unlock();
  transmit(endpoint, out);
  return seq;
}

void AttrClient::forget(std::uint64_t seq) {
  LockGuard lock(mutex_);
  pending_.erase(seq);
}

Result<Message> AttrClient::run(std::uint64_t seq, Micros deadline) {
  const Clock& wall = RealClock::instance();
  // service_events() runs what its own reads queue; a caller waiting on a
  // reply wakes the poll set for every callback its reads queue.
  const bool servicing = seq == 0;
  Result<Message> result = Message();
  UniqueLock lock(mutex_);
  while (true) {
    const Micros now = wall.now_micros();
    if (seq != 0) {
      Call& call = pending_.at(seq);
      if (call.reply) {
        result = std::move(*call.reply);
        // Answered. A TCP endpoint may hold more frames in its buffer,
        // where no poll sees them: drain them if anyone polls.
        if (event_fd_ < 0) return result;
        seq = 0;
        continue;
      }
      if (deadline >= 0 && now >= deadline) {
        const std::string what = net::msg_type_name(call.request.type());
        return make_error(ErrorCode::kTimeout, what + " timed out");
      }
    }
    if (link_ == Link::kJoining && now >= join_deadline_) {
      fail_link_locked(endpoint_, make_error(ErrorCode::kTimeout, "AttrInit timed out"));
    }
    if (link_ == Link::kDown) {
      if (seq == 0 && !servicing) return result;  // a drain after a reply never redials
      if (!can_redial_locked()) {
        redials_ = 0;  // the next call or service_events() dials afresh
        return seq == 0 ? result : Result<Message>(link_error_);
      }
    }
    if (reading_) {
      if (seq == 0) return result;  // the reading thread drains for us
      if (deadline < 0) {
        reader_done_.wait(lock);
      } else {
        reader_done_.wait_for(lock, std::chrono::microseconds(deadline - now));
      }
      continue;
    }
    reading_ = true;  // this thread reads for every caller until its turn ends

    if (link_ == Link::kDown) {
      const int backoff = backoff_delay_ms(retry_, ++redials_, 0, backoff_rng_);
      lock.unlock();
      if (backoff > 0) std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      auto dialed = transport_->connect(address_);
      std::shared_ptr<net::Endpoint> fresh =
          dialed.is_ok() ? std::move(dialed).value() : nullptr;
      lock.lock();
      reading_ = false;
      if (fresh) {
        // The fresh link carries the init first; everything else still
        // outstanding, the subscriptions included, follows its reply.
        std::swap(fresh, endpoint_);
        ++link_gen_;
        link_ = Link::kJoining;
        join_deadline_ = wall.now_micros() + kJoinTimeoutMicros;
        rejoining_ = pending_.at(kInitSeq).reply.has_value();  // not the first dial
        for (auto& [entry_seq, entry] : pending_) {
          if (entry_seq == kInitSeq || entry.on_notify) entry.reply.reset();
          if (!entry.reply) entry.sent_at = 0;
        }
      } else {
        link_error_ = dialed.status();
      }
      reader_done_.notify_all();
      lock.unlock();
      fresh.reset();  // the dead endpoint goes with no lock held
      watch();
      lock.lock();
      continue;
    }

    // The one replay rule, under retry: send every entry this link has not
    // carried yet (on a joining link only the init) and every entry whose
    // reply is overdue, each under its own seq.
    std::vector<Message> out;
    int replayed = 0;
    const bool rearm = link_ == Link::kUp && std::exchange(rejoining_, false);
    int wait = seq == 0 ? 0 : -1;
    if (seq != 0 && deadline >= 0) wait = static_cast<int>((deadline - now) / 1000 + 1);
    if (retry_.enabled) {
      const Micros attempt = static_cast<Micros>(retry_.attempt_timeout_ms) * 1000;
      const Micros overdue =
          attempt > 0 ? now - attempt : std::numeric_limits<Micros>::min();  // never
      for (auto& [entry_seq, entry] : pending_) {
        if (entry.reply || (link_ == Link::kJoining && entry_seq != kInitSeq) ||
            (entry.sent_at != 0 && entry.sent_at > overdue)) {
          continue;
        }
        if (entry.sent_at != 0) ++replayed;
        entry.sent_at = now;
        out.push_back(entry.request);
      }
      if (retry_.attempt_timeout_ms > 0) wait = capped(wait, retry_.attempt_timeout_ms);
    }
    if (link_ == Link::kJoining) wait = capped(wait, (join_deadline_ - now) / 1000 + 1);
    const std::shared_ptr<net::Endpoint> endpoint = endpoint_;
    lock.unlock();
    if (replayed > 0) {
      replays_.fetch_add(replayed, std::memory_order_relaxed);
      replays_counter().add(static_cast<std::uint64_t>(replayed));
    }
    bool sent = true;
    for (const Message& message : out) {
      if (!(sent = transmit(endpoint, message))) break;
    }
    if (rearm && sent) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      reconnects_counter().inc();
      kLog.info("reconnected to ", endpoint->peer_address(), ", ", out.size(),
                " calls re-sent");
    }
    Result<Message> received = make_error(ErrorCode::kTimeout, "");  // nothing read
    if (sent) received = endpoint->receive(wait);
    lock.lock();
    reading_ = false;
    if (received.is_ok()) {
      if (received->seq() != kInitSeq) redials_ = 0;  // the link carries traffic
      route(std::move(received).value());
    } else if (received.status().code() != ErrorCode::kTimeout) {
      fail_link_locked(endpoint, received.status());
    }
    reader_done_.notify_all();
    if (!servicing && event_fd_ >= 0 && !ready_signalled_ && !ready_.empty()) {
      ready_signalled_ = true;
      const int fd = event_fd_;
      lock.unlock();
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
      lock.lock();
    }
    if (seq == 0 && !received.is_ok()) return result;
  }
}

void AttrClient::route(Message msg) {
  auto it = pending_.find(msg.seq());
  if (it != pending_.end()) {
    Call& call = it->second;
    const bool notify = msg.type() == MsgType::kAttrNotify;
    // A notify or async completion carries the writer's trace header; its
    // callback runs under that ambient context so work it triggers joins
    // the writer's causal tree.
    if (notify && call.on_notify) {
      ready_.push_back([callback = call.on_notify, attribute = msg.get(field::kAttribute),
                        value = msg.get(field::kValue), trace = writer_of(msg)] {
        telemetry::ScopedAmbient ambient(trace);
        callback(attribute, value);
      });
      return;
    }
    if (!notify && call.on_reply) {
      ready_.push_back([callback = std::move(call.on_reply),
                        status = status_from_reply(msg),
                        attribute = call.request.get(field::kAttribute),
                        value = msg.get(field::kValue), trace = writer_of(msg)] {
        telemetry::ScopedAmbient ambient(trace);
        callback(status, attribute, value);
      });
      pending_.erase(it);
      return;
    }
    if (!notify && !call.reply) {  // a replay's second answer finds it answered
      if (it->first == kInitSeq && link_ == Link::kJoining) link_ = Link::kUp;
      call.reply = std::move(msg);
      return;
    }
  }
  kLog.warn("dropping unexpected message ", msg.to_string());
}

bool AttrClient::transmit(const std::shared_ptr<net::Endpoint>& endpoint,
                          const Message& message) {
  Status sent = endpoint->send(message);
  if (sent.is_ok()) return true;
  LockGuard lock(mutex_);
  fail_link_locked(endpoint, std::move(sent));
  return false;
}

void AttrClient::fail_link_locked(const std::shared_ptr<net::Endpoint>& endpoint,
                                  Status why) {
  if (endpoint != endpoint_ || link_ == Link::kDown) return;  // stale, or known
  link_ = Link::kDown;
  link_error_ = std::move(why);
  reader_done_.notify_all();
}

bool AttrClient::can_redial_locked() const {
  return retry_.enabled && transport_ != nullptr && !exited_ &&
         redials_ < retry_.max_reconnects;
}

int AttrClient::service_events() {
  run(0, 0);  // drains what has arrived; redials a dropped link if it may
  std::deque<std::function<void()>> to_run;
  int signalled = -1;
  {
    LockGuard lock(mutex_);
    to_run.swap(ready_);
    if (std::exchange(ready_signalled_, false)) signalled = event_fd_;
  }
  if (signalled >= 0) {
    // Takes back the unit a blocking call added. The read blocks only in
    // the instant between that call raising the flag and writing the unit.
    std::uint64_t unit = 0;
    [[maybe_unused]] const ssize_t n = ::read(signalled, &unit, sizeof(unit));
  }
  // Callbacks run outside the lock, on the caller's thread — the paper's
  // "well-known and (presumably) safe point".
  mutex_.assert_not_held();
  int dispatched = 0;
  for (auto& callback : to_run) {
    callback();
    ++dispatched;
  }
  return dispatched;
}

int AttrClient::readable_fd() const {
  int fd = -1;
  {
    LockGuard lock(mutex_);
    if (epoll_fd_ < 0) {
      epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
      ready_signalled_ = !ready_.empty();
      event_fd_ = ::eventfd(ready_signalled_ ? 1 : 0, EFD_SEMAPHORE | EFD_CLOEXEC);
      epoll_event event{EPOLLIN, {.fd = event_fd_}};
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &event);
    }
    fd = epoll_fd_;
  }
  watch();
  return fd;
}

void AttrClient::watch() const {
  std::shared_ptr<net::Endpoint> endpoint;
  std::uint64_t gen = 0;
  {
    LockGuard lock(mutex_);
    if (epoll_fd_ < 0 || watched_gen_ == link_gen_) return;
    endpoint = endpoint_;
    gen = link_gen_;
  }
  // Outside the lock: an in-process endpoint makes its descriptor under
  // its queue's own lock.
  const int fd = endpoint->readable_fd();
  LockGuard lock(mutex_);
  if (gen != link_gen_) return;  // the redial's own watch() takes the newer one
  if (watched_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, watched_fd_, nullptr);
  epoll_event event{EPOLLIN, {.fd = fd}};
  if (fd >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  watched_fd_ = fd;
  watched_gen_ = gen;
}

Status AttrClient::exit() {
  {
    LockGuard lock(mutex_);
    if (exited_) return Status::ok();
    exited_ = true;  // no redial from here on
  }
  // Await the ack (with a bound) so the server-side refcount is settled
  // before we tear the connection down.
  auto seq = start(request(MsgType::kAttrExit));
  if (seq.is_ok()) {
    (void)run(seq.value(), RealClock::instance().now_micros() + 2'000'000);
    forget(seq.value());
  }
  abandon();
  return Status::ok();
}

void AttrClient::abandon() {
  std::shared_ptr<net::Endpoint> endpoint;
  {
    LockGuard lock(mutex_);
    exited_ = true;
    endpoint = endpoint_;
  }
  if (endpoint) endpoint->close();
}

bool AttrClient::connected() const {
  std::shared_ptr<net::Endpoint> endpoint;
  {
    LockGuard lock(mutex_);
    if (exited_ || link_ == Link::kDown) return false;
    endpoint = endpoint_;
  }
  return endpoint->is_open();
}

}  // namespace tdp::attr
