// attr_client.hpp - client side of the attribute space.
//
// This class implements the communication model of Sections 3.2 and 3.3:
//
//   * tdp_put / tdp_get       -> put() / get() (blocking forms);
//                                try_get() is the documented error-if-absent
//                                variant ("an error is returned if the
//                                attribute is not contained in the space").
//   * tdp_async_get/put       -> async_get() / async_put(); both "return
//                                immediately ... the callback function will
//                                be executed when the operation completes".
//   * tdp_service_event       -> service_events(); callbacks are only ever
//                                invoked from inside service_events() on the
//                                caller's own thread — never from signals
//                                or hidden threads, which is exactly the
//                                paper's design rationale.
//   * the "tdp_fd"            -> readable_fd(); readable exactly when
//                                service_events() has work, so a poll-based
//                                daemon loop never sleeps on queued events.
//
// Thread safety: all public methods are safe to call concurrently; the
// paper requires the library to be usable from serial and multi-threaded
// daemons alike. Calls are entries in one table keyed by seq, and no lock
// is held across a send or a receive: one thread at a time reads for all.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace tdp::telemetry {
struct SpanContext;
}  // namespace tdp::telemetry

namespace tdp::attr {

/// Completion callback: (status, attribute, value). For puts, `value` is
/// the value that was stored.
using CompletionCallback =
    std::function<void(const Status&, const std::string&, const std::string&)>;

/// Notification callback for subscriptions: (attribute, value).
using NotifyCallback = std::function<void(const std::string&, const std::string&)>;

/// Failure-recovery policy (disabled by default: a clean transport never
/// needs it, and tests of failure semantics want the raw behaviour).
///
/// With `enabled`:
///   * kConnectionError on any round trip redials the server (exponential
///     backoff with jitter, at most `max_reconnects` consecutive tries),
///     re-runs the tdp_init handshake, then re-sends every outstanding
///     call and subscription;
///   * a reply not arriving within `attempt_timeout_ms` re-sends the
///     request (recovers from a dropped frame). Both replay a request under
///     its own seq. Replay is safe: puts overwrite idempotently, and the
///     server deduplicates batches by batch id and subscribes by seq.
/// Caller-supplied deadlines (e.g. get(timeout_ms)) still bound the whole
/// operation; retry never extends them.
struct RetryPolicy {
  bool enabled = false;
  int max_reconnects = 5;         ///< consecutive redials before giving up
  int attempt_timeout_ms = 1000;  ///< reply wait before an idempotent replay
  int base_backoff_ms = 5;        ///< first backoff; doubles per attempt
  int max_backoff_ms = 200;       ///< backoff ceiling
  /// Honor a server's status="busy" retry-after hint by waiting it out
  /// (plus jitter) and retrying, up to max_reconnects attempts. Off: the
  /// busy reply surfaces immediately as ErrorCode::kBusy.
  bool honor_retry_after = true;
};

/// Backoff before retry `attempt` (1-based). With a positive server hint
/// (a busy reply's retry_after_ms) the delay is the hint plus up to half
/// the hint again of jitter — the server paces the herd, the jitter
/// desynchronizes it. Without a hint: exponential from base_backoff_ms,
/// doubling per attempt with the exponent clamped so a huge attempt count
/// cannot shift past the integer width (UB), capped at max_backoff_ms and
/// half-jittered ("half deterministic, half jitter").
int backoff_delay_ms(const RetryPolicy& policy, int attempt, int server_hint_ms,
                     Rng& jitter);

/// Parses the retry-after hint out of a kBusy Status produced by
/// status_from_reply (message carries "retry_after_ms=<n>"); 0 if absent.
int retry_after_hint_ms(const Status& status);

class AttrClient {
 public:
  /// Connects to an attribute server and joins `context` (the tdp_init
  /// handshake). The context is reference counted server-side. With an
  /// enabled `retry` policy the initial dial also retries, and `transport`
  /// must outlive the client (it is kept for reconnects).
  static Result<std::unique_ptr<AttrClient>> connect(net::Transport& transport,
                                                     const std::string& address,
                                                     const std::string& context,
                                                     RetryPolicy retry = {});

  /// Adopts an already-established endpoint (used when the connection was
  /// set up through the RM's proxy, Section 2.4). With no dial string,
  /// `retry` re-sends lost frames, the init's too, but never redials.
  static Result<std::unique_ptr<AttrClient>> adopt(
      std::unique_ptr<net::Endpoint> endpoint, const std::string& context,
      RetryPolicy retry = {});

  ~AttrClient();

  AttrClient(const AttrClient&) = delete;
  AttrClient& operator=(const AttrClient&) = delete;

  // --- blocking operations (Section 3.2) ---

  /// Stores (attribute, value); blocks until the server acknowledges.
  Status put(const std::string& attribute, const std::string& value);

  /// Stores all (attribute, value) pairs in one round trip (one request,
  /// one ack), the batched form daemons use to publish N related
  /// attributes — e.g. paradynd reporting a whole metric sample batch —
  /// without paying N network round trips.
  Status put_batch(const std::vector<std::pair<std::string, std::string>>& pairs);

  /// Blocking get: waits until the attribute is present (parked server
  /// side), subject to `timeout_ms` (<0 = wait forever). `writer`, when
  /// given, receives the trace context the value was written under; the
  /// thread's ambient context is left as it was.
  Result<std::string> get(const std::string& attribute, int timeout_ms = -1,
                          telemetry::SpanContext* writer = nullptr);

  /// Non-waiting get: kNotFound when the attribute is absent.
  Result<std::string> try_get(const std::string& attribute);

  /// Removes an attribute.
  Status remove(const std::string& attribute);

  /// Lists all (attribute, value) pairs in this context.
  Result<std::vector<std::pair<std::string, std::string>>> list();

  // --- asynchronous operations (Sections 3.2-3.3) ---

  /// Requests the attribute; returns immediately. The callback fires from
  /// a later service_events() call. Returns the descriptor to poll (the
  /// paper's "tdp_fd").
  Result<int> async_get(const std::string& attribute, CompletionCallback callback);

  /// Stores the attribute asynchronously; callback on acknowledgement.
  Result<int> async_put(const std::string& attribute, const std::string& value,
                        CompletionCallback callback);

  /// Registers for notification on every put matching `pattern` (exact
  /// name or trailing-'*' prefix). Notifications dispatch from
  /// service_events().
  Status subscribe(const std::string& pattern, NotifyCallback callback);

  /// Drains pending traffic without blocking and invokes all completed
  /// callbacks on the calling thread. Returns the number dispatched.
  int service_events();

  /// Descriptor that polls readable when service_events() has work; made
  /// on the first call and stable across reconnects.
  [[nodiscard]] int readable_fd() const;

  // --- failure recovery ---

  /// Successful redial+rejoin cycles performed so far.
  [[nodiscard]] int reconnects() const noexcept {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Requests re-sent after a lost frame (timeout replay).
  [[nodiscard]] int replays() const noexcept {
    return replays_.load(std::memory_order_relaxed);
  }

  // --- lifecycle ---

  /// tdp_exit: leaves the context (destroyed server-side when the last
  /// participant exits) and closes the connection.
  Status exit();

  /// Simulates daemon death: drops the connection without the tdp_exit
  /// protocol, exactly as a crashed process would. The server learns about
  /// it only through the broken transport (or a missed lease heartbeat).
  void abandon();

  [[nodiscard]] const std::string& context() const noexcept { return context_; }
  [[nodiscard]] bool connected() const;

 private:
  /// One call, keyed by its seq. The init and the subscriptions stay for
  /// the client's life: a redial re-sends them, and notifies route by seq.
  struct Call {
    net::Message request;         ///< re-sent unchanged, under its own seq
    CompletionCallback on_reply;  ///< async calls: queued when the reply routes
    NotifyCallback on_notify;     ///< subscriptions: queued per notify
    std::optional<net::Message> reply;  ///< the answer its caller takes
    Micros sent_at = 0;  ///< last send on the current link; 0 = not sent yet
  };

  /// kJoining: a new endpoint carries only the init until its reply.
  /// kDown: the endpoint failed; the next reader redials if it may.
  enum class Link { kUp, kJoining, kDown };

  /// A null `endpoint` is a link down from the start: the first read
  /// redials `address` over `transport`, as for any dropped link.
  AttrClient(std::unique_ptr<net::Endpoint> endpoint, std::string context,
             RetryPolicy retry, net::Transport* transport = nullptr,
             std::string address = {});

  /// The tdp_init round trip; the init is the client's first call.
  Status join();

  /// A request of `type` in this client's context.
  [[nodiscard]] net::Message request(net::MsgType type) const;

  /// One synchronous request/reply, with the busy retry-after path.
  Result<net::Message> call(net::Message message, int timeout_ms);

  Result<int> async_call(net::Message message, CompletionCallback callback);

  /// Registers a call under a fresh seq and sends it if the link is up;
  /// fails at once when the link is down for good.
  Result<std::uint64_t> start(net::Message message, CompletionCallback on_reply = nullptr,
                              NotifyCallback on_notify = nullptr);

  /// The one receive loop. Reads for every caller until entry `seq` has
  /// its reply or `deadline` (<0: none) passes, redialing and re-sending
  /// as the retry policy allows, then drains the endpoint if anyone polls.
  /// seq 0 only drains, and returns at once if another thread reads.
  Result<net::Message> run(std::uint64_t seq, Micros deadline);

  /// Drops a finished (or abandoned) call from the table.
  void forget(std::uint64_t seq);

  /// Routes one inbound message to its entry: a reply completes it, a
  /// notify or an async completion queues a callback.
  void route(net::Message msg) TDP_REQUIRES(mutex_);

  /// Sends `message` on `ep`; a failed send takes that link down.
  bool transmit(const std::shared_ptr<net::Endpoint>& ep, const net::Message& message);
  void fail_link_locked(const std::shared_ptr<net::Endpoint>& ep, Status why)
      TDP_REQUIRES(mutex_);

  /// True when the link is down and the policy allows another redial.
  [[nodiscard]] bool can_redial_locked() const TDP_REQUIRES(mutex_);

  /// Points the poll set at the current endpoint's descriptor, once the
  /// set exists: after readable_fd() makes it and after every redial.
  void watch() const;

  std::string context_;
  const RetryPolicy retry_;
  /// Dial info for redials; null/empty when built via adopt().
  net::Transport* const transport_;
  const std::string address_;

  std::atomic<int> reconnects_{0};
  std::atomic<int> replays_{0};
  std::uint64_t batch_nonce_ = 0;  ///< set once in the ctor, immutable after
  CondVar reader_done_;  ///< a read turn ended, or the link changed

  mutable Mutex mutex_{"AttrClient::mutex_"};
  std::shared_ptr<net::Endpoint> endpoint_ TDP_GUARDED_BY(mutex_);
  Link link_ TDP_GUARDED_BY(mutex_);
  Status link_error_ TDP_GUARDED_BY(mutex_) =  ///< why the link went down
      make_error(ErrorCode::kConnectionError, "not connected");
  std::uint64_t link_gen_ TDP_GUARDED_BY(mutex_) = 1;  ///< +1 per redialed endpoint
  Micros join_deadline_ TDP_GUARDED_BY(mutex_);  ///< kJoining gives up here
  bool rejoining_ TDP_GUARDED_BY(mutex_) = false;  ///< redialed, not yet re-sent
  int redials_ TDP_GUARDED_BY(mutex_) = 0;  ///< since the link last carried traffic
  bool reading_ TDP_GUARDED_BY(mutex_) = false;  ///< some thread is in a read turn
  bool exited_ TDP_GUARDED_BY(mutex_) = false;
  /// Jitter source for reconnect backoff; reseeded per client.
  Rng backoff_rng_ TDP_GUARDED_BY(mutex_){0x7d9fau};
  std::uint64_t batch_counter_ TDP_GUARDED_BY(mutex_) = 0;
  std::uint64_t seq_ TDP_GUARDED_BY(mutex_) = 0;
  std::map<std::uint64_t, Call> pending_ TDP_GUARDED_BY(mutex_);
  /// Callbacks ready to run at the next service_events().
  std::deque<std::function<void()>> ready_ TDP_GUARDED_BY(mutex_);
  /// The poll set behind readable_fd() (-1 until first asked for): the
  /// endpoint's descriptor plus an eventfd that counts 1 while `ready_`
  /// holds callbacks a blocking call queued.
  mutable int epoll_fd_ TDP_GUARDED_BY(mutex_) = -1;
  mutable int event_fd_ TDP_GUARDED_BY(mutex_) = -1;
  mutable bool ready_signalled_ TDP_GUARDED_BY(mutex_) = false;
  mutable int watched_fd_ TDP_GUARDED_BY(mutex_) = -1;
  mutable std::uint64_t watched_gen_ TDP_GUARDED_BY(mutex_) = 0;
};

}  // namespace tdp::attr
