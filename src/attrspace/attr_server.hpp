// attr_server.hpp - the attribute space server process logic.
//
// One class serves both deployment roles from Figure 2:
//   * LASS - "Each host on which an application process (and tool daemon)
//     runs has a local instance of the attribute space server", started by
//     the RM on the execution host;
//   * CASS - "a central attribute space server process on the host running
//     the tool front-end", started by the RM front-end.
//
// The server parks blocking gets until a matching put arrives (this is what
// lets paradynd block in tdp_get("pid") until the starter's tdp_put, per
// Figure 6 step 3), maintains persistent subscriptions for asynchronous
// notification, and reference counts contexts across client connections,
// treating an unexpected disconnect as an implicit tdp_exit (crash
// cleanup — part of the paper's fault-detection requirement).
//
// Threading model: one I/O thread drives a Reactor that multiplexes the
// listener plus every client endpoint (Section 3.3's "central polling
// loop"), so the server's thread count is constant no matter how many
// daemons connect. Requests are parsed zero-copy into a per-connection
// MessageView and handled inline on the I/O thread. The one exception is
// the owner endpoint (connect_local): the RM that started this server
// sends on it, and each request is handled inline on the sending thread,
// so the RM's round trips never wait for the I/O thread. Parked-get and
// subscription callbacks fire from whichever thread performs the matching
// put.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "attrspace/attr_store.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "util/clock.hpp"
#include "util/flightrec.hpp"
#include "util/sync.hpp"

namespace tdp::attr {

class AttrServer {
 public:
  /// `name` is used for logging only ("LASS@node3", "CASS").
  AttrServer(std::string name, std::shared_ptr<net::Transport> transport);
  ~AttrServer();

  AttrServer(const AttrServer&) = delete;
  AttrServer& operator=(const AttrServer&) = delete;

  /// Binds and starts the I/O thread. Returns the concrete bound address
  /// clients should use.
  Result<std::string> start(const std::string& listen_address);

  /// Stops serving, closes all client connections (owner endpoints
  /// included), joins the I/O thread.
  void stop();

  /// The owner's endpoint: a connection for the process that runs this
  /// server, with no transport and no I/O thread in between. Each request
  /// sent on it is handled on the sending thread by the same dispatch code
  /// as a socket request (trace headers, dispatch spans, refcounts, parked
  /// gets); replies, parked-get completions and notifies queue for
  /// receive(), and readable_fd() mirrors that queue level-triggered.
  /// Closing it (or stop()) is an implicit tdp_exit, and a send after that
  /// fails with kConnectionError.
  ///
  /// Sends on the endpoint are serialized by its own lock, so several
  /// threads may share it; stop() must not race one in flight. A put sent
  /// here fires store callbacks on the sending thread, under that lock.
  std::unique_ptr<net::Endpoint> connect_local();

  [[nodiscard]] std::string address() const { return address_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Direct access to the store, e.g. for tests and for an RM embedding
  /// the LASS in-process.
  AttributeStore& store() noexcept { return store_; }

  /// Number of transport connections accepted so far (owner endpoints do
  /// not count).
  [[nodiscard]] std::size_t connections_served() const {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Batches applied / acknowledged-without-applying because their batch id
  /// was already seen (a client replayed after losing the ack). Tests use
  /// these to assert exactly-once batch application under retry.
  [[nodiscard]] std::size_t batches_applied() const {
    return batches_applied_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t batches_deduped() const {
    return batches_deduped_.load(std::memory_order_relaxed);
  }

  /// Attaches the server's flight recorder (PR 9): start/stop, accepted
  /// connections and teardowns land in the ring. Set before start();
  /// recorded into on the I/O thread with no server lock held.
  void set_recorder(std::shared_ptr<flightrec::Recorder> recorder) {
    recorder_ = std::move(recorder);
  }

  // --- write admission (PR 10 front door) ---

  /// Token-bucket admission over writes (kAttrPut / kAttrPutBatch). An
  /// over-rate request is answered status="busy" with a server-computed
  /// retry_after_ms hint instead of being applied — explicit backpressure
  /// in place of unbounded queueing. Reads are never shed (a monitoring
  /// get must keep working exactly when the server is overloaded).
  struct AdmissionConfig {
    bool enabled = false;
    double puts_per_sec = 1000.0;  ///< sustained refill rate
    double burst = 100.0;          ///< bucket capacity (tokens)
    int min_retry_after_ms = 1;    ///< hint floor
    /// Clock tokens refill against (virtual in sim/chaos runs).
    const Clock* clock = &RealClock::instance();
  };

  /// Installs the write-admission policy. Call before start() and before
  /// connect_local(): the policy is read without a lock afterwards.
  void set_admission(AdmissionConfig admission) {
    admission_ = admission;
    LockGuard lock(admission_mutex_);
    admission_tokens_ = admission.burst;
  }

  /// Writes answered with status="busy" so far.
  [[nodiscard]] std::size_t busy_replies() const {
    return busy_replies_.load(std::memory_order_relaxed);
  }

 private:
  class OwnerEndpoint;

  /// Per-connection state, touched only where the connection's requests
  /// are dispatched: on the I/O thread for an accepted connection, inside
  /// the owner's (serialized) sends for an owner endpoint. Destroyed on
  /// disconnect or stop().
  struct Connection {
    std::shared_ptr<net::Endpoint> endpoint;
    std::vector<std::uint64_t> watcher_ids;    ///< waiters/subscriptions owned here
    std::vector<std::string> opened_contexts;  ///< for implicit-exit crash cleanup
    net::MessageView view;                     ///< reused across receives
    /// Subscribe-request seq -> watcher id, so a replayed subscribe (the
    /// client lost the ack) re-acks instead of double-registering.
    std::map<std::uint64_t, std::uint64_t> subs_by_seq;
  };

  /// Remembers `batch_id` in the bounded recent-batch window; returns false
  /// when it was already present (replay).
  bool remember_batch(const std::string& batch_id) TDP_EXCLUDES(admission_mutex_);

  void on_acceptable();
  void on_readable(int fd);
  /// Dispatches one request of `conn`. Runs on the I/O thread and on
  /// owner threads at once; only the dedup window and the admission bucket
  /// are shared between them, under admission_mutex_.
  void handle_message(const net::MessageView& msg, Connection& conn);
  /// Refills the admission bucket and takes one token. Returns 0 when the
  /// write is admitted, else the retry-after hint (ms) for the busy reply.
  int admit_write() TDP_EXCLUDES(admission_mutex_);
  /// Cancels watchers, applies implicit exits, closes the endpoint.
  void teardown(Connection& conn);
  /// Tears down an owner endpoint's connection unless stop() already did.
  void close_owner(const std::shared_ptr<Connection>& conn) TDP_EXCLUDES(conns_mutex_);

  std::string name_;
  std::shared_ptr<net::Transport> transport_;
  std::unique_ptr<net::Listener> listener_;
  std::string address_;
  AttributeStore store_;

  net::Reactor reactor_;
  std::thread io_thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> connections_{0};
  std::atomic<std::size_t> batches_applied_{0};
  std::atomic<std::size_t> batches_deduped_{0};
  std::atomic<std::size_t> busy_replies_{0};
  static constexpr std::size_t kBatchWindow = 1024;

  std::shared_ptr<flightrec::Recorder> recorder_;
  /// Write-admission policy; set before start(), read-only afterwards.
  AdmissionConfig admission_;

  /// Leaf lock over the write path's server-wide state, which the I/O
  /// thread and owner threads share: held only to read and update it,
  /// never across a store call, a send or a clock read.
  Mutex admission_mutex_{"AttrServer::admission_mutex_"};
  /// Recently applied batch ids (bounded FIFO window). The window must
  /// exceed any plausible number of batches in flight between a client's
  /// send and its retry, not the lifetime batch count — 1024 is orders of
  /// magnitude beyond that.
  std::unordered_set<std::string> recent_batch_ids_ TDP_GUARDED_BY(admission_mutex_);
  std::deque<std::string> recent_batch_order_ TDP_GUARDED_BY(admission_mutex_);
  /// The admission bucket.
  double admission_tokens_ TDP_GUARDED_BY(admission_mutex_) = 0.0;
  Micros admission_refill_at_ TDP_GUARDED_BY(admission_mutex_) = 0;

  /// The I/O thread mutates the accepted-connection table and
  /// connect_local() the owner list; stop() (any thread) drains both.
  Mutex conns_mutex_{"AttrServer::conns_mutex_"};
  std::map<int, std::shared_ptr<Connection>> conns_ TDP_GUARDED_BY(conns_mutex_);
  std::vector<std::shared_ptr<Connection>> owners_ TDP_GUARDED_BY(conns_mutex_);
};

}  // namespace tdp::attr
