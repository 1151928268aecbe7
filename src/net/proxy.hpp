// proxy.hpp - RM-provided connection proxy for private networks.
//
// Section 2.4: when the execution hosts sit behind a firewall/NAT, the RT
// daemon cannot connect straight to its front-end; "the host/port number
// will be that of the RM's proxy, which will be responsible for
// establishing the connection and forwarding inbound and outbound
// messages." TDP "does not require a new proxy facility ... it merely
// leverages existing ones and provides a standard interface to such a
// facility."
//
// We model both halves of that sentence:
//   * FirewalledTransport - wraps any Transport with an allow/deny policy,
//     simulating the private network: blocked direct dials fail with
//     kPermissionDenied so the proxy path is genuinely exercised.
//   * ProxyServer - the RM-owned relay: clients connect to the proxy's
//     address, name a registered logical service ("paradyn-frontend",
//     "cass", "app-stdio"), and the proxy splices the two endpoints,
//     relaying messages verbatim in both directions.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "util/clock.hpp"
#include "util/flightrec.hpp"
#include "util/sync.hpp"

namespace tdp::net {

/// Policy wrapper: connect() consults `allow` before dialing.
class FirewalledTransport final : public Transport {
 public:
  using Policy = std::function<bool(const std::string& address)>;

  /// `allow` returns true when a direct connection to `address` is
  /// permitted. Listening is always local and therefore unrestricted.
  FirewalledTransport(std::shared_ptr<Transport> inner, Policy allow)
      : inner_(std::move(inner)), allow_(std::move(allow)) {}

  Result<std::unique_ptr<Listener>> listen(const std::string& address) override {
    return inner_->listen(address);
  }

  Result<std::unique_ptr<Endpoint>> connect(const std::string& address) override {
    if (allow_ && !allow_(address)) {
      return make_error(ErrorCode::kPermissionDenied,
                        "firewall blocks direct connection to " + address);
    }
    return inner_->connect(address);
  }

 private:
  std::shared_ptr<Transport> inner_;
  Policy allow_;
};

/// Recovery policy for a tunnel whose upstream (broker) link fails while
/// the client side is still healthy: the proxy redials the registered
/// target and splices the surviving client onto the fresh connection.
/// Messages in flight on the dead link are lost; end-to-end retry (e.g.
/// AttrClient's RetryPolicy) recovers them — the proxy only guarantees the
/// path comes back.
struct RelinkPolicy {
  bool enabled = false;
  int max_relinks = 3;  ///< redials per tunnel before giving up
  int backoff_ms = 20;  ///< pause before each redial (doubles per attempt)
};

/// The RM's message relay. One ProxyServer serves many logical services.
///
/// Lifecycle: construct, register_service() for each reachable target,
/// start(), ... , stop(). One I/O thread runs a Reactor over the listener,
/// every connection that still owes its kProxyConnect and both legs of
/// every tunnel, so the proxy costs one thread however many tunnels it
/// carries. Dials and sends block that thread (see DESIGN.md §8).
class ProxyServer {
 public:
  /// `transport` must be able to reach the registered targets (it is the
  /// RM's own unrestricted transport).
  explicit ProxyServer(std::shared_ptr<Transport> transport);
  ~ProxyServer();

  ProxyServer(const ProxyServer&) = delete;
  ProxyServer& operator=(const ProxyServer&) = delete;

  /// Maps a logical service name to a concrete address.
  void register_service(const std::string& name, const std::string& target_address);
  void unregister_service(const std::string& name);

  /// Binds `listen_address` and starts the I/O thread. Returns the
  /// concrete bound address (useful with TCP port 0).
  Result<std::string> start(const std::string& listen_address);

  /// Stops accepting and tears down all active tunnels. Idempotent.
  void stop();

  /// Address clients should dial; empty before start().
  [[nodiscard]] std::string address() const;

  /// Number of tunnels spliced since start (diagnostics).
  [[nodiscard]] std::size_t tunnels_opened() const;

  /// Installs the upstream-recovery policy (applies to tunnels opened
  /// afterwards).
  void set_relink_policy(RelinkPolicy policy);

  /// Upstream links re-established since start (diagnostics/tests).
  [[nodiscard]] std::size_t relinks() const {
    return relinks_.load(std::memory_order_relaxed);
  }

  /// Attaches the proxy's flight recorder (PR 9): tunnel opens and
  /// upstream relinks land in the ring. Set before start(); the recorder's
  /// shard mutex is a strict leaf, safe from the I/O thread.
  void set_recorder(std::shared_ptr<flightrec::Recorder> recorder) {
    recorder_ = std::move(recorder);
  }

 private:
  /// One accepted connection, keyed by its client's readable fd. It owes
  /// its kProxyConnect while `target` is empty; after that it is a tunnel
  /// whose `upstream` is null only while a redial is due.
  struct Tunnel {
    std::unique_ptr<Endpoint> client;
    std::unique_ptr<Endpoint> upstream;
    std::string target;  ///< dial string for relinks
    Micros due = 0;      ///< hello deadline or redial time; 0 when none
    int relinks_left = 0;
    int backoff_ms = 0;  ///< pause before the next redial
    std::vector<std::uint8_t> unsent;  ///< burst to re-send on a fresh link
  };

  void on_acceptable();
  void on_hello(int fd);
  void on_client(int fd);
  void on_upstream(int fd);
  /// Drops the dead upstream, then schedules a redial or ends the tunnel.
  void upstream_lost(int fd, Tunnel& tunnel);
  void redial(int fd, Tunnel& tunnel);
  void close_tunnel(int fd);
  /// Moves the tunnel's one timer to `due` (0 cancels it).
  void set_due(int fd, Tunnel& tunnel, Micros due);
  [[nodiscard]] int poll_timeout_ms() const;
  void run_due();

  std::shared_ptr<Transport> transport_;
  std::unique_ptr<Listener> listener_;
  std::string address_;

  mutable Mutex mutex_{"ProxyServer::mutex_"};
  std::map<std::string, std::string> services_ TDP_GUARDED_BY(mutex_);
  RelinkPolicy relink_ TDP_GUARDED_BY(mutex_);

  Reactor reactor_;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> opened_{0};
  std::atomic<std::size_t> relinks_{0};
  std::shared_ptr<flightrec::Recorder> recorder_;

  // The I/O thread's state: stop() takes it over after the join.
  std::map<int, Tunnel> tunnels_;
  std::set<std::pair<Micros, int>> timers_;  ///< (due, client fd)
  std::vector<std::uint8_t> burst_;          ///< relay buffer, kept warm
  std::thread io_thread_;
};

/// Client-side helper implementing the Section 2.4 contract: TDP hands the
/// RT a host/port that is either the real peer or the RM's proxy. This
/// function performs the proxy handshake (kProxyConnect / reply) and
/// returns an endpoint on which the caller immediately speaks its own
/// protocol.
Result<std::unique_ptr<Endpoint>> proxy_connect(Transport& transport,
                                                const std::string& proxy_address,
                                                const std::string& service);

/// Convenience used by TDP core: try direct connect first; on
/// kPermissionDenied (firewall) fall back to the proxy when one is known.
Result<std::unique_ptr<Endpoint>> connect_direct_or_proxied(
    Transport& transport, const std::string& target_address,
    const std::string& proxy_address, const std::string& service);

}  // namespace tdp::net
