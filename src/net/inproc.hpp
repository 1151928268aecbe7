// inproc.hpp - in-process transport: message queues between "daemons"
// living in one OS process. This is the deterministic substrate that lets
// a whole Condor pool plus Paradyn front-end and daemons run inside one
// test binary. Addresses use the scheme "inproc://<name>".
//
// Endpoints still expose a real descriptor (an eventfd, made on the first
// readable_fd() call) so the paper's poll-loop event model (Section 3.3)
// works identically over both transports.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "net/transport.hpp"
#include "util/sync.hpp"

namespace tdp::net {

namespace detail {
template <typename T>
class InProcQueue;
}  // namespace detail

/// Transport whose listeners live in an instance-scoped registry; creating
/// separate InProcTransport objects yields fully isolated "networks".
class InProcTransport final : public Transport,
                              public std::enable_shared_from_this<InProcTransport> {
 public:
  /// Use create(); the registry hands out shared_from_this to listeners.
  static std::shared_ptr<InProcTransport> create();

  Result<std::unique_ptr<Listener>> listen(const std::string& address) override;
  Result<std::unique_ptr<Endpoint>> connect(const std::string& address) override;

  /// Number of currently bound listeners (diagnostics/tests).
  [[nodiscard]] std::size_t listener_count() const;

  /// Removes a closed listener from the registry (called by the listener's
  /// own close(); harmless if already removed).
  void unregister(const std::string& name);

 private:
  InProcTransport() = default;

  mutable Mutex mutex_{"InProcTransport::mutex_"};
  /// Each listener's accept queue, shared with the listener object.
  std::map<std::string, std::shared_ptr<detail::InProcQueue<std::unique_ptr<Endpoint>>>>
      listeners_
      TDP_GUARDED_BY(mutex_);
};

/// True when `address` uses the inproc:// scheme.
bool is_inproc_address(const std::string& address);

/// Two connected in-process endpoints with no listener behind them: what
/// one half sends, the other receives, and closing either half closes the
/// channel. InProcTransport::connect hands out such pairs, and an
/// AttrServer's owner endpoint carries its replies on one.
struct InProcPair {
  std::unique_ptr<Endpoint> client;
  std::unique_ptr<Endpoint> server;
};

/// `client_peer` / `server_peer` are what each half reports as its
/// peer_address().
InProcPair make_inproc_pair(std::string client_peer, std::string server_peer);

}  // namespace tdp::net
