#include "net/proxy.hpp"

#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace tdp::net {

namespace {
const log::Logger kLog("proxy");

/// How long an accepted connection may take to send its kProxyConnect.
constexpr int kHelloTimeoutMs = 5000;

/// The deadline `ms` milliseconds from now.
Micros after_ms(int ms) {
  return RealClock::instance().now_micros() + Micros{ms} * 1000;
}

// Frames relayed in either direction, across all tunnels. The relay moves
// raw frames (send_frame/receive_frames) without decoding, so frames pass
// through byte-identical and the relay never pays a field-table parse.
telemetry::Counter& relayed_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("proxy.frames_relayed");
  return c;
}

// A relayed burst holds whole frames only (receive_frames guarantees it),
// so counting them is a prefix walk, no decode.
std::size_t count_frames(const std::uint8_t* data, std::size_t size) {
  std::size_t frames = 0;
  std::size_t offset = 0;
  while (offset + Message::kLenPrefixSize <= size) {
    offset += Message::kLenPrefixSize + Message::peek_length(data + offset);
    ++frames;
  }
  return frames;
}
}  // namespace

ProxyServer::ProxyServer(std::shared_ptr<Transport> transport)
    : transport_(std::move(transport)) {}

ProxyServer::~ProxyServer() { stop(); }

void ProxyServer::register_service(const std::string& name,
                                   const std::string& target_address) {
  LockGuard lock(mutex_);
  services_[name] = target_address;
}

void ProxyServer::unregister_service(const std::string& name) {
  LockGuard lock(mutex_);
  services_.erase(name);
}

Result<std::string> ProxyServer::start(const std::string& listen_address) {
  auto listener = transport_->listen(listen_address);
  if (!listener.is_ok()) return listener.status();
  listener_ = std::move(listener).value();
  address_ = listener_->address();
  running_.store(true, std::memory_order_release);
  reactor_.add_readable(listener_->readable_fd(), [this] { on_acceptable(); });
  io_thread_ = std::thread([this] {
    while (running_.load(std::memory_order_acquire)) {
      reactor_.run_once(poll_timeout_ms());
      run_due();
    }
  });
  kLog.info("proxy listening on ", address_);
  return address_;
}

void ProxyServer::stop() {
  running_.store(false, std::memory_order_release);
  reactor_.stop();  // wakes the blocked poll so the I/O thread observes running_
  if (io_thread_.joinable()) io_thread_.join();
  // The I/O thread has exited, so its tunnels are this thread's to sever.
  while (!tunnels_.empty()) close_tunnel(tunnels_.begin()->first);
  if (listener_) {
    reactor_.remove(listener_->readable_fd());
    listener_->close();
  }
}

std::string ProxyServer::address() const {
  return address_;
}

std::size_t ProxyServer::tunnels_opened() const {
  return opened_.load(std::memory_order_relaxed);
}

void ProxyServer::set_relink_policy(RelinkPolicy policy) {
  LockGuard lock(mutex_);
  relink_ = policy;
}

void ProxyServer::on_acceptable() {
  while (running_.load(std::memory_order_acquire)) {
    auto accepted = listener_->accept(0);
    if (!accepted.is_ok()) break;  // kTimeout: queue drained
    std::unique_ptr<Endpoint> client = std::move(accepted).value();
    const int fd = client->readable_fd();
    if (fd < 0) {
      client->close();
      continue;
    }
    Tunnel& tunnel = tunnels_[fd];
    tunnel.client = std::move(client);
    set_due(fd, tunnel, after_ms(kHelloTimeoutMs));
    reactor_.add_readable(fd, [this, fd] { on_hello(fd); });
  }
}

void ProxyServer::on_hello(int fd) {
  auto it = tunnels_.find(fd);
  if (it == tunnels_.end()) return;
  Tunnel& tunnel = it->second;
  auto hello = tunnel.client->receive(0);
  if (hello.status().code() == ErrorCode::kTimeout) return;  // not all in yet
  if (!hello.is_ok() || hello->type() != MsgType::kProxyConnect) {
    close_tunnel(fd);
    return;
  }
  set_due(fd, tunnel, 0);
  const std::string service = hello->get("service");
  std::string target;
  {
    LockGuard lock(mutex_);
    auto found = services_.find(service);
    if (found != services_.end()) target = found->second;
    tunnel.relinks_left = relink_.enabled ? relink_.max_relinks : 0;
  }
  Message reply(MsgType::kProxyConnectReply);
  auto dialed = target.empty()
                    ? Result<std::unique_ptr<Endpoint>>(make_error(
                          ErrorCode::kNotFound, "unknown service: " + service))
                    : transport_->connect(target);
  if (!dialed.is_ok()) {
    reply.set("status", "error").set("error", dialed.status().to_string());
    tunnel.client->send(reply);
    close_tunnel(fd);
    return;
  }
  tunnel.upstream = std::move(dialed).value();
  tunnel.target = target;
  reply.set("status", "ok");
  // Count the tunnel before the client can see it open: a client that
  // reads tunnels_opened() right after the ok reply must find it counted.
  opened_.fetch_add(1, std::memory_order_relaxed);
  if (!tunnel.client->send(reply).is_ok()) {
    opened_.fetch_sub(1, std::memory_order_relaxed);
    close_tunnel(fd);
    return;
  }
  kLog.debug("tunnel opened: service=", service, " target=", target);
  if (recorder_) {
    recorder_->state("tunnel-open", "service=" + service + " target=" + target);
  }
  reactor_.add_readable(tunnel.upstream->readable_fd(), [this, fd] { on_upstream(fd); });
  reactor_.add_readable(fd, [this, fd] { on_client(fd); });
  // The hello's read may have pulled frames sent right behind it into the
  // endpoint's own buffer, where no poll sees them: relay them now.
  on_client(fd);
}

void ProxyServer::on_client(int fd) {
  auto it = tunnels_.find(fd);
  if (it == tunnels_.end()) return;
  Tunnel& tunnel = it->second;
  // One call per wake-up: it hands over every complete frame the endpoint
  // holds, and the reactor calls again while the socket stays readable.
  const Status received = tunnel.client->receive_frames(0, &burst_);
  if (received.code() == ErrorCode::kTimeout) return;
  if (!received.is_ok()) {
    close_tunnel(fd);  // client gone: the tunnel is over
    return;
  }
  if (tunnel.upstream->send_frame(burst_.data(), burst_.size()).is_ok()) {
    relayed_counter().add(count_frames(burst_.data(), burst_.size()));
    return;
  }
  tunnel.unsent.swap(burst_);  // the fresh link gets this burst first
  upstream_lost(fd, tunnel);
}

void ProxyServer::on_upstream(int fd) {
  auto it = tunnels_.find(fd);
  if (it == tunnels_.end()) return;
  Tunnel& tunnel = it->second;
  const Status received = tunnel.upstream->receive_frames(0, &burst_);
  if (received.code() == ErrorCode::kTimeout) return;
  if (!received.is_ok()) {
    upstream_lost(fd, tunnel);
    return;
  }
  if (!tunnel.client->send_frame(burst_.data(), burst_.size()).is_ok()) {
    close_tunnel(fd);
    return;
  }
  relayed_counter().add(count_frames(burst_.data(), burst_.size()));
}

void ProxyServer::upstream_lost(int fd, Tunnel& tunnel) {
  reactor_.remove(tunnel.upstream->readable_fd());
  tunnel.upstream.reset();
  if (tunnel.relinks_left <= 0 || !tunnel.client->is_open()) {
    close_tunnel(fd);
    return;
  }
  // Stop reading the client until the redial lands: its bytes wait in its
  // socket, so the relink holds no buffer beyond the one unsent burst.
  reactor_.remove(fd);
  {
    LockGuard lock(mutex_);
    tunnel.backoff_ms = relink_.backoff_ms;
  }
  set_due(fd, tunnel, after_ms(tunnel.backoff_ms));
}

void ProxyServer::redial(int fd, Tunnel& tunnel) {
  --tunnel.relinks_left;
  auto dialed = transport_->connect(tunnel.target);
  if (!dialed.is_ok()) {
    if (tunnel.relinks_left <= 0) {
      close_tunnel(fd);
      return;
    }
    tunnel.backoff_ms *= 2;
    set_due(fd, tunnel, after_ms(tunnel.backoff_ms));
    return;
  }
  tunnel.upstream = std::move(dialed).value();
  relinks_.fetch_add(1, std::memory_order_relaxed);
  kLog.info("tunnel upstream relinked: target=", tunnel.target,
            " relinks_left=", tunnel.relinks_left);
  if (recorder_) {
    recorder_->state("relink", "target=" + tunnel.target + " relinks_left=" +
                                   std::to_string(tunnel.relinks_left));
  }
  reactor_.add_readable(tunnel.upstream->readable_fd(), [this, fd] { on_upstream(fd); });
  if (!tunnel.unsent.empty()) {
    if (!tunnel.upstream->send_frame(tunnel.unsent.data(), tunnel.unsent.size()).is_ok()) {
      upstream_lost(fd, tunnel);
      return;
    }
    relayed_counter().add(count_frames(tunnel.unsent.data(), tunnel.unsent.size()));
    tunnel.unsent.clear();
  }
  reactor_.add_readable(fd, [this, fd] { on_client(fd); });
}

void ProxyServer::close_tunnel(int fd) {
  auto it = tunnels_.find(fd);
  if (it == tunnels_.end()) return;
  Tunnel& tunnel = it->second;
  set_due(fd, tunnel, 0);
  reactor_.remove(fd);
  if (tunnel.upstream) reactor_.remove(tunnel.upstream->readable_fd());
  tunnels_.erase(it);  // destroying an endpoint closes it
}

void ProxyServer::set_due(int fd, Tunnel& tunnel, Micros due) {
  if (tunnel.due != 0) timers_.erase({tunnel.due, fd});
  tunnel.due = due;
  if (due != 0) timers_.emplace(due, fd);
}

int ProxyServer::poll_timeout_ms() const {
  if (timers_.empty()) return -1;
  const Micros wait = timers_.begin()->first - RealClock::instance().now_micros();
  return wait > 0 ? static_cast<int>((wait + 999) / 1000) : 0;
}

void ProxyServer::run_due() {
  while (!timers_.empty() &&
         timers_.begin()->first <= RealClock::instance().now_micros()) {
    const int fd = timers_.begin()->second;
    Tunnel& tunnel = tunnels_.at(fd);
    set_due(fd, tunnel, 0);
    if (tunnel.target.empty()) {
      close_tunnel(fd);  // the hello deadline passed
    } else {
      redial(fd, tunnel);
    }
  }
}

Result<std::unique_ptr<Endpoint>> proxy_connect(Transport& transport,
                                                const std::string& proxy_address,
                                                const std::string& service) {
  auto connected = transport.connect(proxy_address);
  if (!connected.is_ok()) return connected.status();
  std::unique_ptr<Endpoint> endpoint = std::move(connected).value();

  Message hello(MsgType::kProxyConnect);
  hello.set("service", service);
  TDP_RETURN_IF_ERROR(endpoint->send(hello));

  auto reply = endpoint->receive(5000);
  if (!reply.is_ok()) return reply.status();
  if (reply->type() != MsgType::kProxyConnectReply) {
    return make_error(ErrorCode::kInternal,
                      "unexpected proxy reply: " + reply->to_string());
  }
  if (reply->get("status") != "ok") {
    return make_error(ErrorCode::kNotFound,
                      "proxy refused service '" + service + "': " + reply->get("error"));
  }
  return endpoint;
}

Result<std::unique_ptr<Endpoint>> connect_direct_or_proxied(
    Transport& transport, const std::string& target_address,
    const std::string& proxy_address, const std::string& service) {
  auto direct = transport.connect(target_address);
  if (direct.is_ok()) return direct;
  if (direct.status().code() != ErrorCode::kPermissionDenied || proxy_address.empty()) {
    return direct.status();
  }
  kLog.debug("direct connect to ", target_address, " blocked; using proxy ",
             proxy_address);
  return proxy_connect(transport, proxy_address, service);
}

}  // namespace tdp::net
