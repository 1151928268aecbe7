#include "paradyn/frontend.hpp"

#include "attrspace/attr_protocol.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"

namespace tdp::paradyn {

namespace {
const log::Logger kLog("paradyn_fe");
}

Frontend::Frontend(std::shared_ptr<net::Transport> transport)
    : transport_(std::move(transport)) {}

Frontend::~Frontend() { stop(); }

Result<std::string> Frontend::start(const std::string& listen_address) {
  auto listener = transport_->listen(listen_address);
  if (!listener.is_ok()) return listener.status();
  listener_ = std::move(listener).value();
  address_ = listener_->address();
  running_.store(true, std::memory_order_release);
  reactor_.add_readable(listener_->readable_fd(), [this] { on_acceptable(); });
  io_thread_ = std::thread([this] {
    while (running_.load(std::memory_order_acquire)) {
      reactor_.run_once(-1);
    }
  });
  kLog.info("front-end listening on ", address_);
  return address_;
}

void Frontend::stop() {
  running_.store(false, std::memory_order_release);
  reactor_.stop();  // wakes the blocked poll so the I/O thread observes running_
  if (io_thread_.joinable()) io_thread_.join();
  if (cass_) {
    cass_->exit();
    cass_.reset();
  }
  for (auto& [fd, conn] : conns_) {
    reactor_.remove(fd);
    conn.endpoint->close();
  }
  conns_.clear();
  {
    LockGuard lock(mutex_);
    daemons_.clear();
  }
  if (listener_) {
    reactor_.remove(listener_->readable_fd());
    listener_->close();
  }
}

std::string Frontend::host() const {
  std::string host_part;
  int port_part = 0;
  if (str::parse_host_port(address_, &host_part, &port_part)) return host_part;
  return address_;  // inproc-style address is its own "host"
}

int Frontend::port() const {
  std::string host_part;
  int port_part = 0;
  if (str::parse_host_port(address_, &host_part, &port_part)) return port_part;
  return 0;
}

std::size_t Frontend::daemon_count() const {
  LockGuard lock(mutex_);
  return daemons_.size();
}

std::vector<proc::Pid> Frontend::finished_pids() const {
  LockGuard lock(mutex_);
  return finished_;
}

void Frontend::on_acceptable() {
  while (running_.load(std::memory_order_acquire)) {
    auto accepted = listener_->accept(0);
    if (!accepted.is_ok()) break;  // kTimeout: queue drained
    std::shared_ptr<net::Endpoint> endpoint(std::move(accepted).value());
    const int fd = endpoint->readable_fd();
    if (fd < 0) {
      endpoint->close();
      continue;
    }
    conns_[fd] = Connection{std::move(endpoint), 0};
    reactor_.add_readable(fd, [this, fd] { on_readable(fd); });
  }
}

void Frontend::on_readable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  while (running_.load(std::memory_order_acquire)) {
    auto received = conn.endpoint->receive(0);
    if (received.is_ok()) {
      handle_message(received.value(), conn);
      continue;
    }
    if (received.status().code() == ErrorCode::kTimeout) return;  // drained
    // The daemon is gone: forget it and close our end.
    reactor_.remove(fd);
    if (conn.pid != 0) {
      LockGuard lock(mutex_);
      daemons_.erase(conn.pid);
    }
    conn.endpoint->close();
    conns_.erase(it);
    return;
  }
}

void Frontend::handle_message(const net::Message& msg, Connection& conn) {
  switch (msg.type()) {
    case net::MsgType::kParadynHello: {
      conn.pid = msg.get_int("pid");
      LockGuard lock(mutex_);
      daemons_[conn.pid] = conn.endpoint;
      kLog.info("daemon '", msg.get("daemon"), "' attached to pid ", conn.pid,
                " (", msg.get("executable"), ")");
      break;
    }
    case net::MsgType::kParadynReport: {
      reports_.fetch_add(1, std::memory_order_relaxed);
      const std::int64_t count = msg.get_int("count");
      const proc::Pid report_pid = msg.get_int("pid");
      for (std::int64_t i = 0; i < count; ++i) {
        const std::string n = std::to_string(i);
        Sample sample;
        const std::string metric = msg.get("m" + n);
        if (metric == "cpu_time") sample.metric = Metric::kCpuTime;
        else if (metric == "call_count") sample.metric = Metric::kCallCount;
        else if (metric == "sync_wait") sample.metric = Metric::kSyncWait;
        else if (metric == "io_wait") sample.metric = Metric::kIoWait;
        sample.module = msg.get("mod" + n);
        sample.function = msg.get("fn" + n);
        sample.value = std::stod(msg.get("v" + n, "0"));
        metrics_.record(sample, report_pid);
      }
      if (msg.get("final") == "1") {
        LockGuard lock(mutex_);
        finished_.push_back(report_pid);
      }
      break;
    }
    case net::MsgType::kParadynCommandReply:
      // Acknowledgements are informational; errors are logged.
      if (msg.get("status") != "ok") {
        kLog.warn("daemon command failed: ", msg.get("status"));
      }
      break;
    default:
      kLog.warn("unexpected daemon message: ", msg.to_string());
      break;
  }
}

Status Frontend::command(proc::Pid pid, const std::string& cmd,
                         const std::map<std::string, std::string>& fields) {
  std::shared_ptr<net::Endpoint> endpoint;
  {
    LockGuard lock(mutex_);
    auto it = daemons_.find(pid);
    if (it == daemons_.end()) {
      return make_error(ErrorCode::kNotFound,
                        "no daemon for pid " + std::to_string(pid));
    }
    endpoint = it->second;
  }
  net::Message msg(net::MsgType::kParadynCommand);
  msg.set("cmd", cmd);
  for (const auto& [key, value] : fields) msg.set(key, value);
  return endpoint->send(msg);
}

Status Frontend::command_all(const std::string& cmd,
                             const std::map<std::string, std::string>& fields) {
  std::vector<std::shared_ptr<net::Endpoint>> endpoints;
  {
    LockGuard lock(mutex_);
    endpoints.reserve(daemons_.size());
    for (auto& [pid, endpoint] : daemons_) endpoints.push_back(endpoint);
  }
  Status last = Status::ok();
  for (auto& endpoint : endpoints) {
    net::Message msg(net::MsgType::kParadynCommand);
    msg.set("cmd", cmd);
    for (const auto& [key, value] : fields) msg.set(key, value);
    Status sent = endpoint->send(msg);
    if (!sent.is_ok()) last = sent;
  }
  return last;
}

Status Frontend::publish_contact(const std::string& cass_address,
                                 const std::string& context) {
  auto client = attr::AttrClient::connect(*transport_, cass_address, context);
  if (!client.is_ok()) return client.status();
  cass_ = std::move(client).value();
  TDP_RETURN_IF_ERROR(cass_->put(attr::attrs::kFrontendHost, host()));
  TDP_RETURN_IF_ERROR(
      cass_->put(attr::attrs::kFrontendPort, std::to_string(port())));
  TDP_RETURN_IF_ERROR(
      cass_->put(attr::attrs::kFrontendPort2, std::to_string(port2())));
  kLog.info("contact info published to CASS at ", cass_address);
  return Status::ok();
}

std::vector<PerformanceConsultant::Finding> Frontend::run_consultant(
    PerformanceConsultant::Options options) {
  PerformanceConsultant consultant(metrics_, options);
  return consultant.search();
}

}  // namespace tdp::paradyn
