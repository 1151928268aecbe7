#include "core/tdp.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>

#include "net/proxy.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"

namespace tdp {

namespace {
const log::Logger kLog("tdp");

std::string make_request_token() {
  static std::atomic<std::uint64_t> counter{0};
  return std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// Parses "op:<op> pid:<pid>" control request values.
bool parse_control_value(const std::string& value, std::string* op, proc::Pid* pid) {
  std::string op_out;
  proc::Pid pid_out = -1;
  for (const std::string& part : str::split_args(value)) {
    if (str::starts_with(part, "op:")) op_out = part.substr(3);
    if (str::starts_with(part, "pid:")) {
      const std::string num = part.substr(4);
      if (!str::is_integer(num)) return false;
      pid_out = std::stoll(num);
    }
  }
  if (op_out.empty() || pid_out < 0) return false;
  *op = std::move(op_out);
  *pid = pid_out;
  return true;
}

/// What init() and adopt() both require.
Status validate(const InitOptions& options) {
  if (!options.transport) {
    return make_error(ErrorCode::kInvalidArgument, "InitOptions.transport is required");
  }
  if (options.role == Role::kResourceManager && !options.backend) {
    return make_error(ErrorCode::kInvalidArgument,
                      "an RM session requires a ProcessBackend");
  }
  return Status::ok();
}

}  // namespace

namespace control {

std::string request_attr(const std::string& token, std::uint64_t n) {
  return "tdpreq." + token + "." + std::to_string(n);
}

std::string reply_attr(const std::string& token, std::uint64_t n) {
  return "tdprep." + token + "." + std::to_string(n);
}

std::string state_attr(proc::Pid pid) {
  return std::string("proc_state.") + std::to_string(pid);
}

}  // namespace control

TdpSession::TdpSession(InitOptions options)
    : role_(options.role),
      context_(options.context),
      options_(std::move(options)),
      backend_(options_.backend),
      request_token_(make_request_token()) {}

Result<std::unique_ptr<TdpSession>> TdpSession::init(InitOptions options) {
  if (options.lass_address.empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "InitOptions.lass_address is required: every TDP process "
                      "must reach its local attribute space server");
  }
  TDP_RETURN_IF_ERROR(validate(options));
  std::unique_ptr<TdpSession> session(new TdpSession(std::move(options)));
  TDP_RETURN_IF_ERROR(session->connect_spaces(nullptr));
  return session;
}

Result<std::unique_ptr<TdpSession>> TdpSession::adopt(
    InitOptions options, std::unique_ptr<net::Endpoint> lass) {
  if (!lass) {
    return make_error(ErrorCode::kInvalidArgument, "adopt needs a LASS endpoint");
  }
  TDP_RETURN_IF_ERROR(validate(options));
  std::unique_ptr<TdpSession> session(new TdpSession(std::move(options)));
  TDP_RETURN_IF_ERROR(session->connect_spaces(std::move(lass)));
  return session;
}

Status TdpSession::connect_spaces(std::unique_ptr<net::Endpoint> lass_endpoint) {
  if (lass_endpoint) {
    auto lass = attr::AttrClient::adopt(std::move(lass_endpoint), context_,
                                        options_.retry);
    if (!lass.is_ok()) return lass.status();
    lass_ = std::move(lass).value();
  } else {
    auto lass = attr::AttrClient::connect(*options_.transport, options_.lass_address,
                                          context_, options_.retry);
    if (!lass.is_ok()) return lass.status();
    lass_ = std::move(lass).value();
  }

  if (!options_.cass_address.empty()) {
    // The CASS lives on the front-end host, possibly across a firewall;
    // fall back to the RM proxy when the direct route is blocked.
    auto endpoint = net::connect_direct_or_proxied(
        *options_.transport, options_.cass_address, options_.proxy_address, "cass");
    if (!endpoint.is_ok()) return endpoint.status();
    // Timeout replay applies; redial does not (adopted endpoints keep no
    // dial string — the proxied route may not even be redialable).
    auto cass = attr::AttrClient::adopt(std::move(endpoint).value(),
                                        options_.cass_context, options_.retry);
    if (!cass.is_ok()) return cass.status();
    cass_ = std::move(cass).value();
  }

  if (role_ == Role::kResourceManager) {
    // Serve tool control requests: the subscription callback runs inside
    // this session's service_events(), the RM's "safe point".
    TDP_RETURN_IF_ERROR(lass_->subscribe(
        control::kRequestPattern,
        [this](const std::string& attribute, const std::string& value) {
          serve_control_request(attribute, value);
        }));
  }
  return Status::ok();
}

TdpSession::~TdpSession() {
  if (!exited_.load(std::memory_order_acquire)) exit();
}

Result<proc::Pid> TdpSession::create_process(const proc::CreateOptions& options) {
  if (role_ != Role::kResourceManager) {
    return make_error(ErrorCode::kInvalidState,
                      "tdp_create_process is an RM operation; tools receive the "
                      "pid through the attribute space (Figure 6 step 3)");
  }
  return backend_->create_process(options);
}

Status TdpSession::attach(proc::Pid pid) {
  if (role_ == Role::kResourceManager) return backend_->attach(pid);
  return request_control("attach", pid);
}

Status TdpSession::continue_process(proc::Pid pid) {
  if (role_ == Role::kResourceManager) return backend_->continue_process(pid);
  return request_control("continue", pid);
}

Status TdpSession::pause_process(proc::Pid pid) {
  if (role_ == Role::kResourceManager) return backend_->pause_process(pid);
  return request_control("pause", pid);
}

Status TdpSession::kill_process(proc::Pid pid) {
  if (role_ == Role::kResourceManager) return backend_->kill_process(pid);
  return request_control("kill", pid);
}

Result<proc::ProcessInfo> TdpSession::process_info(proc::Pid pid) {
  if (role_ == Role::kResourceManager) return backend_->info(pid);
  // Tools read the state the RM last published.
  auto value = try_get(control::state_attr(pid));
  if (!value.is_ok()) return value.status();
  proc::ProcessInfo info;
  info.pid = pid;
  const std::vector<std::string> parts = str::split(value.value(), ':');
  const std::string& name = parts[0];
  for (int s = 0; s <= static_cast<int>(proc::ProcessState::kFailed); ++s) {
    auto state = static_cast<proc::ProcessState>(s);
    if (name == proc::process_state_name(state)) {
      info.state = state;
      break;
    }
  }
  if (parts.size() > 1 && str::is_integer(parts[1])) {
    if (info.state == proc::ProcessState::kExited) info.exit_code = std::stoi(parts[1]);
    if (info.state == proc::ProcessState::kSignalled) {
      info.term_signal = std::stoi(parts[1]);
    }
  }
  return info;
}

Status TdpSession::request_control(const std::string& op, proc::Pid pid) {
  const std::uint64_t n = request_counter_.fetch_add(1, std::memory_order_relaxed);
  const std::string request = control::request_attr(request_token_, n);
  const std::string reply = control::reply_attr(request_token_, n);
  const std::string request_value = "op:" + op + " pid:" + std::to_string(pid);
  TDP_RETURN_IF_ERROR(lass_->put(request, request_value));
  // The RM learns of the request through a subscription notify, which is
  // fire-and-forget: on a lossy link it can vanish even though the put was
  // acknowledged. With retry enabled, wait in slices and re-put the request
  // (an overwrite re-triggers the notify); the ops are idempotent at the
  // backend, so the RM serving a request twice is harmless.
  const bool nudge = options_.retry.enabled;
  const int total = options_.control_timeout_ms;
  const int slice = nudge ? std::max(1, std::min(total, 1000)) : total;
  const Clock& wall = RealClock::instance();
  const Micros deadline = wall.now_micros() + static_cast<Micros>(total) * 1000;
  Result<std::string> result = make_error(ErrorCode::kTimeout, "not attempted");
  while (true) {
    result = lass_->get(reply, slice);
    if (result.is_ok() || result.status().code() != ErrorCode::kTimeout) break;
    if (!nudge || wall.now_micros() >= deadline) break;
    lass_->put(request, request_value);
  }
  if (!result.is_ok()) {
    if (result.status().code() == ErrorCode::kTimeout) {
      return make_error(ErrorCode::kTimeout,
                        "RM did not answer control request '" + op +
                            "'; is its event loop running?");
    }
    return result.status();
  }
  if (result.value() == "ok") return Status::ok();
  return make_error(ErrorCode::kInternal, "RM rejected '" + op + "': " + result.value());
}

void TdpSession::serve_control_request(const std::string& attribute,
                                       const std::string& value) {
  // attribute = "tdpreq.<token>.<n>"; reply goes to "tdprep.<token>.<n>".
  std::string op;
  proc::Pid pid = 0;
  std::string reply_name = attribute;
  const std::string kReqPrefix = "tdpreq.";
  if (str::starts_with(reply_name, kReqPrefix)) {
    reply_name = "tdprep." + reply_name.substr(kReqPrefix.size());
  }
  Status status;
  if (!parse_control_value(value, &op, &pid)) {
    status = make_error(ErrorCode::kInvalidArgument, "malformed control request");
  } else if (op == "attach") {
    status = backend_->attach(pid);
  } else if (op == "continue") {
    status = backend_->continue_process(pid);
  } else if (op == "pause") {
    status = backend_->pause_process(pid);
  } else if (op == "kill") {
    status = backend_->kill_process(pid);
  } else {
    status = make_error(ErrorCode::kInvalidArgument, "unknown control op: " + op);
  }
  const std::string reply_value =
      status.is_ok() ? "ok" : "error:" + status.to_string();
  Status put_status = lass_->put(reply_name, reply_value);
  if (!put_status.is_ok()) {
    kLog.error("failed to publish control reply ", reply_name, ": ",
               put_status.to_string());
  }
}

Status TdpSession::put(const std::string& attribute, const std::string& value) {
  return lass_->put(attribute, value);
}

Status TdpSession::put_batch(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  return lass_->put_batch(pairs);
}

Result<std::string> TdpSession::get(const std::string& attribute, int timeout_ms,
                                    telemetry::SpanContext* writer) {
  return lass_->get(attribute, timeout_ms, writer);
}

Result<std::string> TdpSession::try_get(const std::string& attribute) {
  return lass_->try_get(attribute);
}

Result<int> TdpSession::async_get(const std::string& attribute,
                                  attr::CompletionCallback callback) {
  return lass_->async_get(attribute, std::move(callback));
}

Result<int> TdpSession::async_put(const std::string& attribute,
                                  const std::string& value,
                                  attr::CompletionCallback callback) {
  return lass_->async_put(attribute, value, std::move(callback));
}

Status TdpSession::subscribe(const std::string& pattern,
                             attr::NotifyCallback callback) {
  return lass_->subscribe(pattern, std::move(callback));
}

Status TdpSession::cass_put(const std::string& attribute, const std::string& value) {
  if (!cass_) {
    return make_error(ErrorCode::kInvalidState, "no CASS configured for this session");
  }
  return cass_->put(attribute, value);
}

Result<std::string> TdpSession::cass_get(const std::string& attribute, int timeout_ms) {
  if (!cass_) {
    return make_error(ErrorCode::kInvalidState, "no CASS configured for this session");
  }
  return cass_->get(attribute, timeout_ms);
}

Result<std::string> TdpSession::cass_try_get(const std::string& attribute) {
  if (!cass_) {
    return make_error(ErrorCode::kInvalidState, "no CASS configured for this session");
  }
  return cass_->try_get(attribute);
}

int TdpSession::service_events() {
  int handled = lass_->service_events();
  if (cass_) handled += cass_->service_events();
  if (role_ == Role::kResourceManager && backend_) {
    for (const proc::ProcessEvent& event : backend_->poll_events()) {
      publish_event(event);
      ++handled;
    }
  }
  return handled;
}

void TdpSession::publish_event(const proc::ProcessEvent& event) {
  std::string value = proc::process_state_name(event.state);
  if (event.state == proc::ProcessState::kExited) {
    value += ":" + std::to_string(event.exit_code);
  } else if (event.state == proc::ProcessState::kSignalled) {
    value += ":" + std::to_string(event.term_signal);
  }
  lass_->put(control::state_attr(event.pid), value);
  lass_->put(attr::attrs::kAppState,
             std::to_string(event.pid) + ":" + value);
}

int TdpSession::event_fd() const { return lass_->readable_fd(); }

Result<std::unique_ptr<net::Endpoint>> TdpSession::connect_to(
    const std::string& target_address, const std::string& service) {
  return net::connect_direct_or_proxied(*options_.transport, target_address,
                                        options_.proxy_address, service);
}

Status TdpSession::exit() {
  bool expected = false;
  if (!exited_.compare_exchange_strong(expected, true)) return Status::ok();
  Status status = Status::ok();
  if (cass_) status = cass_->exit();
  if (lass_) {
    Status lass_status = lass_->exit();
    if (status.is_ok()) status = lass_status;
  }
  return status;
}

void TdpSession::abandon() {
  bool expected = false;
  if (!exited_.compare_exchange_strong(expected, true)) return;
  if (cass_) cass_->abandon();
  if (lass_) lass_->abandon();
}

}  // namespace tdp
