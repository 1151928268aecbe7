#include "paradyn/paradynd.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include <optional>

#include "net/proxy.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"
#include "util/telemetry.hpp"

namespace tdp::paradyn {

namespace {
const log::Logger kLog("paradynd");
}

Paradynd::Paradynd(ParadyndConfig config) : config_(std::move(config)) {}

Paradynd::~Paradynd() { stop(); }

Status Paradynd::start() {
  if (started_) return make_error(ErrorCode::kInvalidState, "already started");

  // Figure 6 step 3: tdp_init to contact the LASS.
  InitOptions options;
  options.role = Role::kTool;
  options.lass_address = config_.lass_address;
  options.context = config_.context;
  options.transport = config_.transport;
  options.retry = config_.retry;
  auto session = TdpSession::init(std::move(options));
  if (!session.is_ok()) return session.status();
  session_ = std::move(session).value();

  telemetry::SpanContext pid_writer;
  TDP_RETURN_IF_ERROR(discover_application(&pid_writer));

  // The attach leg runs under the pid WRITER's trace context (the starter's
  // app.create span), so it joins the same causal tree as the submit that
  // launched the job - the Figure 6 handoff, observable as one connected
  // trace. The thread's own context comes back when start() returns.
  const telemetry::ScopedAmbient handoff(
      pid_writer.valid() ? pid_writer : telemetry::ambient_context());
  std::optional<telemetry::Span> span;
  if (telemetry::current_context().valid()) {
    span.emplace("paradynd.attach", "paradynd");
  }
  telemetry::Registry::instance().counter("paradynd.attaches").inc();

  // tdp_attach: control is routed to the RM; the application ends up (or
  // stays) paused so instrumentation precedes the first user instruction.
  TDP_RETURN_IF_ERROR(session_->attach(app_pid_));

  TDP_RETURN_IF_ERROR(initialize_inferior());

  // Front-end link, possibly proxied (Section 2.4). A missing front-end
  // is not fatal: the daemon still profiles locally.
  Status frontend_status = connect_frontend();
  if (!frontend_status.is_ok()) {
    kLog.warn("no front-end connection: ", frontend_status.to_string());
  }

  // Figure 6 step 4 end: run the application from the very beginning.
  Status continued = session_->continue_process(app_pid_);
  if (!continued.is_ok()) {
    // A lost LASS means the RM is gone: the application already ran and
    // exited. With a front-end to tell, the first turn of run() reaches the
    // same verdict (rm_gone) and sends the final report.
    if (continued.code() != ErrorCode::kConnectionError || !frontend_) return continued;
    started_ = true;
    return Status::ok();
  }

  // Self-hosted telemetry: the RT exports its registry into the job's
  // LASS over its own session, batched per interval.
  attr::TelemetryPublisher::Options pub_options;
  pub_options.role = "paradynd";
  pub_options.host = config_.daemon_name;
  telemetry_pub_ = std::make_unique<attr::TelemetryPublisher>(
      std::move(pub_options),
      [this](const std::vector<std::pair<std::string, std::string>>& pairs) {
        return session_->put_batch(pairs);
      });

  // Liveness lease: first beat immediately (the starter may already be
  // watching for the replacement daemon after a crash), then paced.
  if (config_.publish_liveness) {
    heartbeat_ = std::make_unique<lease::HeartbeatPublisher>(
        lease::liveness_attr("paradynd", config_.pid_attribute), config_.liveness,
        config_.clock, [this](const std::string& attribute, const std::string& value) {
          if (config_.recorder) config_.recorder->lease("beat", value);
          return session_->put(attribute, value);
        });
    heartbeat_->beat_now();
  }

  started_ = true;
  if (config_.recorder) {
    config_.recorder->state("start", "pid=" + std::to_string(app_pid_));
  }
  return Status::ok();
}

Status Paradynd::discover_application(telemetry::SpanContext* writer) {
  if (config_.attach_pid != 0) {
    // Attach mode (Figure 3B): pid was supplied by the user/front-end.
    app_pid_ = config_.attach_pid;
  } else {
    // Create mode: "paradynd is blocked until the starter stores in the
    // LASS the corresponding application pid using tdp_put."
    auto pid_value =
        session_->get(config_.pid_attribute, config_.pid_wait_timeout_ms, writer);
    if (!pid_value.is_ok()) return pid_value.status();
    if (!str::is_integer(pid_value.value())) {
      return make_error(ErrorCode::kInternal,
                        "malformed pid attribute: " + pid_value.value());
    }
    app_pid_ = std::stoll(pid_value.value());
  }
  auto exe = session_->try_get(attr::attrs::kExecutableName);
  executable_ = exe.is_ok() ? exe.value() : "unknown-app";
  return Status::ok();
}

Status Paradynd::initialize_inferior() {
  // "the paradyn run-time library is loaded into the application process,
  // paradynd parses the executable to discover symbols and find potential
  // instrumentation points" (Section 4.2).
  inferior_ = std::make_unique<Inferior>(
      app_pid_, SymbolTable::synthesize(executable_, config_.nfuncs));
  // Default configuration: whole-program timing plus blocking metrics, the
  // data the Performance Consultant's root hypotheses need.
  inferior_->insert_matching("*", "*", Metric::kCpuTime);
  inferior_->insert_matching("*", "*", Metric::kSyncWait);
  inferior_->insert_matching("*", "*", Metric::kIoWait);
  return Status::ok();
}

Status Paradynd::connect_frontend() {
  std::string address = config_.frontend_address;
  if (address.empty()) {
    auto host = session_->try_get(attr::attrs::kFrontendHost);
    auto port = session_->try_get(attr::attrs::kFrontendPort);
    if (!host.is_ok() || !port.is_ok()) {
      return make_error(ErrorCode::kNotFound,
                        "front-end address not published in the LASS");
    }
    // An inproc-style published "host" is already a full address.
    if (str::starts_with(host.value(), "inproc://")) {
      address = host.value();
    } else {
      address = str::format_host_port(host.value(), std::stoi(port.value()));
    }
  }
  // Section 2.4: when the direct route is blocked, "the host/port number
  // will be that of the RM's proxy". The starter publishes that proxy
  // address into the LASS; pick it up and fall back through it.
  std::string proxy_address;
  auto proxy = session_->try_get(attr::attrs::kProxyAddress);
  if (proxy.is_ok()) proxy_address = proxy.value();
  auto endpoint = net::connect_direct_or_proxied(*config_.transport, address,
                                                 proxy_address, "paradyn-frontend");
  if (!endpoint.is_ok()) return endpoint.status();
  frontend_ = std::move(endpoint).value();

  net::Message hello(net::MsgType::kParadynHello);
  hello.set("daemon", config_.daemon_name);
  hello.set_int("pid", app_pid_);
  hello.set("executable", executable_);
  auto job = session_->try_get(attr::attrs::kJobId);
  if (job.is_ok()) hello.set("job_id", job.value());
  return frontend_->send(hello);
}

bool Paradynd::poll_once() {
  if (!started_) return false;
  session_->service_events();
  if (telemetry_pub_) telemetry_pub_->maybe_publish();
  if (heartbeat_) heartbeat_->maybe_beat();

  // Drain front-end commands (non-blocking). Any non-timeout failure means
  // the link is unusable (peer gone, stream desynced): drop it cleanly and
  // keep profiling locally — a lost front-end must not take the daemon
  // down (the paper's independent-failure requirement).
  if (frontend_) {
    while (frontend_) {
      auto msg = frontend_->receive(0);
      if (!msg.is_ok()) {
        if (msg.status().code() != ErrorCode::kTimeout) {
          kLog.info("front-end link lost (", msg.status().to_string(),
                    "); continuing without a front-end");
          frontend_.reset();
        }
        break;
      }
      handle_frontend_command(msg.value());
    }
  }

  // Observe the application's state as published by the RM. Losing the
  // LASS connection means the RM itself is gone — under the paper's fault
  // model the job is over from this daemon's point of view, so treat it
  // as termination rather than spinning forever.
  auto info = session_->process_info(app_pid_);
  const bool rm_gone =
      !info.is_ok() && info.status().code() == ErrorCode::kConnectionError;
  const bool running =
      info.is_ok() && info->state == proc::ProcessState::kRunning;
  const bool terminal =
      (info.is_ok() && proc::is_terminal(info->state)) || rm_gone;

  if (running) {
    auto samples = inferior_->sample(config_.sample_quantum_micros);
    metrics_.record_all(samples, app_pid_);
    unreported_.insert(unreported_.end(), samples.begin(), samples.end());
  }
  ++polls_;

  if (terminal && !app_exited_) {
    app_exited_ = true;
    send_report(/*final_report=*/true);
    kLog.info("application ", app_pid_, " exited; final report sent");
    return false;
  }
  if (polls_ % config_.report_every == 0 && !unreported_.empty()) {
    send_report(/*final_report=*/false);
  }
  return !app_exited_;
}

Status Paradynd::send_report(bool final_report) {
  static telemetry::Counter& rollups_counter =
      telemetry::Registry::instance().counter("paradynd.rollups");
  rollups_counter.inc();
  // Publish the whole-program rollup of every metric seen in this batch to
  // the attribute space in one batched round trip, so other daemons (and
  // the RM) can observe progress without talking to the front-end.
  if (session_ && !unreported_.empty()) {
    std::vector<std::pair<std::string, std::string>> rollup;
    for (const Sample& sample : unreported_) {
      const std::string attribute = "perf." + std::string(metric_name(sample.metric));
      if (std::none_of(rollup.begin(), rollup.end(),
                       [&](const auto& pair) { return pair.first == attribute; })) {
        rollup.emplace_back(attribute,
                            std::to_string(metrics_.value(sample.metric, code_focus())));
      }
    }
    Status published = session_->put_batch(rollup);
    if (!published.is_ok()) {
      kLog.warn("metric rollup publish failed: ", published.to_string());
    }
  }

  if (!frontend_) {
    unreported_.clear();
    return Status::ok();
  }
  net::Message report(net::MsgType::kParadynReport);
  report.reserve_fields(3 + 4 * unreported_.size());
  report.set_int("pid", app_pid_);
  report.set_int("count", static_cast<std::int64_t>(unreported_.size()));
  report.set("final", final_report ? "1" : "0");
  for (std::size_t i = 0; i < unreported_.size(); ++i) {
    const Sample& sample = unreported_[i];
    const std::string n = std::to_string(i);
    // add() appends without the duplicate-key scan; the indexed naming
    // scheme keeps keys unique, so a large report builds in O(N).
    report.add("m" + n, metric_name(sample.metric));
    report.add("mod" + n, sample.module);
    report.add("fn" + n, sample.function);
    report.add("v" + n, std::to_string(sample.value));
  }
  unreported_.clear();
  Status sent = frontend_->send(std::move(report));
  if (sent.is_ok()) {
    ++reports_sent_;
  } else {
    // A dead link would otherwise fail every future report; treat it as
    // the front-end having exited.
    kLog.info("front-end link lost on report (", sent.to_string(),
              "); continuing without a front-end");
    frontend_.reset();
  }
  return sent;
}

void Paradynd::handle_frontend_command(const net::Message& command) {
  if (command.type() != net::MsgType::kParadynCommand) return;
  const std::string kind = command.get("cmd");
  Status status;
  if (kind == "pause") {
    status = session_->pause_process(app_pid_);
  } else if (kind == "continue") {
    status = session_->continue_process(app_pid_);
  } else if (kind == "kill") {
    status = session_->kill_process(app_pid_);
  } else if (kind == "instrument") {
    status = inferior_->insert_instrumentation(
        command.get("module"), command.get("function"), Metric::kCpuTime);
  } else if (kind == "uninstrument") {
    status = inferior_->remove_instrumentation(
        command.get("module"), command.get("function"), Metric::kCpuTime);
  } else {
    status = make_error(ErrorCode::kInvalidArgument, "unknown command: " + kind);
  }
  if (frontend_) {
    net::Message reply(net::MsgType::kParadynCommandReply);
    reply.set_seq(command.seq());
    reply.set("status", status.is_ok() ? "ok" : status.to_string());
    frontend_->send(reply);
  }
}

Status Paradynd::run(int timeout_ms) {
  const Clock& wall = RealClock::instance();
  const Micros deadline = wall.now_micros() + static_cast<Micros>(timeout_ms) * 1000;
  while (poll_once()) {
    if (wall.now_micros() >= deadline) {
      return make_error(ErrorCode::kTimeout, "application still running");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Status::ok();
}

Status Paradynd::stop() {
  if (frontend_) {
    frontend_->close();
    frontend_.reset();
  }
  if (session_) return session_->exit();
  return Status::ok();
}

void Paradynd::abandon() {
  kLog.warn(config_.daemon_name, ": simulated crash (connections severed, "
            "application left running)");
  heartbeat_.reset();  // beats stop: the lease will expire
  if (frontend_) {
    frontend_->close();
    frontend_.reset();
  }
  if (session_) session_->abandon();
  started_ = false;
  // The last entry in the victim's ring: everything after this silence is
  // the detector's story, not the daemon's.
  if (config_.recorder) config_.recorder->state("abandon", "");
}

}  // namespace tdp::paradyn
