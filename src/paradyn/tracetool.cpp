#include "paradyn/tracetool.hpp"

#include <chrono>
#include <fstream>
#include <thread>

#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"

namespace tdp::paradyn {

namespace {
const log::Logger kLog("tracetool");
}

TraceTool::TraceTool(TraceToolConfig config) : config_(std::move(config)) {}

TraceTool::~TraceTool() { stop(); }

Status TraceTool::start() {
  if (started_) return make_error(ErrorCode::kInvalidState, "already started");

  InitOptions options;
  options.role = Role::kTool;
  options.lass_address = config_.lass_address;
  options.context = config_.context;
  options.transport = config_.transport;
  auto session = TdpSession::init(std::move(options));
  if (!session.is_ok()) return session.status();
  session_ = std::move(session).value();

  auto pid_value = session_->get(config_.pid_attribute, config_.pid_wait_timeout_ms);
  if (!pid_value.is_ok()) return pid_value.status();
  if (!str::is_integer(pid_value.value())) {
    return make_error(ErrorCode::kInternal,
                      "malformed pid attribute: " + pid_value.value());
  }
  app_pid_ = std::stoll(pid_value.value());

  TDP_RETURN_IF_ERROR(session_->attach(app_pid_));

  // The Vampir constraint: refuse anything that has already executed. The
  // RM publishes the process state stream; the blocking get parks until
  // the first state is known.
  auto state = session_->get(control::state_attr(app_pid_),
                             config_.state_wait_timeout_ms);
  if (!state.is_ok()) return state.status();
  if (state.value() != proc::process_state_name(proc::ProcessState::kPausedAtExec)) {
    session_->exit();
    return make_error(
        ErrorCode::kInvalidState,
        "trace tools must observe execution from the first instruction; the "
        "application is already '" + state.value() +
            "' (use create mode with +SuspendJobAtExec)");
  }

  auto exe = session_->try_get(attr::attrs::kExecutableName);
  symbols_ = std::make_unique<SymbolTable>(SymbolTable::synthesize(
      exe.is_ok() ? exe.value() : "traced-app", config_.nfuncs));

  TDP_RETURN_IF_ERROR(session_->continue_process(app_pid_));
  started_ = true;
  kLog.info("tracing pid ", app_pid_, " from its first instruction");
  return Status::ok();
}

void TraceTool::synthesize_events(std::int64_t quantum) {
  // The synthetic execution model: function invocations arrive in weight
  // proportion; each invocation contributes an ENTER/EXIT pair whose span
  // reflects the function's weight share of the quantum.
  const auto& functions = symbols_->functions();
  if (functions.empty()) return;
  const std::uint64_t total_weight = symbols_->total_weight();
  // ~4 call events per quantum keeps traces dense but bounded.
  for (int call = 0; call < 4; ++call) {
    std::uint64_t pick = rng_.next_below(total_weight);
    const FunctionSymbol* chosen = &functions.back();
    for (const FunctionSymbol& symbol : functions) {
      if (pick < symbol.weight) {
        chosen = &symbol;
        break;
      }
      pick -= symbol.weight;
    }
    const std::int64_t span =
        quantum * static_cast<std::int64_t>(chosen->weight) /
        (4 * static_cast<std::int64_t>(total_weight)) + 1;
    records_.push_back({TraceRecord::Kind::kEnter, virtual_time_, chosen->module,
                        chosen->name});
    virtual_time_ += span;
    records_.push_back({TraceRecord::Kind::kExit, virtual_time_, chosen->module,
                        chosen->name});
  }
}

bool TraceTool::poll_once() {
  if (!started_) return false;
  session_->service_events();

  auto info = session_->process_info(app_pid_);
  const bool rm_gone =
      !info.is_ok() && info.status().code() == ErrorCode::kConnectionError;
  const bool running = info.is_ok() && info->state == proc::ProcessState::kRunning;
  const bool terminal =
      (info.is_ok() && proc::is_terminal(info->state)) || rm_gone;

  if (running) synthesize_events(config_.quantum_micros);

  if (terminal && !app_exited_) {
    app_exited_ = true;
    if (!config_.trace_path.empty()) {
      Status written = write_trace(config_.trace_path);
      if (!written.is_ok()) {
        kLog.warn("trace file write failed: ", written.to_string());
      }
    }
    kLog.info("application exited; ", records_.size(), " trace records");
    return false;
  }
  return !app_exited_;
}

Status TraceTool::run(int timeout_ms) {
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

Status TraceTool::write_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return make_error(ErrorCode::kInternal, "cannot open trace file: " + path);
  }
  for (const TraceRecord& record : records_) {
    out << record.timestamp_micros << ' '
        << (record.kind == TraceRecord::Kind::kEnter ? "ENTER" : "EXIT") << ' '
        << record.module << ' ' << record.function << '\n';
  }
  return out.good() ? Status::ok()
                    : make_error(ErrorCode::kInternal, "trace write failed");
}

Status TraceTool::stop() {
  if (session_) return session_->exit();
  return Status::ok();
}

Result<proc::Pid> InProcTraceLauncher::launch(
    const condor::ToolDaemonSpec& spec, const std::vector<std::string>& argv,
    const std::string& lass_address, const std::string& context,
    const std::string& pid_attribute, TdpSession& rm_session) {
  (void)argv;
  (void)rm_session;
  TraceToolConfig config;
  config.lass_address = lass_address;
  config.context = context;
  config.pid_attribute = pid_attribute;
  config.transport = options_.transport;
  config.quantum_micros = options_.quantum_micros;
  if (!options_.trace_dir.empty()) {
    config.trace_path = options_.trace_dir + "/" + context + "." +
                        (spec.output.empty() ? "trace" : spec.output);
  }
  const int timeout_ms = options_.run_timeout_ms;
  tracers_.launch([this, config = std::move(config), timeout_ms]() mutable {
    TraceTool tracer(std::move(config));
    Status status = tracer.start();
    if (status.is_ok()) status = tracer.run(timeout_ms);
    tracer.stop();
    LockGuard inner(mutex_);
    last_status_ = status;
    last_records_ = tracer.records().size();
  });
  const std::size_t count = launched_.fetch_add(1, std::memory_order_relaxed) + 1;
  return static_cast<proc::Pid>(-1000 - static_cast<std::int64_t>(count));
}

Status InProcTraceLauncher::last_tracer_status() const {
  LockGuard lock(mutex_);
  return last_status_;
}

std::size_t InProcTraceLauncher::last_record_count() const {
  LockGuard lock(mutex_);
  return last_records_;
}

}  // namespace tdp::paradyn
