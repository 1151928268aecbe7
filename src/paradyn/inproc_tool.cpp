#include "paradyn/inproc_tool.hpp"

#include "util/log.hpp"

namespace tdp::paradyn {

namespace {
const log::Logger kLog("inproc_tool");
}

Result<proc::Pid> InProcParadynLauncher::launch(
    const condor::ToolDaemonSpec& spec, const std::vector<std::string>& argv,
    const std::string& lass_address, const std::string& context,
    const std::string& pid_attribute, TdpSession& rm_session) {
  (void)argv;
  (void)rm_session;
  ParadyndConfig config;
  config.lass_address = lass_address;
  config.context = context;
  config.pid_attribute = pid_attribute;
  config.transport = options_.transport;
  config.frontend_address = options_.frontend_address;
  config.sample_quantum_micros = options_.sample_quantum_micros;
  config.nfuncs = options_.nfuncs;
  config.daemon_name = spec.cmd.empty() ? "paradynd" : spec.cmd;
  config.retry = options_.retry;

  const int timeout_ms = options_.run_timeout_ms;
  daemons_.launch([this, config = std::move(config), timeout_ms]() mutable {
    Paradynd daemon(std::move(config));
    Status status = daemon.start();
    if (status.is_ok()) status = daemon.run(timeout_ms);
    daemon.stop();
    LockGuard inner(mutex_);
    last_status_ = status;
    if (!status.is_ok()) {
      kLog.warn("in-process paradynd finished with: ", status.to_string());
    }
  });
  const std::size_t count = launched_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Synthetic tool pid: negative ids cannot collide with real/sim pids.
  return static_cast<proc::Pid>(-static_cast<std::int64_t>(count));
}

Status InProcParadynLauncher::last_daemon_status() const {
  LockGuard lock(mutex_);
  return last_status_;
}

}  // namespace tdp::paradyn
