// tracetool.hpp - a second, different run-time tool built on TDP: a
// Vampir-style event tracer.
//
// Two reasons it exists in this reproduction:
//   * the m-tools argument needs m > 1: the tracer runs under the same
//     MiniCondor RM through exactly the same TDP calls as paradynd, with
//     zero RM-side changes — the m + n payoff, demonstrated;
//   * it embodies the launch-scheme distinction of Section 2.2/3.1: "Not
//     all tools have the ability to use this attach technique. For
//     example, the Vampir trace tool requires the tracing to be started
//     before the application starts execution." TraceTool therefore
//     REFUSES to operate on an application that has already run (attach
//     mode), accepting only the create-paused scheme.
//
// Output: an in-memory event trace (enter/exit records over the synthetic
// execution model) and, optionally, a trace file written at application
// exit — the paper's "trace files ... must be transferred from the
// execution nodes after the application completes" artifact.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "condor/starter.hpp"
#include "core/tdp.hpp"
#include "paradyn/daemon_threads.hpp"
#include "paradyn/dyninst.hpp"
#include "util/sync.hpp"

namespace tdp::paradyn {

struct TraceRecord {
  enum class Kind : std::uint8_t { kEnter = 0, kExit };
  Kind kind = Kind::kEnter;
  std::int64_t timestamp_micros = 0;  ///< virtual time since tracing began
  std::string module;
  std::string function;
};

struct TraceToolConfig {
  std::string lass_address;
  std::string context = attr::kDefaultContext;
  std::shared_ptr<net::Transport> transport;
  std::string pid_attribute = "pid";
  /// Virtual CPU micros attributed per poll turn while the app runs.
  std::int64_t quantum_micros = 10'000;
  /// Trace file written at application exit (empty = in-memory only).
  std::string trace_path;
  /// Synthesized symbol-table size.
  int nfuncs = 16;
  int pid_wait_timeout_ms = 10'000;
  /// Bound on the blocking wait for the initial paused state.
  int state_wait_timeout_ms = 10'000;
};

class TraceTool {
 public:
  explicit TraceTool(TraceToolConfig config);
  ~TraceTool();

  TraceTool(const TraceTool&) = delete;
  TraceTool& operator=(const TraceTool&) = delete;

  /// The create-mode handshake: tdp_init, blocking get of the pid,
  /// tdp_attach, then VERIFY the application is still paused at exec.
  /// kInvalidState when the application has already executed (the tracer
  /// cannot reconstruct events it never saw). On success the application
  /// is continued with tracing active.
  Status start();

  /// One poll turn; false once the application has exited (and the trace
  /// file, if configured, has been written).
  bool poll_once();

  /// Drives poll_once until exit or wall-clock timeout.
  Status run(int timeout_ms);

  [[nodiscard]] proc::Pid app_pid() const noexcept { return app_pid_; }
  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] bool app_exited() const noexcept { return app_exited_; }

  /// Serializes the trace ("<t> ENTER|EXIT <module> <function>" lines).
  Status write_trace(const std::string& path) const;

  Status stop();

 private:
  void synthesize_events(std::int64_t quantum);

  TraceToolConfig config_;
  std::unique_ptr<TdpSession> session_;
  std::unique_ptr<SymbolTable> symbols_;
  Rng rng_{12345};
  std::vector<TraceRecord> records_;
  proc::Pid app_pid_ = 0;
  std::int64_t virtual_time_ = 0;
  bool app_exited_ = false;
  bool started_ = false;
};

/// Runs TraceTool instances on threads as a MiniCondor ToolLauncher — the
/// second tool of the m-tools story, launched through the identical
/// +ToolDaemonCmd machinery with no RM-side change.
class InProcTraceLauncher final : public condor::ToolLauncher {
 public:
  struct Options {
    std::shared_ptr<net::Transport> transport;
    std::string trace_dir;  ///< where per-job trace files land (empty = none)
    std::int64_t quantum_micros = 10'000;
    int run_timeout_ms = 30'000;
  };

  explicit InProcTraceLauncher(Options options) : options_(std::move(options)) {}
  ~InProcTraceLauncher() override { join_all(); }

  Result<proc::Pid> launch(const condor::ToolDaemonSpec& spec,
                           const std::vector<std::string>& argv,
                           const std::string& lass_address,
                           const std::string& context,
                           const std::string& pid_attribute,
                           TdpSession& rm_session) override;

  void join_all() { tracers_.join_all(); }

  [[nodiscard]] std::size_t tracers_launched() const {
    return launched_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] Status last_tracer_status() const;
  [[nodiscard]] std::size_t last_record_count() const;

 private:
  Options options_;
  mutable Mutex mutex_{"InProcTraceLauncher::mutex_"};
  Status last_status_ TDP_GUARDED_BY(mutex_);
  std::size_t last_records_ TDP_GUARDED_BY(mutex_) = 0;

  std::atomic<std::size_t> launched_{0};
  DaemonThreads tracers_;
};

}  // namespace tdp::paradyn
