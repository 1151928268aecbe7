// tdp.hpp - the Tool Dæmon Protocol library (the paper's contribution).
//
// A TdpSession is the "tdp handle" returned by tdp_init (Section 3.2). Both
// kinds of daemon hold one:
//
//   * the RM (resource manager; Condor's starter in Parador) initializes
//     with Role::kResourceManager and a ProcessBackend. It creates
//     application processes (tdp_create_process with the run or paused
//     option), monitors them, and serves process-control requests that
//     tools route to it;
//   * the RT (run-time tool; paradynd in Parador) initializes with
//     Role::kTool. Its attach/continue/pause/kill calls do NOT touch the
//     OS: per Section 2.3 "the responsibility for controlling an
//     application process and for monitoring its status belongs to the RM",
//     so the RT's requests travel through the attribute space to the RM,
//     which performs the operation and replies. "Two different processes
//     will never attempt conflicting control operations."
//
// Event model (Section 3.3): nothing in this library ever invokes a user
// callback from a signal handler or a hidden thread. Async completions and
// notifications are queued, a descriptor (event_fd) becomes readable, and
// the daemon's own poll loop calls service_events() to dispatch — "the
// callback function will be called at a well-known and (presumably) safe
// point."
//
// The create-mode launch sequence of Figure 3A/Figure 6, expressed in this
// API (RM side):
//     auto rm = TdpSession::init(rm_options);               // tdp_init
//     auto app = rm->create_process(app_opts, kPaused);     // stopped at exec
//     rm->put("pid", std::to_string(app));                  // tdp_put
//     auto rt = rm->create_process(tool_opts, kRun);        // launch the RT
// and the RT side:
//     auto rt = TdpSession::init(tool_options);             // tdp_init
//     auto pid = rt->get("pid");                            // blocks for put
//     rt->attach(std::stoll(pid.value()));                  // tdp_attach
//     ... tool initialization ...
//     rt->continue_process(std::stoll(pid.value()));        // tdp_continue
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "attrspace/attr_client.hpp"
#include "attrspace/attr_protocol.hpp"
#include "net/transport.hpp"
#include "proc/backend.hpp"

namespace tdp {

enum class Role : std::uint8_t { kResourceManager, kTool };

/// Configuration for TdpSession::init (the tdp_init call).
struct InitOptions {
  Role role = Role::kTool;

  /// Address of the local attribute space server (LASS) on this host.
  /// Every TDP process must reach its LASS (Section 2.1).
  std::string lass_address;

  /// Attribute-space context, the unit of RM<->RT pairing (Section 3.2).
  /// An RM managing several RTs uses a different context per RT.
  std::string context = attr::kDefaultContext;

  /// Transport used for all connections (in-process or TCP).
  std::shared_ptr<net::Transport> transport;

  /// RM only: the process-control backend this RM encapsulates.
  std::shared_ptr<proc::ProcessBackend> backend;

  /// Optional central attribute space server (CASS) on the front-end host.
  std::string cass_address;

  /// Context joined on the CASS. Pool-wide data (front-end contact info,
  /// global configuration) lives in the shared default context even when
  /// the LASS side uses a per-RT context.
  std::string cass_context = attr::kDefaultContext;

  /// Optional RM proxy for connections that must cross a firewall
  /// (Section 2.4); consulted by connect_to().
  std::string proxy_address;

  /// Timeout for RT->RM control round trips, milliseconds.
  int control_timeout_ms = 10'000;

  /// Failure-recovery policy for the LASS connection: with `enabled`, lost
  /// frames are replayed and a dead connection is redialed transparently
  /// (subscriptions re-registered, in-flight async ops replayed). The CASS
  /// link adopts the same policy for replay, but having been set up through
  /// connect_to() (possibly proxied) it cannot be redialed.
  attr::RetryPolicy retry;
};

/// The tdp handle. Thread-safe; one per daemon process.
class TdpSession {
 public:
  /// tdp_init: joins the context on the LASS (and CASS when configured).
  /// "On success, tdp_init will return a tdp handle, which will be used in
  /// any TDP subsequent action."
  static Result<std::unique_ptr<TdpSession>> init(InitOptions options);

  /// tdp_init over an endpoint already connected to the LASS, the way
  /// AttrClient::adopt joins over a proxied one. An RM that starts its own
  /// LASS joins it through the server's owner endpoint
  /// (AttrServer::connect_local) rather than dialing it, so
  /// `options.lass_address` is not used; the rest of `options` means what
  /// it means for init(). With no dial string the LASS link is never
  /// redialed; `options.retry` still governs replay.
  static Result<std::unique_ptr<TdpSession>> adopt(InitOptions options,
                                                   std::unique_ptr<net::Endpoint> lass);

  ~TdpSession();

  TdpSession(const TdpSession&) = delete;
  TdpSession& operator=(const TdpSession&) = delete;

  // ------------------------------------------------------------------
  // Process management (Section 3.1)
  // ------------------------------------------------------------------

  /// tdp_create_process. RM only (kInvalidState for tools): launches the
  /// application (or the RT itself, or an auxiliary service) via the
  /// backend. With CreateMode::kPaused the process is left stopped just
  /// after exec, ready for a tool to attach before main() runs.
  Result<proc::Pid> create_process(const proc::CreateOptions& options);

  /// tdp_attach: obtains control of the process and ensures it is paused.
  /// RM: direct backend call. RT: routed to the RM through the attribute
  /// space.
  Status attach(proc::Pid pid);

  /// tdp_continue_process: resumes a paused/stopped process (both the
  /// create and attach scenarios of Figure 3 end with this call).
  Status continue_process(proc::Pid pid);

  /// Pauses a running application (RT-initiated pause must be coordinated
  /// with the RM "so the change is not viewed as faulty behaviour").
  Status pause_process(proc::Pid pid);

  /// Terminates the application.
  Status kill_process(proc::Pid pid);

  /// Current state of a managed process as the RM last reported it.
  /// RM: backend truth. RT: read from the attribute space.
  Result<proc::ProcessInfo> process_info(proc::Pid pid);

  // ------------------------------------------------------------------
  // Attribute space (Section 3.2)
  // ------------------------------------------------------------------

  /// tdp_put: blocking store into the LASS.
  Status put(const std::string& attribute, const std::string& value);

  /// Batched tdp_put: stores all pairs in one round trip to the LASS.
  /// Daemons publishing N related attributes at once (metric samples,
  /// handshake bundles) pay one network round trip instead of N.
  Status put_batch(const std::vector<std::pair<std::string, std::string>>& pairs);

  /// tdp_get, blocking form: waits until the attribute is present.
  /// `writer`, when given, receives the trace context the value was
  /// written under; the thread's ambient context is left as it was.
  Result<std::string> get(const std::string& attribute, int timeout_ms = -1,
                          telemetry::SpanContext* writer = nullptr);

  /// tdp_get, documented error form: kNotFound when absent.
  Result<std::string> try_get(const std::string& attribute);

  /// tdp_async_get: returns the descriptor to poll (the paper's tdp_fd);
  /// the callback fires from a later service_events().
  Result<int> async_get(const std::string& attribute,
                        attr::CompletionCallback callback);

  /// tdp_async_put.
  Result<int> async_put(const std::string& attribute, const std::string& value,
                        attr::CompletionCallback callback);

  /// Asynchronous notification (Section 2.1): callback on every put whose
  /// attribute matches `pattern` (exact, or trailing-'*' prefix).
  Status subscribe(const std::string& pattern, attr::NotifyCallback callback);

  /// Same operations against the central space (CASS), when configured.
  Status cass_put(const std::string& attribute, const std::string& value);
  Result<std::string> cass_get(const std::string& attribute, int timeout_ms = -1);
  Result<std::string> cass_try_get(const std::string& attribute);

  // ------------------------------------------------------------------
  // Event notification (Section 3.3)
  // ------------------------------------------------------------------

  /// tdp_service_event: dispatches every pending completion/notification
  /// callback on the calling thread, and — for an RM session — polls the
  /// process backend, publishes state changes into the attribute space
  /// (attribute "proc_state.<pid>" plus the standard app_state), and serves
  /// queued tool control requests. Returns the number of events handled.
  int service_events();

  /// Descriptor that polls readable when service_events() has work
  /// (attribute traffic). RM loops should also call service_events on a
  /// short timer tick to reap child state changes.
  [[nodiscard]] int event_fd() const;

  // ------------------------------------------------------------------
  // Tool communication (Section 2.4)
  // ------------------------------------------------------------------

  /// Connects to `target_address` (e.g. the tool front-end), transparently
  /// falling back to the RM's proxy when a firewall blocks the direct
  /// route. `service` names the registered proxy service.
  Result<std::unique_ptr<net::Endpoint>> connect_to(const std::string& target_address,
                                                    const std::string& service);

  // ------------------------------------------------------------------
  // Lifecycle
  // ------------------------------------------------------------------

  /// tdp_exit: leaves the context; the space is destroyed server-side when
  /// the last participant exits. The session is unusable afterwards.
  Status exit();

  /// Simulates daemon death: severs both space connections without the
  /// tdp_exit protocol, as a crashed process would. Contexts are NOT left
  /// cleanly — survivors notice via broken transports or missed leases.
  void abandon();

  [[nodiscard]] Role role() const noexcept { return role_; }
  [[nodiscard]] const std::string& context() const noexcept { return context_; }
  [[nodiscard]] bool has_cass() const noexcept { return cass_ != nullptr; }

  /// Direct access to the underlying clients (examples, tests).
  attr::AttrClient& lass_client() { return *lass_; }

 private:
  explicit TdpSession(InitOptions options);

  /// Joins the LASS over `lass`, or dials options_.lass_address when it is
  /// null, then the CASS; an RM also subscribes to control requests.
  Status connect_spaces(std::unique_ptr<net::Endpoint> lass);

  /// RM: executes one control op named by a tool request attribute.
  void serve_control_request(const std::string& attribute, const std::string& value);

  /// RT: round-trips one control request through the attribute space.
  Status request_control(const std::string& op, proc::Pid pid);

  /// RM: publishes one backend event into the space.
  void publish_event(const proc::ProcessEvent& event);

  Role role_;
  std::string context_;
  InitOptions options_;
  std::unique_ptr<attr::AttrClient> lass_;
  std::unique_ptr<attr::AttrClient> cass_;
  std::shared_ptr<proc::ProcessBackend> backend_;
  std::atomic<std::uint64_t> request_counter_{0};
  std::string request_token_;  ///< unique per session, namespaces requests
  std::atomic<bool> exited_{false};
};

/// Attribute-name helpers for the RT->RM control channel and RM->RT status
/// publication. Exposed for tests and for RMs implementing richer policies.
namespace control {
/// "tdpreq.<token>.<n>" - a tool's control request; value "op:<op> pid:<pid>".
std::string request_attr(const std::string& token, std::uint64_t n);
/// "tdprep.<token>.<n>" - the RM's reply; value "ok" or "error:<detail>".
std::string reply_attr(const std::string& token, std::uint64_t n);
/// "proc_state.<pid>" - latest state of a process, value from
/// process_state_name plus optional ":code".
std::string state_attr(proc::Pid pid);
/// The subscription pattern an RM uses to see all control requests.
inline constexpr const char* kRequestPattern = "tdpreq.*";
}  // namespace control

}  // namespace tdp
