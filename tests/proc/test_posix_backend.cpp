// Tests for the real POSIX backend: create/run/paused semantics against
// actual OS processes. These tests assert the paper's key claim about
// create-paused: the process is stopped *after* exec, before main() has a
// chance to run.
#include "proc/posix_backend.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <thread>

#include "support/tempdir.hpp"

namespace tdp::proc {
namespace {

/// Reads /proc/<pid>/stat field 3 (process state letter) and the comm.
struct ProcStat {
  std::string comm;
  char state = '?';
};

ProcStat read_proc_stat(Pid pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  ProcStat out;
  if (!in) return out;
  std::string rest;
  std::getline(in, rest);
  // Format: pid (comm) state ... — comm may contain spaces, find the parens.
  auto open = rest.find('(');
  auto close = rest.rfind(')');
  if (open == std::string::npos || close == std::string::npos) return out;
  out.comm = rest.substr(open + 1, close - open - 1);
  if (close + 2 < rest.size()) out.state = rest[close + 2];
  return out;
}

/// Signal delivery is asynchronous: after SIGSTOP (or a detach-with-stop)
/// the /proc state flips to 'T' shortly after, not instantly. Polls for it.
bool wait_for_proc_state(Pid pid, char expected, int timeout_ms = 2000) {
  for (int elapsed = 0; elapsed < timeout_ms; elapsed += 2) {
    if (read_proc_stat(pid).state == expected) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return read_proc_stat(pid).state == expected;
}

CreateOptions sleep_options(CreateMode mode, const char* seconds = "5") {
  CreateOptions options;
  options.argv = {"/bin/sleep", seconds};
  options.mode = mode;
  return options;
}

TEST(PosixBackend, CreateRunAndExit) {
  PosixProcessBackend backend;
  CreateOptions options;
  options.argv = {"/bin/true"};
  auto pid = backend.create_process(options);
  ASSERT_TRUE(pid.is_ok()) << pid.status().to_string();
  auto final_info = backend.wait_terminal(pid.value(), 5000);
  ASSERT_TRUE(final_info.is_ok());
  EXPECT_EQ(final_info->state, ProcessState::kExited);
  EXPECT_EQ(final_info->exit_code, 0);
}

TEST(PosixBackend, ExitCodePropagates) {
  PosixProcessBackend backend;
  CreateOptions options;
  options.argv = {"/bin/sh", "-c", "exit 42"};
  auto pid = backend.create_process(options);
  ASSERT_TRUE(pid.is_ok());
  auto final_info = backend.wait_terminal(pid.value(), 5000);
  ASSERT_TRUE(final_info.is_ok());
  EXPECT_EQ(final_info->state, ProcessState::kExited);
  EXPECT_EQ(final_info->exit_code, 42);
}

TEST(PosixBackend, ExecFailureReported) {
  PosixProcessBackend backend;
  CreateOptions options;
  options.argv = {"/no/such/binary"};
  auto pid = backend.create_process(options);
  ASSERT_FALSE(pid.is_ok());
  EXPECT_EQ(pid.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(pid.status().message().find("/no/such/binary"), std::string::npos);
  EXPECT_EQ(backend.managed_count(), 0u);
}

TEST(PosixBackend, EmptyArgvRejected) {
  PosixProcessBackend backend;
  EXPECT_EQ(backend.create_process(CreateOptions{}).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(PosixBackend, CreatePausedStopsAfterExec) {
  PosixProcessBackend backend;
  auto pid = backend.create_process(sleep_options(CreateMode::kPaused));
  ASSERT_TRUE(pid.is_ok()) << pid.status().to_string();

  auto info = backend.info(pid.value());
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info->state, ProcessState::kPausedAtExec);

  // The decisive check: exec has already happened (comm is "sleep", not the
  // test binary) but the process is stopped (state 'T').
  EXPECT_EQ(read_proc_stat(pid.value()).comm, "sleep");
  EXPECT_TRUE(wait_for_proc_state(pid.value(), 'T'));

  ASSERT_TRUE(backend.kill_process(pid.value()).is_ok());
  auto final_info = backend.wait_terminal(pid.value(), 5000);
  ASSERT_TRUE(final_info.is_ok());
  EXPECT_EQ(final_info->state, ProcessState::kSignalled);
  EXPECT_EQ(final_info->term_signal, SIGKILL);
}

TEST(PosixBackend, CreatePausedBeforeExecStopsBeforeExec) {
  PosixProcessBackend backend;
  auto pid = backend.create_process(sleep_options(CreateMode::kPausedBeforeExec));
  ASSERT_TRUE(pid.is_ok());

  // Stopped, but exec has NOT happened: comm is still the parent image.
  EXPECT_TRUE(wait_for_proc_state(pid.value(), 'T'));
  EXPECT_NE(read_proc_stat(pid.value()).comm, "sleep");

  // Continue: exec proceeds, the sleep runs.
  ASSERT_TRUE(backend.continue_process(pid.value()).is_ok());
  for (int i = 0; i < 200; ++i) {
    if (read_proc_stat(pid.value()).comm == "sleep") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(read_proc_stat(pid.value()).comm, "sleep");
  backend.kill_process(pid.value());
  backend.wait_terminal(pid.value(), 5000);
}

TEST(PosixBackend, ContinueResumesPausedProcess) {
  PosixProcessBackend backend;
  CreateOptions options;
  options.argv = {"/bin/true"};
  options.mode = CreateMode::kPaused;
  auto pid = backend.create_process(options);
  ASSERT_TRUE(pid.is_ok());
  EXPECT_EQ(backend.info(pid.value())->state, ProcessState::kPausedAtExec);

  ASSERT_TRUE(backend.continue_process(pid.value()).is_ok());
  auto final_info = backend.wait_terminal(pid.value(), 5000);
  ASSERT_TRUE(final_info.is_ok());
  EXPECT_EQ(final_info->state, ProcessState::kExited);
  EXPECT_EQ(final_info->exit_code, 0);
}

TEST(PosixBackend, PauseAndContinueRunningProcess) {
  PosixProcessBackend backend;
  auto pid = backend.create_process(sleep_options(CreateMode::kRun));
  ASSERT_TRUE(pid.is_ok());
  EXPECT_EQ(backend.info(pid.value())->state, ProcessState::kRunning);

  ASSERT_TRUE(backend.pause_process(pid.value()).is_ok());
  EXPECT_EQ(backend.info(pid.value())->state, ProcessState::kStopped);
  EXPECT_TRUE(wait_for_proc_state(pid.value(), 'T'));

  ASSERT_TRUE(backend.continue_process(pid.value()).is_ok());
  EXPECT_EQ(backend.info(pid.value())->state, ProcessState::kRunning);

  backend.kill_process(pid.value());
  backend.wait_terminal(pid.value(), 5000);
}

TEST(PosixBackend, AttachPausesRunningProcess) {
  PosixProcessBackend backend;
  auto pid = backend.create_process(sleep_options(CreateMode::kRun));
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(backend.attach(pid.value()).is_ok());
  EXPECT_EQ(backend.info(pid.value())->state, ProcessState::kStopped);
  // Attaching again is idempotent.
  ASSERT_TRUE(backend.attach(pid.value()).is_ok());
  backend.kill_process(pid.value());
  backend.wait_terminal(pid.value(), 5000);
}

TEST(PosixBackend, OperationsOnUnknownPidFail) {
  PosixProcessBackend backend;
  EXPECT_EQ(backend.attach(999999).code(), ErrorCode::kNotFound);
  EXPECT_EQ(backend.continue_process(999999).code(), ErrorCode::kNotFound);
  EXPECT_EQ(backend.pause_process(999999).code(), ErrorCode::kNotFound);
  EXPECT_EQ(backend.kill_process(999999).code(), ErrorCode::kNotFound);
  EXPECT_FALSE(backend.info(999999).is_ok());
}

TEST(PosixBackend, OperationsOnTerminalProcessFail) {
  PosixProcessBackend backend;
  CreateOptions options;
  options.argv = {"/bin/true"};
  auto pid = backend.create_process(options);
  ASSERT_TRUE(pid.is_ok());
  backend.wait_terminal(pid.value(), 5000);
  EXPECT_EQ(backend.continue_process(pid.value()).code(), ErrorCode::kInvalidState);
  EXPECT_EQ(backend.pause_process(pid.value()).code(), ErrorCode::kInvalidState);
  EXPECT_TRUE(backend.kill_process(pid.value()).is_ok());  // no-op on terminal
}

TEST(PosixBackend, PollEventsReportsLifecycle) {
  PosixProcessBackend backend;
  CreateOptions options;
  options.argv = {"/bin/true"};
  options.mode = CreateMode::kPaused;
  auto pid = backend.create_process(options);
  ASSERT_TRUE(pid.is_ok());
  backend.continue_process(pid.value());
  backend.wait_terminal(pid.value(), 5000);

  std::vector<ProcessEvent> all;
  for (const auto& event : backend.poll_events()) all.push_back(event);
  // At least the continue and the exit must be visible.
  bool saw_running = false, saw_exit = false;
  for (const auto& event : all) {
    if (event.state == ProcessState::kRunning) saw_running = true;
    if (event.state == ProcessState::kExited) {
      saw_exit = true;
      EXPECT_EQ(event.exit_code, 0);
    }
  }
  EXPECT_TRUE(saw_running);
  EXPECT_TRUE(saw_exit);
}

TEST(PosixBackend, StdioRedirection) {
  PosixProcessBackend backend;
  std::string out_path = testdir::path("stdio.out");
  CreateOptions options;
  options.argv = {"/bin/sh", "-c", "echo hello-from-job"};
  options.stdout_path = out_path;
  auto pid = backend.create_process(options);
  ASSERT_TRUE(pid.is_ok());
  backend.wait_terminal(pid.value(), 5000);
  std::ifstream in(out_path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "hello-from-job");
}

TEST(PosixBackend, WorkingDirectoryHonored) {
  PosixProcessBackend backend;
  std::string out_path = testdir::path("cwd.out");
  CreateOptions options;
  options.argv = {"/bin/sh", "-c", "pwd"};
  options.working_dir = "/tmp";
  options.stdout_path = out_path;
  auto pid = backend.create_process(options);
  ASSERT_TRUE(pid.is_ok());
  backend.wait_terminal(pid.value(), 5000);
  std::ifstream in(out_path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "/tmp");
}

TEST(PosixBackend, EnvironmentPassed) {
  PosixProcessBackend backend;
  std::string out_path = testdir::path("env.out");
  CreateOptions options;
  options.argv = {"/bin/sh", "-c", "echo $TDP_TEST_VAR"};
  options.env = {"TDP_TEST_VAR=present"};
  options.stdout_path = out_path;
  auto pid = backend.create_process(options);
  ASSERT_TRUE(pid.is_ok());
  backend.wait_terminal(pid.value(), 5000);
  std::ifstream in(out_path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "present");
}

TEST(PosixBackend, DestructorCleansUpLiveChildren) {
  Pid pid = 0;
  {
    PosixProcessBackend backend;
    auto created = backend.create_process(sleep_options(CreateMode::kRun, "30"));
    ASSERT_TRUE(created.is_ok());
    pid = created.value();
    EXPECT_EQ(backend.managed_count(), 1u);
  }
  // After the backend is gone the process must be dead (reaped by it).
  EXPECT_EQ(::kill(static_cast<pid_t>(pid), 0), -1);
}

TEST(PosixBackend, ManyConcurrentPausedProcesses) {
  PosixProcessBackend backend;
  std::vector<Pid> pids;
  for (int i = 0; i < 8; ++i) {
    auto pid = backend.create_process(sleep_options(CreateMode::kPaused));
    ASSERT_TRUE(pid.is_ok());
    pids.push_back(pid.value());
  }
  EXPECT_EQ(backend.managed_count(), 8u);
  for (Pid pid : pids) {
    EXPECT_EQ(backend.info(pid)->state, ProcessState::kPausedAtExec);
    backend.kill_process(pid);
  }
  for (Pid pid : pids) {
    auto final_info = backend.wait_terminal(pid, 5000);
    ASSERT_TRUE(final_info.is_ok());
    EXPECT_TRUE(is_terminal(final_info->state));
  }
}

}  // namespace
}  // namespace tdp::proc
