// test_chaos_kill.cpp - the daemon-death kill matrix (PR 5).
//
// The paper's failure model (Section 2.3) assigns each process to exactly
// one failure domain and requires the survivors to detect and respond.
// This file kills one daemon per test - paradynd, startd, schedd - at a
// seed-derived moment mid-run and asserts the system-level outcome:
//
//   * paradynd killed  -> the application is NEVER touched (the RM owns
//     the processes); the starter's lease expires and a replacement daemon
//     reattaches through the ordinary Figure 6 handshake (the pid is still
//     in the LASS). The job completes, monitored again.
//   * startd killed    -> no checkpoint, no goodbye. The job is requeued
//     EXACTLY ONCE - via the claim-journal replay when the master revives
//     the daemon, or via lease expiry when the restart budget is spent -
//     and completes on a surviving machine.
//   * schedd killed    -> the queue is rebuilt from the write-ahead
//     journal; in-flight jobs restart idle and every job still completes.
//   * control          -> with journals and leases disabled the same
//     startd kill demonstrably LOSES the job: nothing ever requeues it.
//
// Seeds vary the kill moment (how many pump turns after the job starts
// running), so the matrix probes different interleavings of the claim,
// activate and monitor phases.

//
// PR 9 extends every kill with the black-box check: a daemon death must
// leave a decodable capsule behind (dumped by whatever peer detected the
// death), and merging the victim's capsule with its killers' must yield a
// causally-ordered timeline — the victim's last heartbeat strictly before
// the detector's lease-expiry verdict.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "attrspace/attr_store.hpp"
#include "chaos_util.hpp"
#include "condor/pool.hpp"
#include "paradyn/paradynd.hpp"
#include "proc/sim_backend.hpp"
#include "support/tempdir.hpp"
#include "util/flightrec.hpp"
#include "util/health.hpp"
#include "util/journal.hpp"
#include "util/lease.hpp"

namespace tdp {
namespace {

using chaos::Watchdog;
using chaos::Wire;
using condor::JobDescription;
using condor::JobId;
using condor::JobStatus;
using condor::Master;
using condor::Pool;
using condor::PoolConfig;

/// Tight lease so death detection fits in a test: a daemon is presumed
/// dead ~230ms after its last beat.
lease::Config fast_lease() {
  lease::Config config;
  config.ttl_micros = 150'000;
  config.grace_micros = 80'000;
  config.beat_interval_micros = 25'000;
  return config;
}

/// In-process paradynd launcher whose daemons can be murdered: kill(i)
/// makes daemon i abandon() - connections severed, no tdp_exit, heartbeats
/// stop - exactly what a SIGKILL leaves behind.
class KillableParadynLauncher final : public condor::ToolLauncher {
 public:
  explicit KillableParadynLauncher(std::shared_ptr<net::Transport> transport)
      : transport_(std::move(transport)) {}
  ~KillableParadynLauncher() override { join_all(); }

  /// Flight recorder the next launched daemon beats into (PR 9). The pool
  /// hands the same ring to the starter as tool_recorder, so the starter
  /// can dump the victim's capsule after a kill.
  void set_recorder_source(
      std::function<std::shared_ptr<flightrec::Recorder>()> source) {
    std::lock_guard<std::mutex> lock(mutex_);
    recorder_source_ = std::move(source);
  }

  Result<proc::Pid> launch(const condor::ToolDaemonSpec& spec,
                           const std::vector<std::string>& argv,
                           const std::string& lass_address,
                           const std::string& context,
                           const std::string& pid_attribute,
                           TdpSession& rm_session) override {
    (void)spec;
    (void)argv;
    (void)rm_session;
    paradyn::ParadyndConfig config;
    config.lass_address = lass_address;
    config.context = context;
    config.pid_attribute = pid_attribute;
    config.transport = transport_;
    config.sample_quantum_micros = 2'000;
    config.liveness = fast_lease();
    auto kill_flag = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> lock(mutex_);
    if (recorder_source_) config.recorder = recorder_source_();
    kill_flags_.push_back(kill_flag);
    threads_.emplace_back([config = std::move(config), kill_flag]() mutable {
      paradyn::Paradynd daemon(std::move(config));
      if (!daemon.start().is_ok()) return;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (std::chrono::steady_clock::now() < deadline) {
        if (kill_flag->load(std::memory_order_acquire)) {
          daemon.abandon();  // murdered: no exit protocol, app left running
          return;
        }
        if (!daemon.poll_once()) break;  // application exited; final report sent
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      daemon.stop();
    });
    ++launched_;
    return static_cast<proc::Pid>(-static_cast<std::int64_t>(launched_));
  }

  void kill(std::size_t index) {
    std::lock_guard<std::mutex> lock(mutex_);
    ASSERT_LT(index, kill_flags_.size());
    kill_flags_[index]->store(true, std::memory_order_release);
  }

  [[nodiscard]] std::size_t launched() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return launched_;
  }

  void join_all() {
    std::vector<std::thread> to_join;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      to_join.swap(threads_);
    }
    for (auto& thread : to_join) {
      if (thread.joinable()) thread.join();
    }
  }

 private:
  std::shared_ptr<net::Transport> transport_;
  mutable std::mutex mutex_;
  std::vector<std::thread> threads_;
  std::vector<std::shared_ptr<std::atomic<bool>>> kill_flags_;
  std::function<std::shared_ptr<flightrec::Recorder>()> recorder_source_;
  std::size_t launched_ = 0;
};

/// A pool plus the state that outlives daemon deaths: sim backends and the
/// journals (the "disk").
struct KillCluster {
  std::shared_ptr<net::Transport> transport;
  std::map<std::string, std::shared_ptr<proc::SimProcessBackend>> backends;
  std::map<std::string, std::unique_ptr<journal::Journal>> claim_journals;
  std::unique_ptr<journal::Journal> schedd_journal;
  std::unique_ptr<Pool> pool;
};

struct ClusterOptions {
  int machines = 2;
  bool recovery = true;  ///< journals + startd leases; false = the control
  int startd_restart_budget = 5;
  condor::ToolLauncher* tool_launcher = nullptr;
  bool tool_lease = false;
  /// Share an existing in-proc universe (tool launchers need the same one).
  std::shared_ptr<net::Transport> transport;
  /// PR 9: turn the black box on and dump capsules into this directory
  /// (created fresh by make_cluster).
  std::string capsule_dir;
  /// PR 9: attribute store the pool publishes health to and listens on for
  /// operator blackbox pokes. Must outlive the cluster.
  attr::AttributeStore* cass_store = nullptr;
  std::vector<std::string> health_rules;
};

KillCluster make_cluster(const ClusterOptions& options) {
  KillCluster cluster;
  cluster.transport =
      options.transport ? options.transport : chaos::make_base(Wire::kInProc);

  PoolConfig config;
  config.transport = cluster.transport;
  config.use_real_files = false;
  config.tool_launcher = options.tool_launcher;
  config.tool_wait_timeout_ms = 30'000;
  config.backend_factory = [&cluster](const std::string& machine) {
    auto backend = std::make_shared<proc::SimProcessBackend>();
    cluster.backends[machine] = backend;
    return backend;
  };
  if (options.recovery) {
    config.enable_liveness = true;
    config.startd_lease = fast_lease();
    cluster.schedd_journal = journal::Journal::in_memory();
    config.schedd_journal = cluster.schedd_journal.get();
    config.startd_journal_factory =
        [&cluster](const std::string& machine) -> journal::Journal* {
      auto& slot = cluster.claim_journals[machine];
      if (!slot) slot = journal::Journal::in_memory();
      return slot.get();
    };
    config.restart_policy.restart_budget = options.startd_restart_budget;
    config.restart_policy.base_backoff_ms = 5;
    config.restart_policy.max_backoff_ms = 50;
  }
  if (options.tool_lease) {
    config.tool_lease_enabled = true;
    config.tool_lease = fast_lease();
    config.tool_restart_budget = 2;
  }
  if (!options.capsule_dir.empty()) {
    std::filesystem::remove_all(options.capsule_dir);
    std::filesystem::create_directories(options.capsule_dir);
    config.enable_flightrec = true;
    config.capsule_dir = options.capsule_dir;
  }
  config.cass_store = options.cass_store;
  config.health_rules = options.health_rules;
  cluster.pool = std::make_unique<Pool>(std::move(config));
  for (int i = 0; i < options.machines; ++i) {
    const std::string name = "node" + std::to_string(i);
    cluster.pool->add_machine(name, Pool::default_machine_ad(name));
  }
  return cluster;
}

JobDescription sim_job(std::int64_t work_units, bool with_tool) {
  JobDescription job;
  job.executable = "simulated_app";
  job.sim_work_units = work_units;
  if (with_tool) {
    job.suspend_job_at_exec = true;
    job.tool_daemon.present = true;
    job.tool_daemon.cmd = "paradynd";
    job.tool_daemon.args = "-zunix -l3 -a%pid";
  }
  return job;
}

/// Drives negotiate/pump/backend-step until `done` or timeout; returns
/// whether `done` fired.
template <typename Predicate>
bool drive(KillCluster& cluster, Predicate done, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    cluster.pool->negotiate();
    cluster.pool->pump();
    for (auto& [name, backend] : cluster.backends) backend->step(1);
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

bool job_terminal(KillCluster& cluster, JobId id) {
  auto record = cluster.pool->schedd().job(id);
  return record.is_ok() && condor::job_status_terminal(record->status);
}

/// Per-test capsule directory so a stale capsule from another scenario can
/// never satisfy an assertion.
std::string capsule_dir_for(const std::string& tag, std::uint64_t seed) {
  return testdir::path("capsules_" + tag + "_" + std::to_string(seed));
}

/// Reads and decodes the capsule `role`.`host`, failing the test loudly on
/// a missing or damaged one. Every kill scenario ends with at least one of
/// these: a death without a decodable black box is a bug.
flightrec::Capsule must_read_capsule(KillCluster& cluster,
                                     const std::string& role,
                                     const std::string& host) {
  const std::string path = cluster.pool->capsule_path(role, host);
  auto capsule = flightrec::read_capsule(path);
  EXPECT_TRUE(capsule.is_ok())
      << "no decodable capsule for " << role << "." << host << " at " << path
      << ": " << capsule.status().to_string();
  if (!capsule.is_ok()) return flightrec::Capsule{};
  EXPECT_EQ(capsule->role, role);
  EXPECT_EQ(capsule->host, host);
  return std::move(capsule.value());
}

/// Index of the first timeline event matching, or -1.
template <typename Predicate>
int timeline_find(const std::vector<flightrec::TimelineEvent>& timeline,
                  Predicate pred) {
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    if (pred(timeline[i])) return static_cast<int>(i);
  }
  return -1;
}

/// Waits until the job is kRunning, then a seed-derived number of extra
/// turns, so each seed kills at a different phase of the run.
bool run_until_kill_point(KillCluster& cluster, JobId id, std::uint64_t seed) {
  const bool running = drive(
      cluster,
      [&] {
        auto record = cluster.pool->schedd().job(id);
        return record.is_ok() && record->status == JobStatus::kRunning;
      },
      20'000);
  if (!running) return false;
  int extra = static_cast<int>(5 + seed % 37);
  return drive(cluster, [&] { return --extra <= 0 || job_terminal(cluster, id); },
               20'000);
}

class ChaosKillTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosKillTest, KillParadyndMidRunAppSurvivesAndToolReattaches) {
  const std::uint64_t seed = GetParam();
  Watchdog dog("KillParadynd/seed=" + std::to_string(seed), 110'000);

  ClusterOptions options;
  options.machines = 1;
  options.tool_lease = true;
  options.transport = chaos::make_base(Wire::kInProc);
  options.capsule_dir = capsule_dir_for("paradynd", seed);
  KillableParadynLauncher launcher(options.transport);
  options.tool_launcher = &launcher;
  KillCluster cluster = make_cluster(options);
  // The launched daemon beats into the pool's "paradynd" ring — the same
  // ring the starter holds as tool_recorder and dumps on lease expiry.
  launcher.set_recorder_source(
      [&cluster] { return cluster.pool->recorder("paradynd", "node0"); });

  const JobId id = cluster.pool->submit(sim_job(900, /*with_tool=*/true));
  ASSERT_TRUE(run_until_kill_point(cluster, id, seed));
  ASSERT_EQ(launcher.launched(), 1u);
  launcher.kill(0);

  // The job must complete, and along the way the starter must have
  // relaunched the tool exactly once (observed live: the starter retires
  // with the job).
  int restarts_seen = 0;
  const bool completed = drive(
      cluster,
      [&] {
        if (condor::Startd* startd = cluster.pool->startd("node0")) {
          if (condor::Starter* starter = startd->starter()) {
            restarts_seen = std::max(restarts_seen, starter->tool_restarts(0));
          }
        }
        return job_terminal(cluster, id);
      },
      60'000);
  ASSERT_TRUE(completed) << "job never finished after the tool daemon died";

  auto record = cluster.pool->schedd().job(id);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted) << record->failure_reason;
  EXPECT_EQ(record->exit_code, 0);
  // The application was never killed or requeued: killing the RT must not
  // touch the AP's failure domain.
  EXPECT_EQ(record->restarts, 0);
  EXPECT_EQ(cluster.pool->orphan_requeues(), 0u);
  // The lease expired and exactly one replacement daemon reattached.
  EXPECT_EQ(restarts_seen, 1);
  EXPECT_EQ(launcher.launched(), 2u);
  launcher.join_all();

  // The starter dumped the murdered tool daemon's black box when its lease
  // expired; the capsule must decode and show the daemon was beating until
  // the kill.
  const flightrec::Capsule capsule =
      must_read_capsule(cluster, "paradynd", "node0");
  EXPECT_EQ(capsule.reason, "lease-expired");
  int beats = 0;
  for (const auto& event : capsule.events) {
    if (event.kind == flightrec::EventKind::kLease && event.what == "beat") {
      ++beats;
    }
  }
  EXPECT_GE(beats, 1) << "victim's capsule shows no heartbeats";
}

TEST_P(ChaosKillTest, KillStartdJournalReplayRequeuesExactlyOnce) {
  const std::uint64_t seed = GetParam();
  Watchdog dog("KillStartdJournal/seed=" + std::to_string(seed), 110'000);

  attr::AttributeStore cass;
  ClusterOptions options;
  options.machines = 2;
  options.capsule_dir = capsule_dir_for("startd_journal", seed);
  options.cass_store = &cass;
  options.health_rules = {
      "up: machine.alive value below warn=0.9 critical=0.4"};
  KillCluster cluster = make_cluster(options);

  const JobId id = cluster.pool->submit(sim_job(400, /*with_tool=*/false));
  ASSERT_TRUE(run_until_kill_point(cluster, id, seed));

  auto running = cluster.pool->schedd().job(id);
  ASSERT_TRUE(running.is_ok());
  const std::string victim = running->matched_machine;
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(cluster.pool->kill_startd(victim).is_ok());

  // The health engine sees the death: before any pump turn can revive the
  // daemon, the published per-host verdict is critical (machine.alive=0
  // trips the below-rule), and the pool-wide fold goes critical with it.
  const std::string victim_attr = health::health_attr("startd", victim);
  cluster.pool->publish_health();
  auto down = cass.get("cass", victim_attr);
  ASSERT_TRUE(down.is_ok());
  EXPECT_EQ(down->rfind("critical rule=up", 0), 0u) << down.value();
  auto overall_down =
      cass.get("cass", std::string(health::kHealthPrefix) + "startd");
  ASSERT_TRUE(overall_down.is_ok());
  EXPECT_EQ(overall_down.value(), "critical");

  ASSERT_TRUE(drive(cluster, [&] { return job_terminal(cluster, id); }, 60'000))
      << "job never finished after its startd was killed";

  auto record = cluster.pool->schedd().job(id);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted) << record->failure_reason;
  // Exactly-once: both the claim-journal replay and the lease expiry saw
  // the orphan, but only one requeue happened.
  EXPECT_EQ(record->restarts, 1);
  EXPECT_EQ(cluster.pool->orphan_requeues(), 1u);
  // The master actually revived the dead daemon.
  EXPECT_GE(cluster.pool->master().restart_count("startd@" + victim), 1u);
  EXPECT_EQ(cluster.pool->master().health("startd@" + victim),
            Master::DaemonHealth::kHealthy);

  // ... and with the daemon back, health returns to ok: the rule fires and
  // clears, no latching (the critical-and-back transition end to end).
  cluster.pool->publish_health();
  auto verdict = cass.get("cass", victim_attr);
  ASSERT_TRUE(verdict.is_ok());
  EXPECT_EQ(verdict.value(), "ok");
  auto overall = cass.get("cass", std::string(health::kHealthPrefix) + "startd");
  ASSERT_TRUE(overall.is_ok());
  EXPECT_EQ(overall.value(), "ok");

  // The revival dumped the victim's black box; the capsule must decode and
  // hold the daemon's life up to the kill.
  const flightrec::Capsule capsule =
      must_read_capsule(cluster, "startd", victim);
  EXPECT_TRUE(capsule.reason == "death-detected" ||
              capsule.reason == "lease-expired")
      << capsule.reason;
  EXPECT_FALSE(capsule.events.empty());
}

TEST_P(ChaosKillTest, KillStartdLeaseExpiryRequeuesWhenRestartBudgetSpent) {
  const std::uint64_t seed = GetParam();
  Watchdog dog("KillStartdLease/seed=" + std::to_string(seed), 110'000);

  attr::AttributeStore cass;
  ClusterOptions options;
  options.machines = 2;
  options.startd_restart_budget = 0;  // the master may never revive it
  options.capsule_dir = capsule_dir_for("startd_lease", seed);
  options.cass_store = &cass;
  KillCluster cluster = make_cluster(options);

  const JobId id = cluster.pool->submit(sim_job(400, /*with_tool=*/false));
  ASSERT_TRUE(run_until_kill_point(cluster, id, seed));

  auto running = cluster.pool->schedd().job(id);
  ASSERT_TRUE(running.is_ok());
  const std::string victim = running->matched_machine;
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(cluster.pool->kill_startd(victim).is_ok());

  ASSERT_TRUE(drive(cluster, [&] { return job_terminal(cluster, id); }, 60'000))
      << "lease expiry never rescued the job";

  auto record = cluster.pool->schedd().job(id);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted) << record->failure_reason;
  EXPECT_EQ(record->restarts, 1);
  EXPECT_EQ(cluster.pool->orphan_requeues(), 1u);
  // The job finished on the surviving machine.
  EXPECT_NE(record->matched_machine, victim);
  // Restart storm bounded: the breaker opened instead of spinning.
  EXPECT_EQ(cluster.pool->master().health("startd@" + victim),
            Master::DaemonHealth::kHalted);
  EXPECT_GE(cluster.pool->master().stats().circuit_breaks, 1u);

  // --- the black-box post-mortem (PR 9) ---
  // The lease monitor dumped the victim's capsule at expiry. The pool's
  // and master's rings come out via the operator trigger: a put on
  // tdp.control.blackbox.<role>.<host> answers with a dump.
  ASSERT_TRUE(cass.put("cass", flightrec::control_attr("pool", "central"),
                       "post-mortem")
                  .is_ok());
  ASSERT_TRUE(cass.put("cass", flightrec::control_attr("master", "central"),
                       "post-mortem")
                  .is_ok());

  const flightrec::Capsule victim_capsule =
      must_read_capsule(cluster, "startd", victim);
  EXPECT_EQ(victim_capsule.reason, "lease-expired");
  const flightrec::Capsule pool_capsule =
      must_read_capsule(cluster, "pool", "central");
  EXPECT_EQ(pool_capsule.reason, "post-mortem");
  const flightrec::Capsule master_capsule =
      must_read_capsule(cluster, "master", "central");

  // Merge the three daemons' capsules into one timeline: the killer's
  // lease-expiry verdict must order strictly after the victim's last
  // heartbeat — the causal story "it beat, it stopped, we noticed".
  const std::vector<flightrec::TimelineEvent> timeline =
      flightrec::merge_timeline({victim_capsule, pool_capsule, master_capsule});
  int last_beat = -1;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const auto& entry = timeline[i];
    if (entry.role == "startd" && entry.host == victim &&
        entry.event.kind == flightrec::EventKind::kLease &&
        entry.event.what == "beat") {
      last_beat = static_cast<int>(i);
    }
  }
  const int expiry = timeline_find(timeline, [&](const auto& entry) {
    return entry.role == "pool" &&
           entry.event.kind == flightrec::EventKind::kLease &&
           entry.event.what == "expired" &&
           entry.event.detail.find(victim) != std::string::npos;
  });
  ASSERT_GE(last_beat, 0) << "victim's heartbeats missing from the timeline";
  ASSERT_GE(expiry, 0) << "pool's lease-expiry verdict missing";
  EXPECT_LT(last_beat, expiry)
      << "expiry verdict merged before the victim's last beat";
  // The pool's poke bookkeeping also landed in its own capsule.
  const int poke = timeline_find(timeline, [](const auto& entry) {
    return entry.event.kind == flightrec::EventKind::kControl &&
           entry.event.what == "poke";
  });
  EXPECT_GE(poke, 0);
}

TEST_P(ChaosKillTest, KillScheddQueueRecoversFromJournal) {
  const std::uint64_t seed = GetParam();
  Watchdog dog("KillSchedd/seed=" + std::to_string(seed), 110'000);

  ClusterOptions options;
  options.machines = 2;
  options.capsule_dir = capsule_dir_for("schedd", seed);
  KillCluster cluster = make_cluster(options);

  std::vector<JobId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(cluster.pool->submit(sim_job(150 + 50 * i, /*with_tool=*/false)));
  }
  ASSERT_TRUE(run_until_kill_point(cluster, ids.front(), seed));

  cluster.pool->kill_schedd();
  // The dead daemon answers like a dead process: nothing there.
  EXPECT_EQ(cluster.pool->schedd().queue_size(), 0u);

  ASSERT_TRUE(drive(
      cluster,
      [&] {
        for (JobId id : ids) {
          if (!job_terminal(cluster, id)) return false;
        }
        return true;
      },
      60'000))
      << "queue never drained after the schedd was killed";

  for (JobId id : ids) {
    auto record = cluster.pool->schedd().job(id);
    ASSERT_TRUE(record.is_ok()) << "job " << id << " lost by recovery";
    EXPECT_EQ(record->status, JobStatus::kCompleted) << record->failure_reason;
  }
  EXPECT_EQ(cluster.pool->schedd().queue_size(), 3u);
  EXPECT_GE(cluster.pool->master().restart_count("schedd"), 1u);

  // The master dumped the crashed schedd's black box before rebuilding the
  // queue: the capsule must decode and end with the crash transition (the
  // dropped-jobs count recorded by the dying object, preserved because the
  // ring belongs to the pool, not the daemon).
  const flightrec::Capsule capsule =
      must_read_capsule(cluster, "schedd", "central");
  EXPECT_EQ(capsule.reason, "crash-detected");
  const bool crash_recorded =
      std::any_of(capsule.events.begin(), capsule.events.end(),
                  [](const flightrec::Event& event) {
                    return event.kind == flightrec::EventKind::kState &&
                           event.what == "crash";
                  });
  EXPECT_TRUE(crash_recorded) << "schedd capsule missing the crash event";
}

TEST_P(ChaosKillTest, ControlWithoutRecoveryLosesTheJob) {
  const std::uint64_t seed = GetParam();
  Watchdog dog("ControlNoRecovery/seed=" + std::to_string(seed), 110'000);

  ClusterOptions options;
  options.machines = 2;
  options.recovery = false;  // no journals, no leases - the seed pipeline
  KillCluster cluster = make_cluster(options);

  const JobId id = cluster.pool->submit(sim_job(400, /*with_tool=*/false));
  ASSERT_TRUE(run_until_kill_point(cluster, id, seed));

  auto running = cluster.pool->schedd().job(id);
  ASSERT_TRUE(running.is_ok());
  const std::string victim = running->matched_machine;
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(cluster.pool->kill_startd(victim).is_ok());

  // Give the pool ample time to (not) notice: without the claim journal
  // and the lease nothing ever learns the job's processes are gone.
  EXPECT_FALSE(drive(cluster, [&] { return job_terminal(cluster, id); }, 1'500));

  auto record = cluster.pool->schedd().job(id);
  ASSERT_TRUE(record.is_ok());
  EXPECT_FALSE(condor::job_status_terminal(record->status))
      << "control run unexpectedly finished: recovery is not what saved it";
  EXPECT_EQ(record->restarts, 0);
  EXPECT_EQ(cluster.pool->orphan_requeues(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosKillTest, ::testing::ValuesIn(chaos::seeds()),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tdp
