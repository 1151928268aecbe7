// Tests for the submit-side daemons (schedd/shadow), the matchmaker, the
// startd claiming protocol, the master supervisor, and file transfer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "condor/file_transfer.hpp"
#include "condor/master.hpp"
#include "condor/matchmaker.hpp"
#include "condor/schedd.hpp"
#include "condor/startd.hpp"
#include "condor/starter.hpp"
#include "condor/pool.hpp"
#include "net/inproc.hpp"
#include "proc/sim_backend.hpp"
#include "support/tempdir.hpp"

namespace tdp::condor {
namespace {

JobDescription trivial_job() {
  JobDescription job;
  job.executable = "/bin/true";
  return job;
}

// --- schedd ---

TEST(Schedd, SubmitAndQuery) {
  Schedd schedd;
  JobId id = schedd.submit(trivial_job());
  EXPECT_EQ(schedd.queue_size(), 1u);
  auto record = schedd.job(id);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kIdle);
  EXPECT_FALSE(schedd.job(id + 100).is_ok());
}

TEST(Schedd, IdleAdsInQueueOrder) {
  Schedd schedd;
  JobId a = schedd.submit(trivial_job());
  JobId b = schedd.submit(trivial_job());
  auto ads = schedd.idle_job_ads();
  ASSERT_EQ(ads.size(), 2u);
  EXPECT_EQ(ads[0].first, a);
  EXPECT_EQ(ads[1].first, b);
  schedd.set_matched(a, "m1");
  EXPECT_EQ(schedd.idle_job_ads().size(), 1u);
}

TEST(Schedd, StatusLifecycleGuards) {
  Schedd schedd;
  JobId id = schedd.submit(trivial_job());
  ASSERT_TRUE(schedd.set_matched(id, "node1").is_ok());
  EXPECT_EQ(schedd.set_matched(id, "node2").code(), ErrorCode::kInvalidState);
  ASSERT_TRUE(schedd.update_job(id, JobStatus::kRunning, -1, "").is_ok());
  ASSERT_TRUE(schedd.update_job(id, JobStatus::kCompleted, 0, "").is_ok());
  // Terminal is final.
  EXPECT_EQ(schedd.update_job(id, JobStatus::kRunning, -1, "").code(),
            ErrorCode::kInvalidState);
  EXPECT_EQ(schedd.remove_job(id).code(), ErrorCode::kInvalidState);
}

TEST(Schedd, RemoveIdleJob) {
  Schedd schedd;
  JobId id = schedd.submit(trivial_job());
  ASSERT_TRUE(schedd.remove_job(id).is_ok());
  EXPECT_EQ(schedd.job(id)->status, JobStatus::kRemoved);
  EXPECT_EQ(schedd.count_with_status(JobStatus::kRemoved), 1u);
}

TEST(Shadow, ForwardsStatusToSchedd) {
  Schedd schedd;
  JobId id = schedd.submit(trivial_job());
  schedd.set_matched(id, "node1");
  Shadow* shadow = schedd.spawn_shadow(id, "/tmp");
  ASSERT_NE(shadow, nullptr);
  EXPECT_EQ(schedd.shadow(id), shadow);

  shadow->on_job_status(id, JobStatus::kRunning, -1, "launched");
  EXPECT_EQ(schedd.job(id)->status, JobStatus::kRunning);
  shadow->on_job_status(id, JobStatus::kCompleted, 7, "");
  EXPECT_EQ(schedd.job(id)->status, JobStatus::kCompleted);
  EXPECT_EQ(schedd.job(id)->exit_code, 7);
  EXPECT_EQ(shadow->last_status(), JobStatus::kCompleted);
  EXPECT_EQ(shadow->exit_code(), 7);
  EXPECT_EQ(shadow->updates_received(), 2u);
}

TEST(Shadow, RemoteSyscalls) {
  const std::string dir = testdir::fresh("shadow_rsc");
  Shadow shadow(1, dir, nullptr);

  ASSERT_TRUE(shadow.remote_write("result.txt", "output data").is_ok());
  auto read_back = shadow.remote_read("result.txt");
  ASSERT_TRUE(read_back.is_ok());
  EXPECT_EQ(read_back.value(), "output data");
  EXPECT_EQ(shadow.remote_read("nope.txt").status().code(), ErrorCode::kNotFound);
}

// --- matchmaker ---

TEST(Matchmaker, MatchesBestRankedMachine) {
  Matchmaker matchmaker;
  matchmaker.advertise_machine("small", Pool::default_machine_ad("small", 128));
  matchmaker.advertise_machine("big", Pool::default_machine_ad("big", 4096));

  JobDescription job = trivial_job();
  job.rank = "TARGET.memory";
  auto matches = matchmaker.negotiate({{1, job.to_classad()}}, {});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].machine, "big");
  EXPECT_DOUBLE_EQ(matches[0].job_rank, 4096.0);
}

TEST(Matchmaker, RespectsBusySet) {
  Matchmaker matchmaker;
  matchmaker.advertise_machine("only", Pool::default_machine_ad("only"));
  auto matches = matchmaker.negotiate({{1, trivial_job().to_classad()}}, {"only"});
  EXPECT_TRUE(matches.empty());
}

TEST(Matchmaker, OneMachinePerCycle) {
  Matchmaker matchmaker;
  matchmaker.advertise_machine("m", Pool::default_machine_ad("m"));
  auto matches = matchmaker.negotiate(
      {{1, trivial_job().to_classad()}, {2, trivial_job().to_classad()}}, {});
  ASSERT_EQ(matches.size(), 1u);  // second job waits for next cycle
  EXPECT_EQ(matches[0].job, 1);
}

TEST(Matchmaker, RequirementsFilter) {
  Matchmaker matchmaker;
  matchmaker.advertise_machine("small", Pool::default_machine_ad("small", 128));
  JobDescription picky = trivial_job();
  picky.requirements = "TARGET.memory >= 1024";
  EXPECT_TRUE(matchmaker.negotiate({{1, picky.to_classad()}}, {}).empty());
  matchmaker.advertise_machine("big", Pool::default_machine_ad("big", 2048));
  auto matches = matchmaker.negotiate({{1, picky.to_classad()}}, {});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].machine, "big");
}

TEST(Matchmaker, WithdrawnMachineNotOffered) {
  Matchmaker matchmaker;
  matchmaker.advertise_machine("m", Pool::default_machine_ad("m"));
  matchmaker.withdraw_machine("m");
  EXPECT_EQ(matchmaker.machine_count(), 0u);
  EXPECT_TRUE(matchmaker.negotiate({{1, trivial_job().to_classad()}}, {}).empty());
}

TEST(Matchmaker, StatsAccumulate) {
  Matchmaker matchmaker;
  matchmaker.advertise_machine("m", Pool::default_machine_ad("m"));
  matchmaker.negotiate({{1, trivial_job().to_classad()}}, {});
  matchmaker.negotiate({}, {});
  auto stats = matchmaker.stats();
  EXPECT_EQ(stats.cycles, 2u);
  EXPECT_EQ(stats.matches, 1u);
  EXPECT_GE(stats.evaluations, 1u);
}

// --- startd claiming ---

TEST(Startd, ClaimingProtocol) {
  Startd startd("node1", Pool::default_machine_ad("node1"));
  EXPECT_EQ(startd.state(), Startd::State::kUnclaimed);

  EXPECT_TRUE(startd.request_claim(1, trivial_job().to_classad()));
  EXPECT_EQ(startd.state(), Startd::State::kClaimed);
  EXPECT_EQ(startd.claimed_job(), 1);

  // "either party may decide not to complete the allocation": a second
  // claim is refused while the first is live.
  EXPECT_FALSE(startd.request_claim(2, trivial_job().to_classad()));

  startd.release_claim();
  EXPECT_EQ(startd.state(), Startd::State::kUnclaimed);
  EXPECT_TRUE(startd.request_claim(2, trivial_job().to_classad()));
}

TEST(Startd, MachineSideRequirementsCheckedAtClaimTime) {
  auto ad = Pool::default_machine_ad("picky");
  ad.insert("requirements", "TARGET.imagesize <= 0");  // rejects everything
  Startd startd("picky", std::move(ad));
  EXPECT_FALSE(startd.request_claim(1, trivial_job().to_classad()));
  EXPECT_EQ(startd.state(), Startd::State::kUnclaimed);
}

TEST(Startd, ActivateRequiresMatchingClaim) {
  Startd startd("node1", Pool::default_machine_ad("node1"));
  JobRecord record;
  record.id = 9;
  record.description = trivial_job();
  StarterConfig config;  // incomplete config is fine: activation must fail first
  auto result = startd.activate(record, config, nullptr);
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidState);
}

// --- starter ---

TEST(Starter, PumpServesARequestQueuedDuringItsOwnCall) {
  // A tool request that reaches the RM while the RM waits on one of its
  // own calls is queued behind a descriptor that no longer reads as ready.
  // pump() must still serve it before returning, not on the next tick.
  auto backend = std::make_shared<proc::SimProcessBackend>();
  JobRecord record;
  record.id = 3;
  record.description.executable = "app";
  record.description.sim_work_units = 100;
  StarterConfig config;
  config.transport = net::InProcTransport::create();
  config.backend = backend;
  config.use_real_files = false;
  Starter starter(std::move(record), std::move(config), nullptr);
  ASSERT_TRUE(starter.launch().is_ok());
  const proc::Pid app = starter.app_pid();
  const std::string pid = std::to_string(app);

  // The tool's first request is queued before the turn. Serving it, the RM
  // puts its reply, and the moment that reply lands the tool sends its
  // second request: a store callback writes it as the tool would, while
  // the RM is still inside that put. (It writes into the store, never into
  // the RM's session.)
  attr::AttributeStore& store = starter.lass().store();
  const std::string context = starter.context();
  store.subscribe(context, control::reply_attr("tool", 0),
                  [&](const std::string&, const std::string&, const std::string&) {
                    store.put(context, control::request_attr("tool", 1),
                              "op:continue pid:" + pid);
                  });
  ASSERT_TRUE(
      store.put(context, control::request_attr("tool", 0), "op:pause pid:" + pid).is_ok());

  EXPECT_FALSE(starter.pump());
  EXPECT_EQ(store.get(context, control::reply_attr("tool", 0)).value_or(""), "ok");
  EXPECT_EQ(store.get(context, control::reply_attr("tool", 1)).value_or(""), "ok")
      << "the request queued during the RM's own put waited for the next pump";
  EXPECT_EQ(backend->info(app)->state, proc::ProcessState::kRunning);
}

// --- master ---

TEST(Master, RestartsDeadDaemons) {
  Master master;
  bool alive = true;
  int restarts = 0;
  master.supervise("startd@node1", [&] { return alive; },
                   [&] {
                     alive = true;
                     ++restarts;
                     return true;
                   });
  EXPECT_TRUE(master.tick().empty());

  alive = false;
  auto restarted = master.tick();
  ASSERT_EQ(restarted.size(), 1u);
  EXPECT_EQ(restarted[0], "startd@node1");
  EXPECT_EQ(restarts, 1);
  EXPECT_TRUE(alive);
  EXPECT_TRUE(master.tick().empty());

  auto stats = master.stats();
  EXPECT_EQ(stats.ticks, 3u);
  EXPECT_EQ(stats.restarts, 1u);
}

TEST(Master, FailedRestartCounted) {
  Master master;
  master.supervise("hopeless", [] { return false; }, [] { return false; });
  EXPECT_TRUE(master.tick().empty());
  EXPECT_EQ(master.stats().failed_restarts, 1u);
  master.forget("hopeless");
  EXPECT_EQ(master.supervised_count(), 0u);
}

TEST(Master, BackoffSeparatesConsecutiveAttempts) {
  ManualClock clock;
  Master::Policy policy;
  policy.base_backoff_ms = 10;
  policy.max_backoff_ms = 100;
  policy.restart_budget = 100;
  Master master(policy);
  master.set_clock(&clock);

  int attempts = 0;
  master.supervise("flappy", [] { return false; },
                   [&] {
                     ++attempts;
                     return true;
                   });
  master.tick();  // first restart is immediate
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(master.health("flappy"), Master::DaemonHealth::kRestarting);

  // Still inside the backoff window (max jittered delay for attempt 2 is
  // 15ms): repeated ticks must not hammer the restart action.
  for (int i = 0; i < 5; ++i) master.tick();
  EXPECT_EQ(attempts, 1);

  clock.advance_micros(15'000 + 1);
  master.tick();
  EXPECT_EQ(attempts, 2);

  // An alive probe resets the ladder: the next death restarts immediately.
  master.supervise("flappy", [] { return true; }, [&] { ++attempts; return true; });
  master.tick();
  EXPECT_EQ(master.health("flappy"), Master::DaemonHealth::kHealthy);
}

TEST(Master, CircuitBreakerHaltsAfterBudget) {
  ManualClock clock;
  Master::Policy policy;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  policy.restart_budget = 3;
  Master master(policy);
  master.set_clock(&clock);

  int attempts = 0;
  // Restart "succeeds" but the daemon never comes back: the classic
  // restart storm. The breaker must bound it at the budget.
  master.supervise("storm", [] { return false; },
                   [&] {
                     ++attempts;
                     return true;
                   });
  for (int i = 0; i < 20; ++i) {
    master.tick();
    clock.advance_micros(10'000);
  }
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(master.health("storm"), Master::DaemonHealth::kHalted);
  auto stats = master.stats();
  EXPECT_EQ(stats.restarts, 3u);
  EXPECT_EQ(stats.circuit_breaks, 1u);
  EXPECT_EQ(master.restart_count("storm"), 3u);

  // reset() closes the breaker and re-arms exactly one immediate attempt.
  master.reset("storm");
  master.tick();
  EXPECT_EQ(attempts, 4);
}

// --- file transfer ---

class FileTransferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    submit_dir_ = testdir::fresh("ft_submit");
    exec_dir_ = testdir::path("ft_exec");
    std::filesystem::remove_all(exec_dir_);
    write(submit_dir_ + "/infile", "input-bytes");
  }

  static void write(const std::string& path, const std::string& data) {
    std::ofstream out(path, std::ios::binary);
    out << data;
  }

  static std::string read(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return data;
  }

  std::string submit_dir_, exec_dir_;
};

TEST_F(FileTransferTest, StageInCopiesFile) {
  auto staged = FileTransfer::stage_in(submit_dir_, "infile", exec_dir_);
  ASSERT_TRUE(staged.is_ok()) << staged.status().to_string();
  EXPECT_EQ(read(staged.value()), "input-bytes");
}

TEST_F(FileTransferTest, StageInMissingFileFails) {
  auto staged = FileTransfer::stage_in(submit_dir_, "nope", exec_dir_);
  EXPECT_EQ(staged.status().code(), ErrorCode::kNotFound);
}

TEST_F(FileTransferTest, StageInPreservesExecutableBit) {
  write(submit_dir_ + "/tool", "#!/bin/sh\nexit 0\n");
  std::filesystem::permissions(submit_dir_ + "/tool",
                               std::filesystem::perms::owner_all);
  auto staged = FileTransfer::stage_in(submit_dir_, "tool", exec_dir_);
  ASSERT_TRUE(staged.is_ok());
  auto perms = std::filesystem::status(staged.value()).permissions();
  EXPECT_NE(perms & std::filesystem::perms::owner_exec,
            std::filesystem::perms::none);
}

TEST_F(FileTransferTest, StageOutSkipsMissingOutputs) {
  std::filesystem::create_directories(exec_dir_);
  write(exec_dir_ + "/outfile", "results");
  auto copied = FileTransfer::stage_out(exec_dir_, {"outfile", "ghost.out"},
                                        submit_dir_);
  ASSERT_TRUE(copied.is_ok());
  ASSERT_EQ(copied->size(), 1u);
  EXPECT_EQ(read(submit_dir_ + "/outfile"), "results");
}

TEST_F(FileTransferTest, ScratchDirsAreUnique) {
  auto a = FileTransfer::make_scratch_dir(exec_dir_, "j");
  auto b = FileTransfer::make_scratch_dir(exec_dir_, "j");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_TRUE(std::filesystem::exists(a.value()));
  ASSERT_TRUE(FileTransfer::remove_dir(a.value()).is_ok());
  EXPECT_FALSE(std::filesystem::exists(a.value()));
}

TEST_F(FileTransferTest, RemoveDirRefusesRelativePaths) {
  EXPECT_EQ(FileTransfer::remove_dir("relative/path").code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace tdp::condor
