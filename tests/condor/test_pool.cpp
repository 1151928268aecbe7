// End-to-end pool tests: the Figure 4 pipeline (submit -> match -> claim ->
// activate -> run -> complete) over both backends, without tool daemons.
#include "condor/pool.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "proc/posix_backend.hpp"
#include "proc/sim_backend.hpp"
#include "support/tempdir.hpp"
#include "util/clock.hpp"

namespace tdp::condor {
namespace {

/// Virtual-cluster pool: inproc transport + one SimProcessBackend per
/// machine, stepped from the test.
struct SimPool {
  std::shared_ptr<net::InProcTransport> transport = net::InProcTransport::create();
  std::map<std::string, std::shared_ptr<proc::SimProcessBackend>> backends;
  std::unique_ptr<Pool> pool;

  explicit SimPool(int machines) {
    PoolConfig config;
    config.transport = transport;
    config.use_real_files = false;
    config.tool_wait_timeout_ms = 0;  // virtual time: no wall-clock faults
    config.backend_factory = [this](const std::string& machine) {
      auto backend = std::make_shared<proc::SimProcessBackend>();
      backends[machine] = backend;
      return backend;
    };
    pool = std::make_unique<Pool>(std::move(config));
    for (int i = 0; i < machines; ++i) {
      std::string name = "node" + std::to_string(i);
      pool->add_machine(name, Pool::default_machine_ad(name, 1024 * (i + 1)));
    }
  }

  void step_all(std::int64_t units = 1) {
    for (auto& [name, backend] : backends) backend->step(units);
  }
};

JobDescription sim_job(std::int64_t work = 3, int exit_code = 0) {
  JobDescription job;
  job.executable = "sim_app";
  job.sim_work_units = work;
  job.sim_exit_code = exit_code;
  return job;
}

TEST(PoolSim, SingleJobRunsToCompletion) {
  SimPool cluster(2);
  JobId id = cluster.pool->submit(sim_job(3));
  EXPECT_EQ(cluster.pool->negotiate(), 1);
  EXPECT_EQ(cluster.pool->schedd().job(id)->status, JobStatus::kRunning);
  EXPECT_EQ(cluster.pool->busy_count(), 1u);

  // Drive virtual time until done.
  for (int i = 0; i < 10 && !job_status_terminal(cluster.pool->schedd().job(id)->status); ++i) {
    cluster.step_all();
    cluster.pool->pump();
  }
  auto record = cluster.pool->schedd().job(id);
  EXPECT_EQ(record->status, JobStatus::kCompleted);
  EXPECT_EQ(record->exit_code, 0);
  EXPECT_EQ(cluster.pool->busy_count(), 0u);
}

TEST(PoolSim, NonZeroExitCodePropagates) {
  SimPool cluster(1);
  JobId id = cluster.pool->submit(sim_job(1, 42));
  cluster.pool->negotiate();
  for (int i = 0; i < 10; ++i) {
    cluster.step_all();
    cluster.pool->pump();
  }
  EXPECT_EQ(cluster.pool->schedd().job(id)->status, JobStatus::kCompleted);
  EXPECT_EQ(cluster.pool->schedd().job(id)->exit_code, 42);
}

TEST(PoolSim, MoreJobsThanMachinesQueue) {
  SimPool cluster(2);
  std::vector<JobId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(cluster.pool->submit(sim_job(2)));

  EXPECT_EQ(cluster.pool->negotiate(), 2);  // only 2 machines
  EXPECT_EQ(cluster.pool->schedd().count_with_status(JobStatus::kIdle), 3u);

  // Run everything down: repeatedly step, pump, renegotiate.
  for (int round = 0; round < 50; ++round) {
    cluster.step_all();
    cluster.pool->pump();
    cluster.pool->negotiate();
    if (cluster.pool->schedd().count_with_status(JobStatus::kCompleted) == 5u) break;
  }
  EXPECT_EQ(cluster.pool->schedd().count_with_status(JobStatus::kCompleted), 5u);
}

TEST(PoolSim, RequirementsRouteJobsToCapableMachines) {
  SimPool cluster(3);  // node0: 1024MB, node1: 2048MB, node2: 3072MB
  JobDescription picky = sim_job(1);
  picky.requirements = "TARGET.memory >= 3000";
  JobId id = cluster.pool->submit(picky);
  EXPECT_EQ(cluster.pool->negotiate(), 1);
  EXPECT_EQ(cluster.pool->schedd().job(id)->matched_machine, "node2");
}

TEST(PoolSim, UnmatchableJobStaysIdle) {
  SimPool cluster(1);
  JobDescription impossible = sim_job(1);
  impossible.requirements = "TARGET.memory >= 999999";
  JobId id = cluster.pool->submit(impossible);
  EXPECT_EQ(cluster.pool->negotiate(), 0);
  EXPECT_EQ(cluster.pool->schedd().job(id)->status, JobStatus::kIdle);
}

TEST(PoolSim, MpiUniverseStagedStartup) {
  SimPool cluster(1);
  JobDescription mpi = sim_job(3);
  mpi.universe = Universe::kMpi;
  mpi.machine_count = 4;
  JobId id = cluster.pool->submit(mpi);
  ASSERT_EQ(cluster.pool->negotiate(), 1);

  Starter* starter = cluster.pool->startd("node0")->starter();
  ASSERT_NE(starter, nullptr);
  // No tool: rank 0 starts running immediately; remaining ranks appear on
  // the first pump.
  EXPECT_EQ(starter->ranks_created(), 1);
  cluster.pool->pump();
  EXPECT_EQ(starter->ranks_created(), 4);

  for (int i = 0; i < 20; ++i) {
    cluster.step_all();
    cluster.pool->pump();
    if (job_status_terminal(cluster.pool->schedd().job(id)->status)) break;
  }
  EXPECT_EQ(cluster.pool->schedd().job(id)->status, JobStatus::kCompleted);
}

TEST(PoolSim, AuxServiceDeathFailsJob) {
  SimPool cluster(1);
  JobDescription job = sim_job(1000);  // long job
  job.aux_services = {"mrnet_commnode -f4"};
  JobId id = cluster.pool->submit(job);
  ASSERT_EQ(cluster.pool->negotiate(), 1);

  Starter* starter = cluster.pool->startd("node0")->starter();
  ASSERT_NE(starter, nullptr);
  ASSERT_EQ(starter->aux_pids().size(), 1u);

  // Kill the auxiliary service mid-run: the RM must detect it.
  cluster.backends["node0"]->kill_process(starter->aux_pids()[0]);
  cluster.pool->pump();
  auto record = cluster.pool->schedd().job(id);
  EXPECT_EQ(record->status, JobStatus::kFailed);
  EXPECT_NE(record->failure_reason.find("auxiliary service"), std::string::npos);
}

TEST(PoolSim, MachineReusedAfterJobCompletes) {
  SimPool cluster(1);
  JobId first = cluster.pool->submit(sim_job(1));
  cluster.pool->negotiate();
  for (int i = 0; i < 10; ++i) {
    cluster.step_all();
    cluster.pool->pump();
  }
  ASSERT_EQ(cluster.pool->schedd().job(first)->status, JobStatus::kCompleted);

  JobId second = cluster.pool->submit(sim_job(1));
  EXPECT_EQ(cluster.pool->negotiate(), 1);
  for (int i = 0; i < 10; ++i) {
    cluster.step_all();
    cluster.pool->pump();
  }
  EXPECT_EQ(cluster.pool->schedd().job(second)->status, JobStatus::kCompleted);
}

// --- real backend (POSIX + real files) ---

class PoolPosixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    submit_dir_ = testdir::fresh("pool_submit");

    PoolConfig config;
    config.transport = net::InProcTransport::create();
    config.submit_dir = submit_dir_;
    config.scratch_base = testdir::fresh("scratch");
    config.use_real_files = true;
    config.backend_factory = [](const std::string&) {
      return std::make_shared<proc::PosixProcessBackend>();
    };
    pool_ = std::make_unique<Pool>(std::move(config));
    pool_->add_machine("exec1", Pool::default_machine_ad("exec1"));
  }

  std::string submit_dir_;
  std::unique_ptr<Pool> pool_;
};

TEST_F(PoolPosixTest, RealJobProducesOutputFile) {
  JobDescription job;
  job.executable = "/bin/sh";
  job.arguments = "-c 'echo job-output'";
  job.output = "outfile";
  JobId id = pool_->submit(job);

  auto record = pool_->run_to_completion(id, 15'000);
  ASSERT_TRUE(record.is_ok()) << record.status().to_string();
  EXPECT_EQ(record->status, JobStatus::kCompleted);
  EXPECT_EQ(record->exit_code, 0);

  // The starter staged the output back to the submit directory.
  std::ifstream out(submit_dir_ + "/outfile");
  std::string line;
  std::getline(out, line);
  EXPECT_EQ(line, "job-output");
}

TEST_F(PoolPosixTest, FailingJobReportsExitCode) {
  JobDescription job;
  job.executable = "/bin/sh";
  job.arguments = "-c 'exit 3'";
  JobId id = pool_->submit(job);
  auto record = pool_->run_to_completion(id, 15'000);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted);
  EXPECT_EQ(record->exit_code, 3);
}

TEST_F(PoolPosixTest, InputFileStagedIn) {
  {
    std::ofstream in(submit_dir_ + "/infile");
    in << "from-stdin";
  }
  JobDescription job;
  job.executable = "/bin/sh";
  job.arguments = "-c cat";
  job.input = "infile";
  job.output = "echoed";
  JobId id = pool_->submit(job);
  auto record = pool_->run_to_completion(id, 15'000);
  ASSERT_TRUE(record.is_ok());
  std::ifstream out(submit_dir_ + "/echoed");
  std::string data((std::istreambuf_iterator<char>(out)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(data, "from-stdin");
}

TEST(PoolCassRebuild, GrowthCarriesLeaseStateAndNeverReExpiresTheDead) {
  // Pool growth rebuilds the aggregation tree from machine_ads_, which
  // never shrinks. The rebuild must carry lease state from the old tree:
  // an already-detected dead machine stays untracked (no second
  // withdraw/expiry ttl+grace after every growth event), and a machine
  // that went silent just before the growth keeps its original detection
  // deadline instead of gaining a fresh ttl+grace.
  ManualClock clock;
  PoolConfig config;
  config.use_real_files = false;
  config.enable_liveness = true;
  config.hierarchical_cass = true;
  config.cass_fanout = 4;
  config.clock = &clock;
  config.startd_lease.ttl_micros = 1'000;
  config.startd_lease.grace_micros = 400;
  config.startd_lease.beat_interval_micros = 250;
  config.restart_policy.restart_budget = 0;  // the dead stay dead
  Pool pool(std::move(config));
  for (int i = 0; i < 12; ++i) {
    const std::string name = "m" + std::to_string(i);
    pool.add_machine(name, Pool::default_machine_ad(name));
  }
  auto drive = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      pool.pump();
      clock.advance_micros(250);
    }
  };
  drive(4);  // tree built, everyone beating
  ASSERT_NE(pool.cass(), nullptr);

  // m3 dies and is detected exactly once.
  ASSERT_TRUE(pool.kill_startd("m3").is_ok());
  drive(10);  // well past ttl+grace
  EXPECT_EQ(pool.cass()->host_expiries(), 1u);

  // m4 dies, and the pool grows 750us into its 1400us detection window.
  ASSERT_TRUE(pool.kill_startd("m4").is_ok());
  drive(3);
  pool.add_machine("m12", Pool::default_machine_ad("m12"));
  pool.pump();  // rebuilds the tree over 13 machines
  ASSERT_TRUE(pool.cass()->member("m12"));

  // Carried deadline: m4 expires on the ORIGINAL schedule (~1400us after
  // its last beat), not a fresh ttl+grace counted from the rebuild.
  drive(4);  // ~1750us since m4's last beat; rebuild+1400 would be ~2150us
  EXPECT_EQ(pool.cass()->host_expiries(), 1u) << "m4's deadline was reset";
  EXPECT_EQ(pool.cass()->host_health("m4"), lease::Health::kExpired);

  // m3 was already detected before the rebuild: it must never fire again.
  drive(12);
  EXPECT_EQ(pool.cass()->host_expiries(), 1u) << "dead machine re-expired";

  // Every live machine — including the newcomer — is tracked and alive.
  EXPECT_EQ(pool.cass()->host_health("m12"), lease::Health::kAlive);
  EXPECT_EQ(pool.cass()->host_health("m0"), lease::Health::kAlive);
}

TEST_F(PoolPosixTest, SubmitFileDrivesWholePipeline) {
  auto file = SubmitFile::parse(
      "executable = /bin/sh\n"
      "arguments = \"-c 'echo via-submit-file'\"\n"
      "output = sf.out\n"
      "queue\n");
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  auto ids = pool_->submit(file.value());
  ASSERT_EQ(ids.size(), 1u);
  auto record = pool_->run_to_completion(ids[0], 15'000);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted);
  std::ifstream out(submit_dir_ + "/sf.out");
  std::string line;
  std::getline(out, line);
  EXPECT_EQ(line, "via-submit-file");
}

}  // namespace
}  // namespace tdp::condor
