// test_chaos_parador.cpp - a full Parador submit over a faulty transport.
//
// The end-to-end claim of the paper's failure model: the RM, the tool
// daemon and the application fail independently, and the coupled system
// still makes progress. Here every transport link in the Figure-6
// choreography — paradynd's LASS session and the paradynd -> front-end
// stream — runs over one FaultyTransport. Two parts do not cross it: the
// schedd/startd bookkeeping (in-process), and the starter's own LASS
// session, which joins the LASS the starter started over the server's
// owner endpoint rather than a transport connection. With retry enabled
// at every TDP session, the monitored job must still complete; metric
// reports are explicitly sacrificial (the front-end link may die for
// good, and the daemon then profiles on without it).

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "chaos_util.hpp"
#include "condor/pool.hpp"
#include "net/faulty.hpp"
#include "paradyn/frontend.hpp"
#include "paradyn/inproc_tool.hpp"
#include "proc/sim_backend.hpp"

namespace tdp {
namespace {

using chaos::Watchdog;
using chaos::Wire;
using condor::JobDescription;
using condor::JobId;
using condor::JobStatus;
using condor::Pool;
using condor::PoolConfig;

attr::RetryPolicy parador_retry() {
  attr::RetryPolicy retry;
  retry.enabled = true;
  retry.max_reconnects = 8;
  retry.attempt_timeout_ms = 250;
  retry.base_backoff_ms = 2;
  retry.max_backoff_ms = 40;
  return retry;
}

/// Gentler than FaultPlan::chaos: an end-to-end run pushes a few hundred
/// messages, so 10% drop would mostly test patience. The forced disconnect
/// stays — one daemon session loses its link mid-run and must recover.
net::FaultPlan parador_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.06;
  plan.delay_prob = 0.10;
  plan.max_delay_ms = 15;
  plan.dup_prob = 0.03;
  plan.disconnect_after_msgs = 40;
  plan.max_disconnects = 1;
  return plan;
}

class ChaosParadorTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosParadorTest, MonitoredJobCompletesOverFaultyTransport) {
  const std::uint64_t seed = GetParam();
  Watchdog dog("MonitoredJobCompletesOverFaultyTransport/seed=" +
               std::to_string(seed), 110'000);

  auto faulty = std::make_shared<net::FaultyTransport>(
      chaos::make_base(Wire::kInProc), parador_plan(seed));

  paradyn::Frontend frontend(faulty);
  auto started = frontend.start("inproc://chaos-paradyn-fe");
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();

  paradyn::InProcParadynLauncher::Options launcher_options;
  launcher_options.transport = faulty;
  launcher_options.frontend_address = started.value();
  launcher_options.sample_quantum_micros = 5'000;
  launcher_options.retry = parador_retry();
  paradyn::InProcParadynLauncher launcher(launcher_options);

  std::map<std::string, std::shared_ptr<proc::SimProcessBackend>> backends;
  PoolConfig config;
  config.transport = faulty;
  config.use_real_files = false;
  config.tool_launcher = &launcher;
  config.tool_wait_timeout_ms = 30'000;
  config.frontend_host = started.value();
  config.retry = parador_retry();
  config.backend_factory = [&backends](const std::string& machine) {
    auto backend = std::make_shared<proc::SimProcessBackend>();
    backends[machine] = backend;
    return backend;
  };
  Pool pool(std::move(config));
  for (int i = 0; i < 3; ++i) {
    const std::string name = "node" + std::to_string(i);
    pool.add_machine(name, Pool::default_machine_ad(name));
  }

  JobDescription job;
  job.executable = "simulated_app";
  job.arguments = "1 2 3";
  job.suspend_job_at_exec = true;
  job.tool_daemon.present = true;
  job.tool_daemon.cmd = "paradynd";
  job.tool_daemon.args = "-zunix -l3 -a%pid";
  job.sim_work_units = 150;
  const JobId id = pool.submit(job);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(90);
  condor::JobRecord record;
  while (std::chrono::steady_clock::now() < deadline) {
    pool.negotiate();
    pool.pump();
    for (auto& [name, backend] : backends) backend->step(1);
    auto current = pool.schedd().job(id);
    if (current.is_ok() && condor::job_status_terminal(current->status)) {
      record = current.value();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EXPECT_EQ(record.status, JobStatus::kCompleted) << record.failure_reason;
  launcher.join_all();
  EXPECT_EQ(launcher.daemons_launched(), 1u);
  // Deliberately NOT asserted: frontend.reports_received(). The sampling
  // stream is fire-and-forget by design; the forced disconnect may sever
  // the front-end link permanently and the daemon keeps profiling locally.
  EXPECT_GT(faulty->stats().faults_injected(), 0u)
      << "schedule injected nothing; this run proved nothing";

  frontend.stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosParadorTest,
                         ::testing::ValuesIn(chaos::seeds()),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tdp
