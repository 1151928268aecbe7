// Tests for the Standard universe: file I/O routed through the shadow's
// remote system calls instead of shared-filesystem staging (Section 4.1).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "condor/pool.hpp"
#include "net/inproc.hpp"
#include "proc/posix_backend.hpp"
#include "support/tempdir.hpp"

namespace tdp::condor {
namespace {

class StandardUniverseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    submit_dir_ = testdir::fresh("std_universe");

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

  static void write_file(const std::string& path, const std::string& data) {
    std::ofstream out(path, std::ios::binary);
    out << data;
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  std::string submit_dir_;
  std::unique_ptr<Pool> pool_;
};

TEST_F(StandardUniverseTest, InputAndOutputFlowThroughRemoteSyscalls) {
  write_file(submit_dir_ + "/data.in", "standard-universe-payload");

  JobDescription job;
  job.universe = Universe::kStandard;
  job.executable = "/bin/sh";
  job.arguments = "-c cat";
  job.input = "data.in";
  job.output = "data.out";
  JobId id = pool_->submit(job);

  auto record = pool_->run_to_completion(id, 20'000);
  ASSERT_TRUE(record.is_ok()) << record.status().to_string();
  EXPECT_EQ(record->status, JobStatus::kCompleted);

  // Output returned to the submit machine via remote_write.
  EXPECT_EQ(read_file(submit_dir_ + "/data.out"), "standard-universe-payload");

  // And the shadow really served the syscalls (1 read + 1 write minimum).
  Shadow* shadow = pool_->schedd().shadow(id);
  ASSERT_NE(shadow, nullptr);
  EXPECT_GE(shadow->remote_syscalls(), 2u);
}

TEST_F(StandardUniverseTest, MissingRemoteInputFailsLaunch) {
  JobDescription job;
  job.universe = Universe::kStandard;
  job.executable = "/bin/sh";
  job.arguments = "-c cat";
  job.input = "never-created.in";
  JobId id = pool_->submit(job);

  auto record = pool_->run_to_completion(id, 20'000);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kFailed);
  EXPECT_NE(record->failure_reason.find("NOT_FOUND"), std::string::npos);
}

TEST_F(StandardUniverseTest, VanillaDoesNotUseTheSyscallChannel) {
  write_file(submit_dir_ + "/v.in", "vanilla");
  JobDescription job;
  job.universe = Universe::kVanilla;
  job.executable = "/bin/sh";
  job.arguments = "-c cat";
  job.input = "v.in";
  job.output = "v.out";
  JobId id = pool_->submit(job);
  auto record = pool_->run_to_completion(id, 20'000);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted);
  EXPECT_EQ(read_file(submit_dir_ + "/v.out"), "vanilla");
  EXPECT_EQ(pool_->schedd().shadow(id)->remote_syscalls(), 0u);
}

TEST_F(StandardUniverseTest, SubmitFileParsesStandardUniverse) {
  auto file = SubmitFile::parse(
      "universe = Standard\nexecutable = /bin/true\nqueue\n");
  ASSERT_TRUE(file.is_ok());
  EXPECT_EQ(file->jobs()[0].universe, Universe::kStandard);
  EXPECT_STREQ(universe_name(Universe::kStandard), "Standard");
}

}  // namespace
}  // namespace tdp::condor
