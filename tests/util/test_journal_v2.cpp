// Block-journal tests: batch appends, replay stats, seek-to-sync
// incremental replay, and recovery from corruption anywhere in the log,
// its first sync marker included.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "util/blockio.hpp"
#include "util/journal.hpp"

namespace tdp::journal {
namespace {

class BlockJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: parallel ctest runs sibling BlockJournal tests
    // concurrently, and a shared path races remove_all against them.
    dir_ = ::testing::TempDir() + "/journal_v2_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/daemon";
  }

  [[nodiscard]] std::string log_path() const { return path_ + ".log"; }
  [[nodiscard]] std::string snap_path() const { return path_ + ".snap"; }

  [[nodiscard]] std::string read_file(const std::string& path) const {
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
  }

  std::string dir_, path_;
};

TEST_F(BlockJournalTest, LogIsBlockFormatted) {
  auto journal = Journal::open_file(path_);
  ASSERT_TRUE(journal.is_ok());
  ASSERT_TRUE(journal.value()->append({"job", {"1", "idle"}}).is_ok());
  const std::string log = read_file(log_path());
  ASSERT_GE(log.size(), 4u);
  EXPECT_EQ(log.substr(0, 4), "TDPJ");
}

TEST_F(BlockJournalTest, AppendBatchIsOneBlock) {
  auto journal = Journal::open_file(path_);
  ASSERT_TRUE(journal.is_ok());
  std::vector<Record> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back({"job", {std::to_string(i), "idle"}});
  }
  ASSERT_TRUE(journal.value()->append_batch(batch).is_ok());
  ReplayStats stats;
  auto replayed = journal.value()->replay(&stats);
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(replayed->size(), 50u);
  EXPECT_EQ(stats.records, 50u);
  EXPECT_EQ(stats.blocks, 1u);
  EXPECT_EQ(journal.value()->tail_size(), 50u);
}

TEST_F(BlockJournalTest, ReplayFromSkipsAlreadySeenBlocks) {
  auto journal = Journal::open_file(path_);
  ASSERT_TRUE(journal.is_ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(journal.value()->append({"job", {std::to_string(i)}}).is_ok());
  }
  auto checkpoint = journal.value()->log_position();
  ASSERT_TRUE(checkpoint.is_ok());
  EXPECT_EQ(checkpoint.value(), std::filesystem::file_size(log_path()));
  for (int i = 5; i < 8; ++i) {
    ASSERT_TRUE(journal.value()->append({"job", {std::to_string(i)}}).is_ok());
  }
  ReplayStats stats;
  auto delta = journal.value()->replay_from(checkpoint.value(), &stats);
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  ASSERT_EQ(delta->size(), 3u);
  EXPECT_EQ(delta->at(0).fields[0], "5");
  EXPECT_EQ(delta->at(2).fields[0], "7");
  EXPECT_EQ(stats.blocks, 3u);

  // A checkpoint taken at the current tail yields an empty delta.
  auto tail = journal.value()->log_position();
  ASSERT_TRUE(tail.is_ok());
  auto empty = journal.value()->replay_from(tail.value());
  ASSERT_TRUE(empty.is_ok());
  EXPECT_TRUE(empty->empty());

  // A position past the end is a caller bug, not silently empty.
  EXPECT_FALSE(journal.value()->replay_from(tail.value() + 1).is_ok());
}

TEST_F(BlockJournalTest, ReplayFromWorksInMemory) {
  auto journal = Journal::in_memory();
  ASSERT_TRUE(journal->append({"a", {"1"}}).is_ok());
  auto pos = journal->log_position();
  ASSERT_TRUE(pos.is_ok());
  ASSERT_TRUE(journal->append({"b", {"2"}}).is_ok());
  auto delta = journal->replay_from(pos.value());
  ASSERT_TRUE(delta.is_ok());
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_EQ(delta->at(0).type, "b");
}

TEST_F(BlockJournalTest, MidLogCorruptionLosesOneBlockNotTheTail) {
  {
    auto journal = Journal::open_file(path_);
    ASSERT_TRUE(journal.is_ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(journal.value()->append({"job", {std::to_string(i)}}).is_ok());
    }
  }
  // Flip one byte inside the middle of the log: one block's CRC dies, the
  // sync scan must find the next block and keep everything after it.
  {
    std::fstream f(log_path(), std::ios::in | std::ios::out | std::ios::binary);
    const auto size = std::filesystem::file_size(log_path());
    f.seekp(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(size / 2));
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  auto reopened = Journal::open_file(path_);
  ASSERT_TRUE(reopened.is_ok());
  ReplayStats stats;
  auto replayed = reopened.value()->replay(&stats);
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  EXPECT_EQ(stats.resyncs, 1u);
  EXPECT_GT(stats.bytes_skipped, 0u);
  // Exactly one block (one record) lost; first and last records survive.
  ASSERT_EQ(replayed->size(), 9u);
  EXPECT_EQ(replayed->front().fields[0], "0");
  EXPECT_EQ(replayed->back().fields[0], "9");
}

TEST_F(BlockJournalTest, TornBlockTailIsDroppedAndReported) {
  {
    auto journal = Journal::open_file(path_);
    ASSERT_TRUE(journal.is_ok());
    ASSERT_TRUE(journal.value()->append({"job", {"1", "idle"}}).is_ok());
    ASSERT_TRUE(journal.value()->append({"job", {"2", "idle"}}).is_ok());
  }
  // Crash mid-append: chop the last block in half.
  const auto size = std::filesystem::file_size(log_path());
  std::filesystem::resize_file(log_path(), size - 10);
  auto reopened = Journal::open_file(path_);
  ASSERT_TRUE(reopened.is_ok());
  ReplayStats stats;
  auto replayed = reopened.value()->replay(&stats);
  ASSERT_TRUE(replayed.is_ok());
  ASSERT_EQ(replayed->size(), 1u);
  EXPECT_EQ(replayed->at(0).fields[0], "1");
  EXPECT_TRUE(stats.torn_tail);
}

TEST_F(BlockJournalTest, SnapshotCorruptionIsFatalNotSilent) {
  {
    auto journal = Journal::open_file(path_);
    ASSERT_TRUE(journal.is_ok());
    ASSERT_TRUE(journal.value()->write_snapshot({{"job", {"1", "done"}}}).is_ok());
  }
  {
    std::fstream f(snap_path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(blockio::kHeaderSize));
    const char garbage = '\x7E';
    f.write(&garbage, 1);
  }
  // The log tolerates damage (it has newer data to save); the snapshot is
  // the base image - losing part of it silently would resurrect deleted
  // state, so replay must refuse. open_file replays to recover the tail
  // count, so the refusal surfaces right at open.
  EXPECT_FALSE(Journal::open_file(path_).is_ok());
}

TEST_F(BlockJournalTest, DamagedFirstSyncMarkerCostsOneBlock) {
  {
    auto journal = Journal::open_file(path_);
    ASSERT_TRUE(journal.is_ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(journal.value()->append({"job", {std::to_string(i), "idle"}}).is_ok());
    }
  }
  // One flipped bit in byte 0: the log no longer starts with "TDPJ", but
  // it is still a block stream and must be read as one.
  {
    std::fstream f(log_path(), std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(0);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
  }
  auto reopened = Journal::open_file(path_);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  ReplayStats stats;
  auto replayed = reopened.value()->replay(&stats);
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  EXPECT_EQ(stats.resyncs, 1u);
  ASSERT_EQ(replayed->size(), 39u);
  for (const Record& record : replayed.value()) EXPECT_EQ(record.type, "job");
  EXPECT_EQ(replayed->front().fields[0], "1");
  EXPECT_EQ(replayed->back().fields[0], "39");

  auto delta = reopened.value()->replay_from(0);
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  EXPECT_EQ(delta->size(), 39u);

  // Appends keep writing blocks behind the damaged one.
  ASSERT_TRUE(reopened.value()->append({"job", {"40", "idle"}}).is_ok());
  auto again = reopened.value()->replay();
  ASSERT_TRUE(again.is_ok());
  ASSERT_EQ(again->size(), 40u);
  EXPECT_EQ(again->back().fields[0], "40");
}

}  // namespace
}  // namespace tdp::journal
