// Write-ahead journal tests: record codec round-trips, append/replay for
// both backings, snapshot compaction, and torn-write tolerance (PR 5).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "support/tempdir.hpp"
#include "util/journal.hpp"

namespace tdp::journal {
namespace {

TEST(JournalCodec, RoundTripsAwkwardFields) {
  Record record{"job", {"1", "a\tb", "line1\nline2", "back\\slash", ""}};
  auto decoded = decode_record(encode_record(record));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), record);
}

TEST(JournalCodec, RejectsMalformedLines) {
  EXPECT_FALSE(decode_record("job\tdangling\\").is_ok());
  EXPECT_FALSE(decode_record("job\tbad\\q").is_ok());
  EXPECT_FALSE(decode_record("").is_ok());  // no type tag
}

TEST(Journal, InMemoryAppendReplay) {
  auto journal = Journal::in_memory();
  ASSERT_TRUE(journal->append({"job", {"1", "idle"}}).is_ok());
  ASSERT_TRUE(journal->append({"job", {"1", "running"}}).is_ok());
  EXPECT_EQ(journal->tail_size(), 2u);
  auto replayed = journal->replay();
  ASSERT_TRUE(replayed.is_ok());
  ASSERT_EQ(replayed->size(), 2u);
  EXPECT_EQ(replayed->at(1).fields[1], "running");
}

TEST(Journal, SnapshotCompactsTail) {
  auto journal = Journal::in_memory();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(journal->append({"job", {std::to_string(i)}}).is_ok());
  }
  ASSERT_TRUE(journal->write_snapshot({{"job", {"9", "final"}}}).is_ok());
  EXPECT_EQ(journal->tail_size(), 0u);
  ASSERT_TRUE(journal->append({"claim", {"9"}}).is_ok());
  auto replayed = journal->replay();
  ASSERT_TRUE(replayed.is_ok());
  ASSERT_EQ(replayed->size(), 2u);  // snapshot record + new tail record
  EXPECT_EQ(replayed->at(0).type, "job");
  EXPECT_EQ(replayed->at(1).type, "claim");
}

class FileJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testdir::fresh("journal");
    path_ = dir_ + "/schedd";
  }
  std::string dir_, path_;
};

TEST_F(FileJournalTest, SurvivesReopen) {
  {
    auto journal = Journal::open_file(path_);
    ASSERT_TRUE(journal.is_ok()) << journal.status().to_string();
    ASSERT_TRUE(journal.value()->append({"job", {"1", "idle"}}).is_ok());
    ASSERT_TRUE(journal.value()->append({"job", {"2", "idle"}}).is_ok());
  }
  auto reopened = Journal::open_file(path_);
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value()->tail_size(), 2u);
  auto replayed = reopened.value()->replay();
  ASSERT_TRUE(replayed.is_ok());
  ASSERT_EQ(replayed->size(), 2u);
  EXPECT_EQ(replayed->at(0).fields[0], "1");
}

TEST_F(FileJournalTest, SnapshotIsAtomicAndTruncatesLog) {
  auto journal = Journal::open_file(path_);
  ASSERT_TRUE(journal.is_ok());
  ASSERT_TRUE(journal.value()->append({"job", {"1"}}).is_ok());
  ASSERT_TRUE(journal.value()->write_snapshot({{"job", {"1", "done"}}}).is_ok());
  EXPECT_TRUE(std::filesystem::exists(path_ + ".snap"));
  EXPECT_FALSE(std::filesystem::exists(path_ + ".snap.tmp"));
  EXPECT_EQ(std::filesystem::file_size(path_ + ".log"), 0u);
  auto replayed = journal.value()->replay();
  ASSERT_TRUE(replayed.is_ok());
  ASSERT_EQ(replayed->size(), 1u);
  EXPECT_EQ(replayed->at(0).fields[1], "done");
}

TEST_F(FileJournalTest, TornTrailingAppendIsDropped) {
  {
    auto journal = Journal::open_file(path_);
    ASSERT_TRUE(journal.is_ok());
    ASSERT_TRUE(journal.value()->append({"job", {"1", "idle"}}).is_ok());
  }
  // Simulate a crash mid-append: bytes on disk with no terminating newline.
  {
    std::ofstream out(path_ + ".log", std::ios::app | std::ios::binary);
    out << "job\t2\tid";
  }
  auto reopened = Journal::open_file(path_);
  ASSERT_TRUE(reopened.is_ok());
  auto replayed = reopened.value()->replay();
  ASSERT_TRUE(replayed.is_ok());
  ASSERT_EQ(replayed->size(), 1u);  // the torn record never happened
  EXPECT_EQ(replayed->at(0).fields[0], "1");
}

TEST_F(FileJournalTest, MissingParentDirectoryRejected) {
  EXPECT_FALSE(Journal::open_file(dir_ + "/nope/deeper/schedd").is_ok());
}

}  // namespace
}  // namespace tdp::journal
