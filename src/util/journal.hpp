// journal.hpp - a small write-ahead journal + snapshot for daemon state
// (PR 5; block format PR 6). A restarted daemon must "reload state instead
// of starting cold": the schedd journals its job queue, the startd its
// claim table, and the attribute space its durable entries. Records stay
// one line each, tab-separated escaped fields, so the recovery story is
// auditable by eye - but since PR 6 the lines are carried inside
// compressed, checksummed blocks (util/blockio.hpp): every block starts
// with a sync marker, so a reader can seek to any block boundary and
// resume, and mid-stream corruption costs one block, not the whole tail.
//
// Two backings share one interface:
//   * in_memory()  - vectors; what the sim/chaos tier uses so a "process
//                    death" is modelled as dropping the daemon object while
//                    the journal (the disk) survives;
//   * open_file()  - <path>.snap + <path>.log on disk, snapshot written
//                    atomically (tmp + rename), torn trailing blocks
//                    dropped on replay (a crash mid-append must not poison
//                    recovery). Both files are always block streams, so
//                    a damaged first block in the log costs that block,
//                    like any other.
//
// Locking: Journal::mutex_ is a strict leaf - daemons append while holding
// their own state lock, so the journal must never call out or acquire
// anything else (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.hpp"
#include "util/sync.hpp"

namespace tdp::journal {

/// One journal entry: a record type tag plus its payload fields. Writers
/// define their own schema per type ("job", "claim", "attr", ...).
struct Record {
  std::string type;
  std::vector<std::string> fields;

  bool operator==(const Record& other) const {
    return type == other.type && fields == other.fields;
  }
};

/// Serializes a record to its single-line wire form (exposed for tests).
std::string encode_record(const Record& record);
/// Parses one line; kInvalidArgument on malformed escapes.
Result<Record> decode_record(const std::string& line);

/// What replay() saw on disk. The recovery paths (schedd queue, startd
/// claims, durable attrspace) log these so an operator can tell a clean
/// restart from one that lost a torn tail or skipped corrupt blocks.
struct ReplayStats {
  std::size_t records = 0;        ///< records recovered
  std::size_t blocks = 0;         ///< blocks decoded (snapshot + log)
  std::size_t resyncs = 0;        ///< corrupt log regions skipped via sync scan
  std::uint64_t bytes_skipped = 0;///< log bytes lost to those regions
  bool torn_tail = false;         ///< log ended in a partial append (dropped)
};

class Journal {
 public:
  /// Volatile backing that survives daemon-object destruction (the chaos
  /// tier's "disk").
  static std::unique_ptr<Journal> in_memory();

  /// Disk backing at <path>.snap / <path>.log; parent directory must exist.
  static Result<std::unique_ptr<Journal>> open_file(const std::string& path);

  /// Appends one record to the tail log (flushed before returning). Block
  /// backing writes one block per record: ~20 bytes of framing buys a
  /// per-record durability boundary.
  Status append(const Record& record);

  /// Appends many records as ONE block (one sync marker, one checksum, one
  /// compression window) - all-or-nothing on replay. The batch write path
  /// for snapshot-sized bursts.
  Status append_batch(const std::vector<Record>& records);

  /// Atomically replaces the snapshot with `records` and truncates the
  /// tail log (compaction).
  Status write_snapshot(const std::vector<Record>& records);

  /// Snapshot records followed by surviving tail records, in write order.
  /// `stats` (optional) reports what recovery saw.
  [[nodiscard]] Result<std::vector<Record>> replay() const;
  [[nodiscard]] Result<std::vector<Record>> replay(ReplayStats* stats) const;

  /// Byte offset where the next log append will land - always a block
  /// boundary, so it is a valid replay_from() resume point. In-memory
  /// backing reports its tail index instead.
  [[nodiscard]] Result<std::uint64_t> log_position() const;

  /// Replays only log records from blocks at or after `position`
  /// (a value previously returned by log_position()). The snapshot is not
  /// read: this is the incremental path for a reader that already holds
  /// state up to `position` and only needs the delta - bounded by bytes
  /// appended since, not by journal size.
  [[nodiscard]] Result<std::vector<Record>> replay_from(
      std::uint64_t position, ReplayStats* stats = nullptr) const;

  /// Records appended since the last snapshot - the compaction trigger.
  [[nodiscard]] std::size_t tail_size() const;

 private:
  explicit Journal(std::string path);

  Status append_payload_locked(const std::string& payload, std::size_t count)
      TDP_REQUIRES(mutex_);

  mutable Mutex mutex_{"Journal::mutex_"};
  std::vector<Record> memory_snapshot_ TDP_GUARDED_BY(mutex_);
  std::vector<Record> memory_tail_ TDP_GUARDED_BY(mutex_);
  mutable std::size_t tail_count_ TDP_GUARDED_BY(mutex_) = 0;

  /// Empty for the in-memory backing.
  const std::string path_;
};

}  // namespace tdp::journal
