#include "util/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/blockio.hpp"

namespace tdp::journal {

namespace {

/// Escapes one field so that '\t' can separate fields and '\n' records.
/// Copies clean runs in one append: the common field has nothing to escape,
/// so this is a reserve + single memcpy instead of a per-character loop.
void escape_into(const std::string& field, std::string& out) {
  out.reserve(out.size() + field.size());
  std::size_t run = 0;
  for (std::size_t i = 0; i < field.size(); ++i) {
    const char c = field[i];
    if (c != '\\' && c != '\t' && c != '\n') continue;
    out.append(field, run, i - run);
    out += '\\';
    out += c == '\\' ? '\\' : (c == '\t' ? 't' : 'n');
    run = i + 1;
  }
  out.append(field, run, field.size() - run);
}

/// Inverse of escape_into, splitting on unescaped tabs. Same run-copy
/// shape: between escapes and separators, bytes move in bulk.
Result<std::vector<std::string>> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  fields.reserve(
      static_cast<std::size_t>(std::count(line.begin(), line.end(), '\t')) + 1);
  fields.emplace_back();
  std::size_t run = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\t') {
      fields.back().append(line, run, i - run);
      fields.emplace_back();
      run = i + 1;
    } else if (c == '\\') {
      fields.back().append(line, run, i - run);
      if (i + 1 >= line.size()) {
        return Status(ErrorCode::kInvalidArgument, "dangling escape");
      }
      const char next = line[++i];
      if (next == '\\') {
        fields.back() += '\\';
      } else if (next == 't') {
        fields.back() += '\t';
      } else if (next == 'n') {
        fields.back() += '\n';
      } else {
        return Status(ErrorCode::kInvalidArgument, "bad escape");
      }
      run = i + 1;
    }
  }
  fields.back().append(line, run, line.size() - run);
  return fields;
}

/// Splits a decoded block payload into newline-terminated record lines and
/// appends the decoded records. A line the CRC vouched for but that fails
/// to decode is a writer bug, not disk damage: surfaced as an error.
Status decode_payload_lines(const std::string& payload,
                            std::vector<Record>* out, std::size_t* count) {
  std::size_t start = 0;
  while (start < payload.size()) {
    std::size_t end = payload.find('\n', start);
    if (end == std::string::npos) end = payload.size();
    const std::string line = payload.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    auto record = decode_record(line);
    if (!record.is_ok()) return record.status();
    out->push_back(std::move(record.value()));
    ++*count;
  }
  return Status::ok();
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status(ErrorCode::kNotFound, "no such file: " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  return contents;
}

/// Replays a block stream starting at `offset`. Snapshot rule (`strict`):
/// any resync or torn tail is fatal. Log rule: corrupt blocks are skipped
/// via sync-marker scan and a torn trailing block is dropped.
Status replay_block_stream(const std::string& contents, std::uint64_t offset,
                           bool strict, std::vector<Record>* out,
                           std::size_t* count, ReplayStats* stats) {
  blockio::BlockReader reader(contents, offset);
  while (true) {
    auto block = reader.next();
    if (!block.is_ok()) {
      if (block.status().code() == ErrorCode::kNotFound) break;  // end
      return block.status();
    }
    TDP_RETURN_IF_ERROR(decode_payload_lines(block->payload, out, count));
  }
  const blockio::ScanStats scan = reader.stats();
  stats->blocks += scan.blocks;
  stats->resyncs += scan.resyncs;
  stats->bytes_skipped += scan.bytes_skipped;
  stats->torn_tail = stats->torn_tail || scan.torn_tail;
  if (strict && (scan.resyncs != 0 || scan.torn_tail)) {
    return Status(ErrorCode::kInvalidArgument,
                  "snapshot block stream corrupt (snapshots are written "
                  "atomically; damage means real trouble)");
  }
  return Status::ok();
}

}  // namespace

std::string encode_record(const Record& record) {
  std::string line;
  escape_into(record.type, line);
  for (const std::string& field : record.fields) {
    line += '\t';
    escape_into(field, line);
  }
  return line;
}

Result<Record> decode_record(const std::string& line) {
  auto fields = split_fields(line);
  if (!fields.is_ok()) return fields.status();
  if (fields->empty() || fields->front().empty()) {
    return Status(ErrorCode::kInvalidArgument, "record without a type");
  }
  Record record;
  record.type = fields->front();
  record.fields.assign(fields->begin() + 1, fields->end());
  return record;
}

Journal::Journal(std::string path) : path_(std::move(path)) {}

std::unique_ptr<Journal> Journal::in_memory() {
  return std::unique_ptr<Journal>(new Journal(""));
}

Result<std::unique_ptr<Journal>> Journal::open_file(const std::string& path) {
  if (path.empty()) {
    return Status(ErrorCode::kInvalidArgument, "journal path empty");
  }
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty() && !std::filesystem::exists(parent, ec)) {
    return Status(ErrorCode::kNotFound,
                  "journal parent directory missing: " + parent.string());
  }
  auto journal = std::unique_ptr<Journal>(new Journal(path));
  // Recover the tail count so the compaction trigger survives reopen.
  auto replayed = journal->replay();
  if (!replayed.is_ok()) return replayed.status();
  return journal;
}

Status Journal::append_payload_locked(const std::string& payload,
                                      std::size_t count) {
  std::ofstream out(path_ + ".log", std::ios::app | std::ios::binary);
  if (!out) {
    return Status(ErrorCode::kInternal, "journal log open failed: " + path_);
  }
  const std::string block = blockio::encode_block(payload);
  out.write(block.data(), static_cast<std::streamsize>(block.size()));
  out.flush();
  if (!out) {
    return Status(ErrorCode::kInternal, "journal log write failed: " + path_);
  }
  tail_count_ += count;
  return Status::ok();
}

Status Journal::append(const Record& record) {
  LockGuard lock(mutex_);
  if (path_.empty()) {
    memory_tail_.push_back(record);
    ++tail_count_;
    return Status::ok();
  }
  return append_payload_locked(encode_record(record) + '\n', 1);
}

Status Journal::append_batch(const std::vector<Record>& records) {
  if (records.empty()) return Status::ok();
  LockGuard lock(mutex_);
  if (path_.empty()) {
    memory_tail_.insert(memory_tail_.end(), records.begin(), records.end());
    tail_count_ += records.size();
    return Status::ok();
  }
  std::string payload;
  for (const Record& record : records) {
    escape_into(record.type, payload);
    for (const std::string& field : record.fields) {
      payload += '\t';
      escape_into(field, payload);
    }
    payload += '\n';
  }
  return append_payload_locked(payload, records.size());
}

Status Journal::write_snapshot(const std::vector<Record>& records) {
  LockGuard lock(mutex_);
  if (path_.empty()) {
    memory_snapshot_ = records;
    memory_tail_.clear();
    tail_count_ = 0;
    return Status::ok();
  }
  const std::string tmp = path_ + ".snap.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      return Status(ErrorCode::kInternal, "snapshot open failed: " + tmp);
    }
    // Chunk the snapshot so one corrupt compression window can never cost
    // more than kSnapshotChunk of payload, and so giant snapshots stay
    // under the per-block size cap.
    constexpr std::size_t kSnapshotChunk = 256 * 1024;
    std::string payload;
    for (const Record& record : records) {
      escape_into(record.type, payload);
      for (const std::string& field : record.fields) {
        payload += '\t';
        escape_into(field, payload);
      }
      payload += '\n';
      if (payload.size() >= kSnapshotChunk) {
        const std::string block = blockio::encode_block(payload);
        out.write(block.data(), static_cast<std::streamsize>(block.size()));
        payload.clear();
      }
    }
    if (!payload.empty()) {
      const std::string block = blockio::encode_block(payload);
      out.write(block.data(), static_cast<std::streamsize>(block.size()));
    }
    out.flush();
    if (!out) {
      return Status(ErrorCode::kInternal, "snapshot write failed: " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_ + ".snap", ec);
  if (ec) {
    return Status(ErrorCode::kInternal, "snapshot rename failed: " + ec.message());
  }
  // The snapshot now owns all state; an empty log is correct even if the
  // truncation below were to be lost.
  std::ofstream truncate(path_ + ".log", std::ios::trunc | std::ios::binary);
  tail_count_ = 0;
  return Status::ok();
}

Result<std::vector<Record>> Journal::replay() const { return replay(nullptr); }

Result<std::vector<Record>> Journal::replay(ReplayStats* stats) const {
  LockGuard lock(mutex_);
  ReplayStats local;
  std::vector<Record> records;
  if (path_.empty()) {
    records = memory_snapshot_;
    records.insert(records.end(), memory_tail_.begin(), memory_tail_.end());
    local.records = records.size();
    if (stats) *stats = local;
    return records;
  }
  std::size_t tail = 0;
  for (const bool is_snapshot : {true, false}) {
    const std::string file = path_ + (is_snapshot ? ".snap" : ".log");
    auto contents = read_file(file);
    if (!contents.is_ok()) continue;  // missing file: valid empty journal
    std::size_t count = 0;
    TDP_RETURN_IF_ERROR(replay_block_stream(contents.value(), 0, is_snapshot,
                                            &records, &count, &local));
    if (!is_snapshot) tail = count;
  }
  tail_count_ = tail;
  local.records = records.size();
  if (stats) *stats = local;
  return records;
}

Result<std::uint64_t> Journal::log_position() const {
  LockGuard lock(mutex_);
  if (path_.empty()) return static_cast<std::uint64_t>(tail_count_);
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_ + ".log", ec);
  if (ec) return std::uint64_t{0};  // no log yet: position zero
  return static_cast<std::uint64_t>(size);
}

Result<std::vector<Record>> Journal::replay_from(std::uint64_t position,
                                                 ReplayStats* stats) const {
  LockGuard lock(mutex_);
  ReplayStats local;
  std::vector<Record> records;
  if (path_.empty()) {
    const std::size_t start =
        std::min(static_cast<std::size_t>(position), memory_tail_.size());
    records.assign(memory_tail_.begin() + static_cast<std::ptrdiff_t>(start),
                   memory_tail_.end());
    local.records = records.size();
    if (stats) *stats = local;
    return records;
  }
  const std::string file = path_ + ".log";
  auto contents = read_file(file);
  if (!contents.is_ok()) {
    if (stats) *stats = local;
    return records;  // no log: empty delta
  }
  if (position > contents->size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "replay position past end of log");
  }
  std::size_t count = 0;
  TDP_RETURN_IF_ERROR(replay_block_stream(contents.value(), position, false,
                                          &records, &count, &local));
  local.records = records.size();
  if (stats) *stats = local;
  return records;
}

std::size_t Journal::tail_size() const {
  LockGuard lock(mutex_);
  return tail_count_;
}

}  // namespace tdp::journal
