#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

namespace perfbench {

namespace {

/// Linear interpolation between closest ranks of [begin, end), which it
/// reorders; NaN when empty.
double quantile_in_place(double* begin, double* end, double q) {
  if (begin == end) return std::numeric_limits<double>::quiet_NaN();
  const double rank = q * static_cast<double>(end - begin - 1);
  const auto lo = static_cast<std::ptrdiff_t>(std::floor(rank));
  std::nth_element(begin, begin + lo, end);
  const double low = begin[lo];
  if (begin + lo + 1 == end) return low;
  const double high = *std::min_element(begin + lo + 1, end);
  return low + (high - low) * (rank - static_cast<double>(lo));
}

}  // namespace

double Samples::quantile(double q) const {
  std::vector<double> copy = values_;
  return quantile_in_place(copy.data(), copy.data() + copy.size(), q);
}

void LatencyBuffer::append(const LatencyBuffer& other) {
  const std::size_t n = std::min(other.size_, values_.size() - size_);
  std::copy_n(other.values_.begin(), n, values_.begin() + static_cast<std::ptrdiff_t>(size_));
  size_ += n;
}

double LatencyBuffer::quantile(double q) {
  return quantile_in_place(values_.data(), values_.data() + size_, q);
}

// ---------------------------------------------------------------------------
// Span log
// ---------------------------------------------------------------------------

namespace {

/// Span ids are (thread index << kThreadShift) | per-thread counter.
constexpr int kThreadShift = 40;

std::atomic<bool> g_recording{false};
std::atomic<std::uint8_t> g_section{0};

struct ThreadState {
  SpanLog::Buffer* buffer = nullptr;  // owned by the log
  std::vector<SpanRecord*> open;  // stack of open spans on this thread
};
thread_local ThreadState t_state;

}  // namespace

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::set_recording(bool on) { g_recording.store(on); }

void SpanLog::set_section(Section section) {
  g_section.store(static_cast<std::uint8_t>(section));
}

void SpanLog::attach_thread() {
  if (t_state.buffer != nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto buffer = std::make_unique<Buffer>();
  buffer->thread_index = buffers_.size() + 1;
  buffer->spans.reserve(1 << 16);
  t_state.buffer = buffer.get();
  buffers_.push_back(std::move(buffer));
}

std::vector<SpanRecord> SpanLog::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

namespace {

/// "<thread>-<n>" for a span id made by begin_record; "0" for none.
std::string format_id(std::uint64_t id) {
  if (id == 0) return "0";
  return std::to_string(id >> kThreadShift) + "-" +
         std::to_string(id & ((std::uint64_t{1} << kThreadShift) - 1));
}

}  // namespace

bool write_spans_csv(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::int64_t origin = 0;
  for (const SpanRecord& span : spans) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "op,span,parent,name,section,start_ns,duration_ns,reps\n");
  for (const SpanRecord& span : spans) {
    std::fprintf(out, "%s,%s,%s,%s,%u,%lld,%lld,%u\n", format_id(span.op_id).c_str(),
                 format_id(span.span_id).c_str(), format_id(span.parent_id).c_str(),
                 span.name, static_cast<unsigned>(span.section),
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - span.start_ns), span.reps);
  }
  return std::fclose(out) == 0;
}

namespace {

/// Fills ids and parent linkage for a span about to open on this thread.
/// Returns false when this thread does not record.
bool begin_record(SpanRecord& record, const char* name, std::uint32_t reps) {
  if (t_state.buffer == nullptr || !g_recording.load(std::memory_order_relaxed)) {
    return false;
  }
  SpanLog::Buffer* buffer = t_state.buffer;
  record.name = name;
  record.reps = reps;
  record.section = static_cast<Section>(g_section.load(std::memory_order_relaxed));
  record.span_id = (buffer->thread_index << kThreadShift) | buffer->next_local++;
  if (t_state.open.empty()) {
    record.parent_id = 0;
    record.op_id = record.span_id;
  } else {
    record.parent_id = t_state.open.back()->span_id;
    record.op_id = t_state.open.back()->op_id;
  }
  return true;
}

}  // namespace

ScopedSpan::ScopedSpan(const char* name, std::uint32_t reps) {
  active_ = begin_record(record_, name, reps);
  if (!active_) return;
  t_state.open.push_back(&record_);
  record_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  record_.end_ns = now_ns();
  t_state.open.pop_back();
  t_state.buffer->spans.push_back(record_);
}

void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint32_t reps) {
  SpanRecord record;
  if (!begin_record(record, name, reps)) return;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  t_state.buffer->spans.push_back(record);
}

// ---------------------------------------------------------------------------
// Process facts
// ---------------------------------------------------------------------------

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

int thread_count() {
  std::error_code error;
  std::filesystem::directory_iterator tasks("/proc/self/task", error);
  if (error) return -1;
  return static_cast<int>(std::distance(tasks, std::filesystem::directory_iterator()));
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
