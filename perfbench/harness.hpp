// harness.hpp - timing, sample statistics and the benchmark's own span log.
//
// The span log is deliberately separate from telemetry::Tracer: the Tracer
// is part of the program under test (one global mutex, a 65,536-span cap),
// so the benchmark records its spans into per-thread buffers it owns and
// writes them out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A point in time a loop runs until.
struct Deadline {
  std::int64_t end_ns = 0;
  static Deadline after(double seconds) {
    return {now_ns() + static_cast<std::int64_t>(seconds * 1e9)};
  }
  [[nodiscard]] bool passed() const { return now_ns() >= end_ns; }
};

/// An unordered bag of measurements reduced to quantiles on demand, for
/// per-round figures and span durations. Per-op latencies go in
/// LatencyBuffer.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  /// The i-th sample in insertion order.
  [[nodiscard]] double at(std::size_t i) const { return values_.at(i); }
  /// Linear interpolation between closest ranks; NaN when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Per-op latencies of one round, in a buffer allocated and written once,
/// when it is made. Its resident memory is then the same however many ops
/// the program completes, so the benchmark's share of peak RSS does not
/// move with throughput. Quantiles reorder the buffer in place instead of
/// sorting a copy.
class LatencyBuffer {
 public:
  explicit LatencyBuffer(std::size_t capacity) : values_(capacity, 0.0) {}
  /// Drops the sample and returns false when the buffer is full.
  bool add(double value) {
    if (full()) return false;
    values_[size_++] = value;
    return true;
  }
  /// Appends as many of `other`'s samples as fit.
  void append(const LatencyBuffer& other);
  void clear() { size_ = 0; }
  [[nodiscard]] bool full() const { return size_ == values_.size(); }
  [[nodiscard]] std::size_t count() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// As Samples::quantile; reorders the samples.
  [[nodiscard]] double quantile(double q);

 private:
  std::vector<double> values_;
  std::size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// Span log
// ---------------------------------------------------------------------------

/// Where a span was recorded: the workload's own loop, the layer probes,
/// or a companion workload run only to cover layers the main one bypasses.
enum class Section : std::uint8_t { kMain = 0, kProbe = 1, kCompanion = 2 };

struct SpanRecord {
  const char* name = nullptr;  ///< string literal, e.g. "attrspace.client.put"
  std::uint64_t op_id = 0;     ///< span id of the op's root span
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t reps = 1;  ///< calls covered; per-call cost = duration / reps
  Section section = Section::kMain;

  [[nodiscard]] double per_call_ns() const {
    return static_cast<double>(end_ns - start_ns) / static_cast<double>(reps);
  }
};

/// Process-wide owner of the per-thread span buffers. Recording is off
/// until set_recording(true); a thread records only after attach_thread().
class SpanLog {
 public:
  static SpanLog& instance();

  void set_recording(bool on);
  void set_section(Section section);

  /// Gives the calling thread its own buffer (a no-op when it has one).
  void attach_thread();

  /// All spans recorded so far, across threads. Call when recording
  /// threads have been joined.
  [[nodiscard]] std::vector<SpanRecord> collect() const;

  /// One thread's spans; written only by that thread, read by collect().
  struct Buffer {
    std::uint64_t thread_index = 0;
    std::uint64_t next_local = 1;
    std::vector<SpanRecord> spans;
  };

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span around one call into a layer. Nested spans on the same thread
/// parent to the innermost open one; the outermost span's id is the op id.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint32_t reps = 1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// Writes spans as CSV, one per line, times relative to the earliest
/// start. Returns false on I/O error.
bool write_spans_csv(const std::vector<SpanRecord>& spans, const std::string& path);

/// Records an already-timed interval (for intervals that start on another
/// thread, e.g. a put's send time observed by the subscriber).
void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint32_t reps = 1);

// ---------------------------------------------------------------------------
// Process facts
// ---------------------------------------------------------------------------

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();

/// Threads currently in this process.
int thread_count();

/// Shortest round-trip decimal rendering of a double ("null" for NaN/inf).
std::string json_number(double value);

/// JSON string literal with escapes.
std::string json_string(const std::string& value);

}  // namespace perfbench
