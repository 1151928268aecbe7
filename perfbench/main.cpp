// tdp_perfbench - one benchmark for the TDP hot path.
//
//   tdp_perfbench --workload <attr_rpc|cass_notify|parador_launch>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]
//
// --trace 0 measures the end-to-end metrics with the benchmark's span log
// off. --trace 1 runs the same workload twice, first untraced and then
// traced (their latency gap is the tracing overhead), then the layer
// probes, then short companion runs of the other workloads so every layer
// of the ladder has a number; it prints the per-layer metrics, each
// ladder's residue and the residue's share of its parent.
//
// The last line of stdout is the result object; the line before it is the
// run's provenance. Both are also written to <out-dir>.
#include <sys/utsname.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench/results";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool parse_options(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else if (flag == "--source-digest") {
      options.source_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0 &&
         (options.trace == 0 || options.trace == 1);
}

using RunFn = WorkloadResult (*)(const WorkloadConfig&);

RunFn workload_fn(const std::string& name) {
  if (name == "attr_rpc") return run_attr_rpc;
  if (name == "cass_notify") return run_cass_notify;
  if (name == "parador_launch") return run_parador_launch;
  return nullptr;
}

struct Metric {
  double value = NAN;
  std::string unit;
  std::size_t samples = 0;
  std::string source;  ///< where the number came from (trace mode)
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;  ///< printed in the result
  std::ostringstream details;             ///< extra provenance fields (JSON members)

  void absorb(const WorkloadResult& result) {
    attempted += result.attempted;
    failed += result.failed;
    for (const std::string& e : result.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

// ---------------------------------------------------------------------------
// End-to-end metrics (--trace 0)
// ---------------------------------------------------------------------------

void end_to_end(const Options& options, Outcome& outcome) {
  WorkloadConfig config;
  config.seed = options.seed;
  config.seconds = options.seconds;
  const WorkloadResult result = workload_fn(options.workload)(config);
  outcome.absorb(result);
  outcome.metrics["ops_per_s"] = {result.ops_per_s.median(), "ops/s", result.ops_per_s.count(), ""};
  outcome.metrics["latency_p50_us"] = {result.p50_us.median(), "us", result.latency_samples, ""};
  outcome.metrics["latency_p90_us"] = {result.p90_us.median(), "us", result.latency_samples, ""};
  outcome.metrics["setup_s"] = {result.setup_s.median(), "s", result.setup_s.count(), ""};
  outcome.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB", 1, ""};
  outcome.details << ", \"ops_per_s_by_round\": [";
  for (std::size_t i = 0; i < result.ops_per_s.count(); ++i) {
    outcome.details << (i ? ", " : "") << json_number(result.ops_per_s.at(i));
  }
  outcome.details << "], \"counts\": {";
  bool first = true;
  for (const auto& [name, value] : result.counts) {
    outcome.details << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  outcome.details << "}";
}

// ---------------------------------------------------------------------------
// Per-layer metrics (--trace 1)
// ---------------------------------------------------------------------------

const char* section_name(Section section) {
  switch (section) {
    case Section::kMain: return "workload";
    case Section::kProbe: return "probe";
    case Section::kCompanion: return "companion";
  }
  return "?";
}

/// Span durations by name, preferring the main workload's own calls over
/// the probes, and the probes over the companions.
class Layers {
 public:
  explicit Layers(const std::vector<SpanRecord>& spans) {
    for (const SpanRecord& span : spans) {
      by_name_[span.name][static_cast<std::size_t>(span.section)].add(span.per_call_ns());
    }
  }

  /// Median per-call time of `span` scaled from ns (1e-3 for us).
  Metric time(const std::string& span, double scale, const char* unit) const {
    auto it = by_name_.find(span);
    if (it != by_name_.end()) {
      for (Section section : {Section::kMain, Section::kProbe, Section::kCompanion}) {
        const Samples& samples = it->second[static_cast<std::size_t>(section)];
        if (!samples.empty()) {
          return {samples.median() * scale, unit, samples.count(), section_name(section)};
        }
      }
    }
    return {NAN, unit, 0, "missing"};
  }

 private:
  std::map<std::string, std::array<Samples, 3>> by_name_;
};

/// parent - sum(children), reported with the children and the share.
void ladder(Outcome& outcome, const std::string& residue_name, const Metric& parent,
            const std::vector<std::pair<std::string, Metric>>& children) {
  double sum = 0;
  outcome.details << ", " << json_string("ladder." + residue_name) << ": {\"parent_us\": "
                  << json_number(parent.value) << ", \"children_us\": {";
  bool first = true;
  for (const auto& [name, child] : children) {
    sum += child.value;
    outcome.details << (first ? "" : ", ") << json_string(name) << ": "
                    << json_number(child.value);
    first = false;
  }
  const double residue = parent.value - sum;
  outcome.details << "}, \"residue_us\": " << json_number(residue) << "}";
  outcome.metrics[residue_name + ".residue_us"] = {residue, "us", parent.samples, parent.source};
  outcome.metrics[residue_name + ".residue_share"] = {100.0 * residue / parent.value, "%",
                                                      parent.samples, parent.source};
}

void per_layer(const Options& options, Outcome& outcome) {
  const RunFn run = workload_fn(options.workload);
  const double t = options.seconds;
  WorkloadConfig config;
  config.seed = options.seed;

  // 1. The workload untraced, then traced: the latency gap is the overhead.
  config.seconds = 0.3 * t;
  const WorkloadResult untraced = run(config);
  outcome.absorb(untraced);
  SpanLog& log = SpanLog::instance();
  log.set_section(Section::kMain);
  log.set_recording(true);
  config.seconds = 0.4 * t;
  const WorkloadResult traced = run(config);
  outcome.absorb(traced);

  // 2. Layer probes.
  log.set_section(Section::kProbe);
  const WorkloadResult probes = run_probes(options.seed, 0.15 * t);
  outcome.absorb(probes);

  // 3. Companions: the other workloads, briefly, for the layers this one
  //    bypasses.
  log.set_section(Section::kCompanion);
  // Counts by name, the first source to report one wins.
  std::map<std::string, Metric> counts;
  auto add_counts = [&counts](const std::map<std::string, double>& from, const char* source) {
    for (const auto& [name, value] : from) counts.emplace(name, Metric{value, "count", 1, source});
  };
  add_counts(traced.counts, "workload");
  add_counts(probes.counts, "probe");
  for (const char* name : {"attr_rpc", "cass_notify", "parador_launch"}) {
    if (options.workload == name) continue;
    WorkloadConfig companion;
    companion.seed = options.seed + 1;
    companion.seconds = 0.075 * t;
    const WorkloadResult result = workload_fn(name)(companion);
    outcome.absorb(result);
    add_counts(result.counts, "companion");
  }
  log.set_recording(false);

  const std::vector<SpanRecord> spans = log.collect();
  const std::string span_path = options.out_dir + "/spans-" + options.workload + ".csv";
  if (!write_spans_csv(spans, span_path)) outcome.errors.push_back("could not write " + span_path);
  outcome.details << ", \"spans\": {\"count\": " << spans.size()
                  << ", \"file\": " << json_string(span_path) << "}";

  const Layers layers(spans);
  auto us = [&](const std::string& span) { return layers.time(span, 1e-3, "us"); };
  auto ns = [&](const std::string& span) { return layers.time(span, 1.0, "ns"); };
  auto& m = outcome.metrics;
  m["net.codec.encode_ns"] = ns("net.codec.encode");
  m["net.codec.parse_ns"] = ns("net.codec.parse");
  m["net.tcp.rtt_us"] = us("net.tcp.rtt");
  m["net.proxy.rtt_us"] = us("net.proxy.rtt");
  m["net.inproc.rtt_us"] = us("net.inproc.rtt");
  m["attrspace.store.get_ns"] = ns("attrspace.store.get");
  m["attrspace.store.put_ns"] = ns("attrspace.store.put");
  m["attrspace.store.put_notify_ns"] = ns("attrspace.store.put_notify");
  m["attrspace.client.try_get_us"] = us("attrspace.client.try_get");
  m["attrspace.client.put_us"] = us("attrspace.client.put");
  m["attrspace.client.put_batch_us"] = us("attrspace.client.put_batch");
  m["attrspace.client.service_events_us"] = us("attrspace.client.service_events");
  m["core.tdp.init_us"] = us("core.tdp.init");
  m["core.tdp.parked_get_wake_us"] = us("core.tdp.parked_get_wake");
  m["core.tdp.attach_continue_us"] = us("core.tdp.attach_continue");
  m["core.handshake_us"] = us("core.handshake");
  m["condor.submit_running_us"] = us("condor.submit_running");
  m["condor.pool.try_submit_us"] = us("condor.pool.try_submit");
  m["condor.pool.negotiate_us"] = us("condor.pool.negotiate");
  m["condor.pool.pump_us"] = us("condor.pool.pump");
  m["condor.tool_wait_us"] = us("condor.tool_wait");

  // Ladder 1: one attrspace client call = transport RTT + request and reply
  // codec on both ends + the store op + what the server adds (residue).
  const bool cass = options.workload == "cass_notify";
  const std::string op = cass ? "put" : "try_get";
  const std::string rtt = cass ? "net.proxy.rtt_us" : "net.tcp.rtt_us";
  const std::string store = cass ? "attrspace.store.put_notify_ns" : "attrspace.store.get_ns";
  const Metric encode = ns("net.codec.encode." + op);
  const Metric parse = ns("net.codec.parse." + op);
  const Metric codec_us{2e-3 * (encode.value + parse.value), "us", encode.samples, encode.source};
  Metric store_us = m[store];
  store_us.value *= 1e-3;
  store_us.unit = "us";
  ladder(outcome, "attrspace.server", m["attrspace.client." + op + "_us"],
         {{rtt, m[rtt]}, {"net.codec.2x_encode_parse_us", codec_us},
          {store.substr(0, store.size() - 3) + "_us", store_us}});
  // Ladder 2: submit->running = try_submit + the activating negotiate +
  // the wait for the tool's continue.
  ladder(outcome, "condor", m["condor.submit_running_us"],
         {{"condor.pool.try_submit_us", m["condor.pool.try_submit_us"]},
          {"condor.pool.negotiate_us", m["condor.pool.negotiate_us"]},
          {"condor.tool_wait_us", m["condor.tool_wait_us"]}});
  // Ladder 3: the tool wait = the tool's tdp_init + attach/continue + the
  // daemon's own start-up and the pump cadence (residue).
  ladder(outcome, "condor.tool_wait", m["condor.tool_wait_us"],
         {{"core.tdp.init_us", m["core.tdp.init_us"]},
          {"core.tdp.attach_continue_us", m["core.tdp.attach_continue_us"]}});
  // Ladder 4: the Figure-6 sequence = tool init + attach/continue + the RM's
  // create, put and the tool's get (residue).
  ladder(outcome, "core.handshake", m["core.handshake_us"],
         {{"core.tdp.init_us", m["core.tdp.init_us"]},
          {"core.tdp.attach_continue_us", m["core.tdp.attach_continue_us"]}});

  for (const char* name : {"net.codec.frame_bytes", "net.proxy.threads",
                           "attrspace.client.retries", "condor.matchmaker.evaluations_per_cycle",
                           "condor.schedd.jobs_retained", "condor.starter.rm_poll_timeouts"}) {
    auto it = counts.find(name);
    m[name] = it != counts.end() ? it->second : Metric{NAN, "count", 0, "missing"};
  }
  m["net.codec.frame_bytes"].unit = "B";
  // The program's Tracer holds the spans of the last parador_launch batch.
  const char* tracer_source = options.workload == "parador_launch" ? "workload" : "companion";
  m["util.telemetry.spans_retained"] = {
      static_cast<double>(tdp::telemetry::Tracer::instance().finished().size()), "count", 1,
      tracer_source};
  m["util.telemetry.spans_dropped"] = {
      static_cast<double>(
          tdp::telemetry::Registry::instance().counter("telemetry.spans_dropped").value()),
      "count", 1, tracer_source};

  const double base_p50 = untraced.p50_us.median();
  m["bench.tracing_overhead_pct"] = {100.0 * (traced.p50_us.median() - base_p50) / base_p50,
                                     "%", traced.latency_samples, "workload"};
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string read_first(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const auto colon = line.find(':');
      std::string value = colon == std::string::npos ? line : line.substr(colon + 1);
      const auto start = value.find_first_not_of(" \t");
      return start == std::string::npos ? "" : value.substr(start);
    }
  }
  return "unknown";
}

std::string provenance_json(const Options& options, const Outcome& outcome) {
  utsname host{};
  uname(&host);
  const auto& tracer = tdp::telemetry::Tracer::instance();
  std::ostringstream out;
  out << "{\"provenance\": {\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed << ", \"seconds\": " << json_number(options.seconds)
      << ", \"trace\": " << options.trace << ", \"git_sha\": " << json_string(options.git_sha)
      << ", \"source_digest\": " << json_string(options.source_digest)
      << ", \"machine\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": " << json_string(read_first("/proc/cpuinfo", "model name"))
      << ", \"kernel\": " << json_string(std::string(host.sysname) + " " + host.release)
      << "}, \"tracer\": {\"spans_retained\": " << tracer.finished().size()
      << ", \"spans_dropped\": "
      << tdp::telemetry::Registry::instance().counter("telemetry.spans_dropped").value()
      << ", \"cap\": 65536}, \"samples\": {";
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"n\": " << metric.samples;
    if (!metric.source.empty()) out << ", \"source\": " << json_string(metric.source);
    out << "}";
    first = false;
  }
  out << "}, \"errors\": [";
  for (std::size_t i = 0; i < outcome.errors.size(); ++i) {
    out << (i ? ", " : "") << json_string(outcome.errors[i]);
  }
  out << "]" << outcome.details.str() << "}}";
  return out.str();
}

std::string result_json(const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << json_number(metric.value) << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse_options(argc, argv, options) || !workload_fn(options.workload)) {
    std::fprintf(stderr,
                 "usage: %s --workload <attr_rpc|cass_notify|parador_launch> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha <sha>] "
                 "[--source-digest <hex>]\n",
                 argv[0]);
    return 2;
  }
  std::error_code dir_error;
  std::filesystem::create_directories(options.out_dir, dir_error);
  if (dir_error) {
    std::fprintf(stderr, "cannot create %s\n", options.out_dir.c_str());
    return 2;
  }
  tdp::log::set_level(tdp::log::Level::kError);

  Outcome outcome;
  if (options.trace == 0) {
    end_to_end(options, outcome);
  } else {
    per_layer(options, outcome);
  }
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  for (const auto& [name, metric] : outcome.metrics) {
    if (!std::isfinite(metric.value)) {
      outcome.errors.push_back("metric " + name + " was not measured");
      ++outcome.failed;
    }
  }
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }

  const std::string provenance = provenance_json(options, outcome);
  const std::string result = result_json(outcome);
  std::ofstream file(options.out_dir + "/result-" + options.workload + "-seed" +
                     std::to_string(options.seed) + "-trace" +
                     std::to_string(options.trace) + ".json");
  file << provenance << "\n" << result << "\n";
  std::printf("%s\n%s\n", provenance.c_str(), result.c_str());
  std::fflush(stdout);
  return 0;
}
