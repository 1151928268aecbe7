// workloads.hpp - the three closed-loop workloads and the layer probes.
//
// Each workload runs in rounds (attr_rpc, cass_notify) or batches
// (parador_launch); every round or batch sets the system up afresh, so a
// run yields many set-up samples, and its figures are medians over rounds.
// See NOTES.md for why these workloads, and which layers each one stresses
// and bypasses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct WorkloadConfig {
  std::uint64_t seed = 1;
  /// Wall-clock budget for the measured part of the run.
  double seconds = 1.0;
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // One sample per round (or batch). Percentiles are taken per round and
  // reduced by their median, so a burst of host noise in one round moves
  // the run's figure little.
  Samples p50_us;
  Samples p90_us;
  Samples ops_per_s;
  Samples setup_s;  ///< one sample per set-up
  std::uint64_t latency_samples = 0;
  std::map<std::string, double> counts;  ///< per-layer counts (retries, ...)
  std::vector<std::string> errors;       ///< first few failure descriptions

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  /// Folds one round's per-op latencies (us) and completed-op rate in.
  void end_round(LatencyBuffer& latency_us, double rate) {
    if (!latency_us.empty()) {
      p50_us.add(latency_us.quantile(0.5));
      p90_us.add(latency_us.quantile(0.9));
    }
    latency_samples += latency_us.count();
    ops_per_s.add(rate);
  }
};

/// Rounds of about half a second, each set up afresh: many set-up samples,
/// and one slow round moves the median rate very little.
inline int rounds_for(double seconds) {
  return std::max(1, std::min(60, static_cast<int>(seconds / 0.5 + 0.5)));
}

WorkloadResult run_attr_rpc(const WorkloadConfig& config);
WorkloadResult run_cass_notify(const WorkloadConfig& config);
WorkloadResult run_parador_launch(const WorkloadConfig& config);

/// Layer probes: codec, transport echo RTTs, store ops and the TDP core
/// handshake steps. They record spans (Section::kProbe) and counts; only
/// attempted, failed, errors and counts of the result are filled.
WorkloadResult run_probes(std::uint64_t seed, double seconds);

// --- seeded inputs shared by workloads and probes ---

/// `n` distinct attribute names derived from the seed.
std::vector<std::string> make_keys(std::mt19937_64& rng, const std::string& prefix,
                                   int n);

/// A 16-byte value unique to (writer, counter).
std::string make_value(std::uint64_t writer, std::uint64_t counter);

}  // namespace perfbench
