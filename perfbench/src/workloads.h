// The four benchmark workloads. Each call builds everything from the seed
// (the set-up phase), runs the timed phase, and returns what it measured.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Host pool threads of every engine the workloads build (see README.md
/// for why the device loops run serially).
inline constexpr std::int64_t kWorkers = 0;

struct RepOptions {
  std::uint64_t seed = 1;
  bool traced = false;      ///< install the decorators of decorators.h
  bool setup_only = false;  ///< stop after the set-up phase
};

/// One execution of a workload: set-up, then the timed phase.
struct Rep {
  double setup_s = 0.0;
  double time_to_result_s = 0.0;
  double work = 0.0;              ///< examples trained, or requests completed
  std::vector<double> op_ms;      ///< host time of every timed operation
  std::int64_t phase_start_ns = 0, phase_end_ns = 0;
  /// Virtual-clock results. Exact: equal bit for bit on every repetition.
  std::map<std::string, double> exact;
  /// Host-side counts and figures taken by the harness (allocation counts
  /// and the like); per-layer, not part of the exactness check.
  std::map<std::string, double> host;
  std::uint64_t fingerprint = 0;  ///< hash of final parameters, records, grants
  std::int64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
};

Rep run_train_large_batch(const RepOptions& o);
Rep run_train_small_batch_elastic(const RepOptions& o);
Rep run_serve_stream_elastic(const RepOptions& o);
Rep run_cluster_cosched(const RepOptions& o);

/// Burst rates (requests per virtual second) of the serving capacity ladder.
inline const std::vector<double> kLadderRps = {30.0, 60.0, 120.0, 240.0};

/// Serving capacity ladder: extra replays of the serve workload's trace
/// at each burst rate, outside any timed phase. Fills `exact` with
/// serve.ladder.<rate>.{ttft,itl}_p99_ms and sim_capacity_per_s.
void serve_ladder(std::uint64_t seed, std::map<std::string, double>& exact);

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n);

}  // namespace pb
