#pragma once
/// \file checks.hpp
/// Output checks. Each takes a plain summary of what one op produced and
/// returns the list of violations; an empty list means the op is correct.
/// Workloads mark an op failed whenever its list is non-empty, which is
/// what `failed` and `error_rate` count.

#include <cstdint>
#include <string>
#include <vector>

namespace chasebench {

using Problems = std::vector<std::string>;

/// Table I bands for the simulated step durations (seconds). The paper
/// reports 37, 306 and 1133 minutes for Steps 1-3 and NA for Step 4.
struct StepBand {
  double lo, hi;
};
inline constexpr StepBand kTable1Bands[4] = {
    {0.8 * 37 * 60, 1.2 * 37 * 60},
    {0.8 * 306 * 60, 1.2 * 306 * 60},
    {0.8 * 1133 * 60, 1.25 * 1133 * 60},
    {30.0, 30.0 * 60},
};

struct ConnectOutcome {
  bool finished = false;
  int steps = 0;
  std::uint64_t files_expected = 0;
  std::uint64_t files_fetched = 0;
  std::size_t result_shards = 0;
  int inference_gpus = 0;
  double step_sim_s[4] = {0, 0, 0, 0};
  /// Bands to hold the step durations to; null skips the band check
  /// (reduced-size runs).
  const StepBand* bands = kTable1Bands;
};
Problems check_connect(const ConnectOutcome& o);

/// Replay check: a repeated seed must give an identical trace.
Problems check_replay(std::uint64_t first_hash, std::uint64_t replay_hash);

/// Quality floors of one ffn round. The workload's training reaches a final
/// loss of 0.06-0.21 and a held-out IoU of 0.51-0.91 over 400 volumes; a
/// model that failed to train sits near ln 2 = 0.69 and an IoU under 0.2.
struct FfnFloors {
  double max_final_loss = 0.35;
  double min_iou = 0.4;
};
struct FfnOutcome {
  double final_loss = 0.0;
  double iou = 0.0;
};
Problems check_ffn(const FfnOutcome& o, const FfnFloors& floors);

struct ChurnOutcome {
  std::uint64_t planned = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double bytes_requested = 0.0;
  double bytes_delivered = 0.0;
};
Problems check_churn(const ChurnOutcome& o);

struct FederationOutcome {
  int completions = 0;  // per job
  std::vector<int> succeeded;  // per job
  std::vector<bool> complete;  // per job
  int node_crashes = 0;
  int expected_node_crashes = 0;
  int site_partitions = 0;
  int expected_site_partitions = 0;
  int drains = 0;
  int expected_drains = 0;
};
Problems check_federation(const FederationOutcome& o);

}  // namespace chasebench
