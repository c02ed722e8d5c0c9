#pragma once
/// \file metrics.hpp
/// Run configuration, the per-run result record every workload returns, and
/// the small statistics helpers (medians and percentiles of wall-time
/// samples) the workloads share.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace chasebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunConfig {
  std::uint64_t seed = 1;
  /// Length of the timed phase. Workloads start no new op after it ends.
  double seconds = 10.0;
  /// Traced run: alternate untraced and traced ops, report per-layer
  /// metrics from the traced ones and the traced/untraced wall ratio.
  bool trace = false;
  /// Test-size inputs (the benchmark's own tests); never used for timing.
  bool reduced = false;
  /// Where a traced run writes its trace-event JSON ("" = nowhere).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: op counts, check failures and metrics.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The first few output-check failures, for the report.
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  /// Traced runs: the per-layer self-time table.
  std::string self_time_table;
  /// Wall time of every untraced op, in run order (the full record keeps
  /// them so the distribution behind `op_ms` can be inspected).
  std::vector<double> op_s;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Count `ops` attempted ops, marking all of them failed when `problems`
  /// is non-empty.
  void record_ops(std::uint64_t ops, const std::vector<std::string>& problems);
  const Metric* find(const std::string& name) const;
};

/// Linear-interpolated percentile (q in [0, 1]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }
double sum(const std::vector<double>& v);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Shared end-to-end metrics of one run: setup time and op time (medians
/// over the run's set-ups and untraced ops, the first one excluded as
/// warm-up), work rate (median of `rates`, each the workload's unit of
/// work per wall second over one sample), timed-phase wall time, peak RSS
/// and error rate. Medians, not a fast tail: `ffn` step times are bimodal
/// (`backward` skips zero gradients, and about one step in eight comes out
/// cheap), so its 10th percentile falls between the two modes and moves by
/// a quarter with the share of cheap steps a run happens to draw.
void add_common_metrics(RunResult& r, const std::vector<double>& setup_s,
                        const std::vector<double>& op_s, const std::vector<double>& rates,
                        double wall_s);

}  // namespace chasebench
