#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace chasebench {

void RunResult::record_ops(std::uint64_t ops, const std::vector<std::string>& problems) {
  attempted += ops;
  if (problems.empty()) return;
  failed += ops;
  for (const auto& p : problems) {
    if (failures.size() < 8) failures.push_back(p);
  }
}

const Metric* RunResult::find(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // process image this one was exec'd from (a launching interpreter).
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

namespace {
/// Drop the first sample, which pays for cold caches and first-touch page
/// faults, unless it is the only one.
std::vector<double> warm(const std::vector<double>& v) {
  if (v.size() < 2) return v;
  return {v.begin() + 1, v.end()};
}
}  // namespace

void add_common_metrics(RunResult& r, const std::vector<double>& setup_s,
                        const std::vector<double>& op_s, const std::vector<double>& rates,
                        double wall_s) {
  r.op_s = op_s;
  r.add("setup_s", median(warm(setup_s)), "s");
  r.add("op_ms", median(warm(op_s)) * 1e3, "ms");
  r.add("work_per_s", median(warm(rates)), "1/s");
  r.add("wall_s", wall_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("error_rate",
        r.attempted == 0 ? 1.0
                         : static_cast<double>(r.failed) / static_cast<double>(r.attempted),
        "ratio");
}

}  // namespace chasebench
