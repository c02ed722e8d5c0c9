/// \file bench_compare.cpp
/// Perf-regression gate: diff a fresh `bench_core_throughput --json` run
/// against the committed baseline (BENCH_core_throughput.json).
///
/// Three checks per size rung, by name:
///   * `events` must match the baseline EXACTLY — the bench is a seeded
///     deterministic workload, so any drift in the event count is a
///     behavior change sneaking in through a "perf" patch, not noise.
///   * every deterministic output the baseline row carries (`sim_s`,
///     `final_loss`, `comm_bytes`, `dropped`) must be printed identically:
///     a build that moves a loss without moving an event count (FMA
///     contraction, a reordered reduction) changes results all the same.
///   * `events_per_sec` must be at least (100 - tolerance)% of the
///     baseline. Wall time is machine- and load-dependent, so the default
///     tolerance is deliberately loose (40%); it catches order-of-magnitude
///     regressions (a reintroduced per-event allocation, an accidental
///     O(n^2)), not scheduler jitter.
///
/// The current run can be given as a file (--current) or produced on the
/// spot by launching the bench binary (--bench), which is how the
/// perf-labeled ctest uses it. --bench runs the bench kRepetitions times:
/// every run must pass the two exact checks, and the speed check reads each
/// rung's median events/sec, so one rung slowed by a busy host does not fail
/// the gate while code that is slower, which slows every run, still does.
///
///   $ build/tools/bench_compare --baseline BENCH_core_throughput.json
///         --bench build/bench/bench_core_throughput --tolerance 40
///   $ build/tools/bench_compare --baseline a.json --current b.json
///
/// Exit 0: all rungs within tolerance. Exit 1: regression (or event-count
/// or output drift in any run). Exit 2: usage / IO / parse error.
///
/// The parser below reads exactly the schema bench_core_throughput emits
/// (schema 1); it is a scanner, not a general JSON library, on purpose —
/// the repo has no JSON dependency and does not want one for this.

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

/// Per-rung outputs that are pure functions of the seeded workload; they are
/// compared as printed text, so "equal" means bit-for-bit at the printed
/// precision.
constexpr const char* kExactFields[] = {"sim_s", "final_loss", "comm_bytes", "dropped"};

/// Runs of the bench that --bench takes per gate (odd, so the median is one
/// of them). Single runs of sub-second rungs such as core_throughput's
/// `small` or disttrain's `ring_w1` have read as low as 0.41x of their
/// baseline on a busy 4-core host, with no change to the code.
constexpr int kRepetitions = 5;

struct SizeResult {
  std::string name;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double sim_per_wall = 0.0;
  /// (field, printed value) for each kExactFields entry the row carries.
  std::vector<std::pair<std::string, std::string>> exact;
};

struct BenchRun {
  int schema = 0;
  bool smoke = false;
  std::vector<SizeResult> sizes;
};

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Value of `"key":` scanning from `from` within [from, to); npos if absent.
std::size_t find_key(const std::string& s, const std::string& key,
                     std::size_t from, std::size_t to) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = s.find(needle, from);
  if (at == std::string::npos || at >= to) return std::string::npos;
  const std::size_t colon = s.find(':', at + needle.size());
  if (colon == std::string::npos || colon >= to) return std::string::npos;
  return s.find_first_not_of(" \t\r\n", colon + 1);
}

bool parse_run(const std::string& text, BenchRun* run, std::string* err) {
  std::size_t at = find_key(text, "schema", 0, text.size());
  if (at == std::string::npos) {
    *err = "missing \"schema\"";
    return false;
  }
  run->schema = std::atoi(text.c_str() + at);
  if (run->schema != 1) {
    *err = "unsupported schema " + std::to_string(run->schema);
    return false;
  }
  at = find_key(text, "smoke", 0, text.size());
  if (at == std::string::npos) {
    *err = "missing \"smoke\"";
    return false;
  }
  run->smoke = text.compare(at, 4, "true") == 0;

  const std::size_t sizes_at = find_key(text, "sizes", 0, text.size());
  if (sizes_at == std::string::npos || text[sizes_at] != '[') {
    *err = "missing \"sizes\" array";
    return false;
  }
  std::size_t cursor = sizes_at + 1;
  while (true) {
    const std::size_t open = text.find('{', cursor);
    const std::size_t close_arr = text.find(']', cursor);
    if (open == std::string::npos || (close_arr != std::string::npos && close_arr < open)) {
      break;  // end of array
    }
    const std::size_t close = text.find('}', open);
    if (close == std::string::npos) {
      *err = "unterminated size object";
      return false;
    }
    SizeResult r;
    std::size_t f = find_key(text, "name", open, close);
    if (f == std::string::npos || text[f] != '"') {
      *err = "size object without \"name\"";
      return false;
    }
    const std::size_t name_end = text.find('"', f + 1);
    r.name = text.substr(f + 1, name_end - f - 1);
    f = find_key(text, "events", open, close);
    if (f == std::string::npos) {
      *err = "size '" + r.name + "' without \"events\"";
      return false;
    }
    r.events = std::strtoull(text.c_str() + f, nullptr, 10);
    f = find_key(text, "events_per_sec", open, close);
    if (f == std::string::npos) {
      *err = "size '" + r.name + "' without \"events_per_sec\"";
      return false;
    }
    r.events_per_sec = std::strtod(text.c_str() + f, nullptr);
    f = find_key(text, "sim_per_wall", open, close);
    if (f != std::string::npos) r.sim_per_wall = std::strtod(text.c_str() + f, nullptr);
    for (const char* field : kExactFields) {
      f = find_key(text, field, open, close);
      if (f == std::string::npos) continue;
      const std::size_t end = std::min(text.find_first_of(",} \t\r\n", f), close);
      r.exact.emplace_back(field, text.substr(f, end - f));
    }
    run->sizes.push_back(r);
    cursor = close + 1;
  }
  if (run->sizes.empty()) {
    *err = "no sizes in run";
    return false;
  }
  return true;
}

const SizeResult* find_size(const BenchRun& run, const std::string& name) {
  for (const auto& s : run.sizes) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// The printed value of `field` in `row`, or "(absent)".
std::string exact_value(const SizeResult& row, const std::string& field) {
  for (const auto& [key, value] : row.exact) {
    if (key == field) return value;
  }
  return "(absent)";
}

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: bench_compare --baseline FILE (--current FILE | --bench EXE [--smoke])\n"
      "                     [--tolerance PCT] [--out FILE]\n"
      "\n"
      "  --baseline FILE   committed reference run (BENCH_core_throughput.json)\n"
      "  --current FILE    fresh run to compare (from bench_core_throughput --json)\n"
      "  --bench EXE       produce the current runs by executing EXE --json %d times;\n"
      "                    events/sec is then each rung's median over the runs\n"
      "  --smoke           pass --smoke to EXE (only with --bench)\n"
      "  --tolerance PCT   max allowed events/sec regression, percent (default 40)\n"
      "  --out FILE        where --bench writes each fresh run; the last one stays\n"
      "                    (default: bench_compare_current.json)\n",
      kRepetitions);
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  std::string bench_exe;
  std::string out_path;
  bool smoke = false;
  double tolerance = 40.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_compare: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--current") {
      current_path = next();
    } else if (arg == "--bench") {
      bench_exe = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--tolerance") {
      tolerance = std::atof(next());
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "bench_compare: unknown argument '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (baseline_path.empty() || (current_path.empty() == bench_exe.empty())) {
    usage(stderr);
    return 2;
  }

  std::string baseline_text, err;
  if (!read_file(baseline_path, &baseline_text)) {
    std::fprintf(stderr, "bench_compare: cannot read '%s'\n", baseline_path.c_str());
    return 2;
  }
  BenchRun baseline;
  if (!parse_run(baseline_text, &baseline, &err)) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", baseline_path.c_str(), err.c_str());
    return 2;
  }

  std::string cmd;
  if (!bench_exe.empty()) {
    if (out_path.empty()) out_path = "bench_compare_current.json";
    cmd = "\"" + bench_exe + "\" --json --out \"" + out_path + "\"";
    if (smoke) cmd += " --smoke";
    current_path = out_path;
  }
  std::vector<BenchRun> current;
  const int runs = bench_exe.empty() ? 1 : kRepetitions;
  for (int r = 0; r < runs; ++r) {
    if (!cmd.empty()) {
      std::fprintf(stderr, "bench_compare: run %d/%d: %s\n", r + 1, runs, cmd.c_str());
      const int rc = std::system(cmd.c_str());
      if (rc != 0) {
        std::fprintf(stderr, "bench_compare: bench run failed (rc=%d)\n", rc);
        return 2;
      }
    }
    std::string current_text;
    if (!read_file(current_path, &current_text)) {
      std::fprintf(stderr, "bench_compare: cannot read '%s'\n", current_path.c_str());
      return 2;
    }
    BenchRun run;
    if (!parse_run(current_text, &run, &err)) {
      std::fprintf(stderr, "bench_compare: %s: %s\n", current_path.c_str(), err.c_str());
      return 2;
    }
    if (baseline.smoke != run.smoke) {
      std::fprintf(stderr,
                   "bench_compare: smoke flags differ (baseline=%s, current=%s); "
                   "the runs are different workloads and cannot be compared\n",
                   baseline.smoke ? "true" : "false", run.smoke ? "true" : "false");
      return 2;
    }
    current.push_back(std::move(run));
  }

  const double floor_ratio = 1.0 - tolerance / 100.0;
  int failures = 0;
  if (runs > 1) {
    std::printf("events/sec: median of %d runs; range: slowest..fastest run\n", runs);
  }
  std::printf("%-8s %12s %12s %14s %14s %8s %13s\n", "size", "base ev", "cur ev",
              "base ev/s", "cur ev/s", "ratio", "range");
  for (const auto& base : baseline.sizes) {
    std::vector<const SizeResult*> rows;
    for (const auto& run : current) {
      if (const SizeResult* row = find_size(run, base.name)) rows.push_back(row);
    }
    if (rows.size() != current.size()) {
      std::printf("%-8s missing from current run: FAIL\n", base.name.c_str());
      ++failures;
      continue;
    }
    // Shown in the table: the first run whose event count drifted, if any.
    const SizeResult* shown = rows.front();
    bool events_ok = true;
    bool outputs_ok = true;
    std::vector<double> rates;
    for (const SizeResult* row : rows) {
      if (row->events != base.events && events_ok) shown = row;
      events_ok = events_ok && row->events == base.events;
      for (const auto& [field, value] : base.exact) {
        outputs_ok = outputs_ok && exact_value(*row, field) == value;
      }
      rates.push_back(row->events_per_sec);
    }
    std::sort(rates.begin(), rates.end());
    const double rate = rates[rates.size() / 2];  // median: the run count is odd
    const double scale = base.events_per_sec > 0.0 ? 1.0 / base.events_per_sec : 0.0;
    const double ratio = rate * scale;
    const bool speed_ok = ratio >= floor_ratio;
    std::printf("%-8s %12llu %12llu %14.1f %14.1f %7.2fx %5.2f..%5.2fx %s\n",
                base.name.c_str(), static_cast<unsigned long long>(base.events),
                static_cast<unsigned long long>(shown->events), base.events_per_sec, rate,
                ratio, rates.front() * scale, rates.back() * scale,
                events_ok && outputs_ok && speed_ok ? "ok" : "FAIL");
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (const auto& [field, value] : base.exact) {
        const std::string now = exact_value(*rows[r], field);
        if (now != value) {
          std::printf("  %s drifted from the committed baseline: %s -> %s (run %zu)\n",
                      field.c_str(), value.c_str(), now.c_str(), r + 1);
        }
      }
    }
    if (!events_ok) {
      std::printf("  event count drifted from the committed baseline: the seeded "
                  "workload changed behavior, not just speed\n");
      ++failures;
    } else if (!outputs_ok) {
      std::printf("  deterministic outputs drifted: the seeded workload computed "
                  "different results, not just at a different speed\n");
      ++failures;
    } else if (!speed_ok) {
      std::printf("  events/sec regressed below %.0f%% of baseline\n", floor_ratio * 100.0);
      ++failures;
    }
  }
  if (failures > 0) {
    std::printf("bench_compare: %d size(s) FAILED (tolerance %.0f%%)\n", failures,
                tolerance);
    return 1;
  }
  std::printf("bench_compare: all %zu size(s) within tolerance (%.0f%%)\n",
              baseline.sizes.size(), tolerance);
  return 0;
}
