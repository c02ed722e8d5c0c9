/// \file main.cpp
/// chasebench: run one workload for a fixed wall time and report its
/// metrics.
///
///   chasebench --workload churn --seed 3 --seconds 10 --trace 0
///   chasebench --workload ffn --seed 3 --seconds 10 --trace 1 --trace-out t.json
///
/// Every metric is printed as `metric <name> <value> <unit>`; the last line
/// is `RESULT {...}`, one JSON object with the run's metadata, the op
/// counts and every metric. `--trace 1` alternates untraced and traced ops
/// and adds the per-layer metrics, the self-time table and
/// `trace.overhead`; the end-to-end numbers always come from untraced ops.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "metrics.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace {

using namespace chasebench;

struct Args {
  std::string workload;
  RunConfig config;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "chasebench: %s\n"
               "usage: chasebench --workload connect_paper|ffn|churn|federation --seed N\n"
               "                  --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.config.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      a.config.seconds = std::stod(value());
    } else if (arg == "--trace") {
      a.config.trace = value() != "0";
    } else if (arg == "--trace-out") {
      a.config.trace_path = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (!(a.config.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  // Timing runs measure the hot path: invariant audits are off unless the
  // environment asks for them (CHASE_AUDIT_LEVEL overrides the default).
  if (std::getenv("CHASE_AUDIT_LEVEL") == nullptr) chase::util::set_audit_level(0);
  const int audit_level = chase::util::audit_level();
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::string guard;
  if (audit_level > 0) guard = "invariant audits on (level " + std::to_string(audit_level) + ")";
  if (!optimized) guard += std::string(guard.empty() ? "" : "; ") + "unoptimised build";
  if (!guard.empty()) {
    std::fprintf(stderr, "chasebench: warning: timings are not comparable: %s\n", guard.c_str());
  }

  RunResult r;
  if (args.workload == "connect_paper") {
    r = run_connect_paper(args.config);
  } else if (args.workload == "ffn") {
    r = run_ffn(args.config);
  } else if (args.workload == "churn") {
    r = run_churn(args.config);
  } else if (args.workload == "federation") {
    r = run_federation(args.config);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  for (const auto& f : r.failures) std::printf("check failed: %s\n", f.c_str());
  if (!r.self_time_table.empty()) std::printf("\nself time by layer\n%s\n", r.self_time_table.c_str());
  for (const auto& m : r.metrics) {
    std::printf("metric %-26s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("RESULT {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.9g, \"trace\": %d, "
              "\"meta\": {\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"optimized\": %s, \"audit_level\": %d, \"timing_valid\": %s, \"guard\": \"%s\"}, "
              "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              json_escape(args.workload).c_str(),
              static_cast<unsigned long long>(args.config.seed), args.config.seconds,
              args.config.trace ? 1 : 0, nproc, json_escape(CHASEBENCH_COMPILER).c_str(),
              json_escape(CHASEBENCH_BUILD_TYPE).c_str(), optimized ? "true" : "false",
              audit_level, guard.empty() ? "true" : "false", json_escape(guard).c_str(),
              r.failed == 0 && r.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}, \"op_ms_samples\": [");
  for (std::size_t i = 0; i < r.op_s.size(); ++i) {
    std::printf("%s%.6f", i == 0 ? "" : ", ", r.op_s[i] * 1e3);
  }
  std::printf("]}\n");
  return 0;
}
