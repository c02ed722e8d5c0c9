/// \file bench_abl_subset.cpp
/// Ablation A2 — THREDDS variable subsetting on/off (paper §III-A): "we
/// reduced our total archive size from 455GB to 246GB... greatly increasing
/// the speed at which data is transferred."

#include <cstdio>

#include "bench_util.hpp"

using namespace chase;

int main() {
  std::printf("=== Ablation A2: variable subsetting (IVT) vs whole files ===\n");
  std::printf("(archive scaled to 1/8 for the sweep)\n\n");

  struct Run {
    const char* name;
    std::string variable;
    double time = 0;
    double bytes = 0;
  } runs[2] = {{"IVT subset", "IVT"}, {"whole files", ""}};

  for (auto& run : runs) {
    core::Nautilus bed;
    core::ConnectWorkflowParams params;
    params.steps = {1};
    params.data_fraction = 0.125;
    params.variable = run.variable;
    core::ConnectWorkflow cwf(bed, params);
    bench::run_workflow(bed, cwf.workflow(), 60.0);
    const auto& report = cwf.workflow().reports().at(0);
    run.time = report.duration();
    run.bytes = report.data_bytes;
  }

  util::Table table({"Mode", "Bytes moved", "Time", "Rate"});
  for (const auto& run : runs) {
    table.add_row({run.name, util::format_bytes(run.bytes),
                   util::format_duration(run.time),
                   util::format_rate(run.bytes / run.time)});
  }
  std::fputs(table.render("Subsetting ablation").c_str(), stdout);

  std::vector<bench::Comparison> rows;
  rows.push_back({"Archive reduction", "455GB -> 246GB (x0.54)",
                  util::format_bytes(runs[1].bytes) + " -> " +
                      util::format_bytes(runs[0].bytes) + " (x" +
                      util::format_double(runs[0].bytes / runs[1].bytes, 2) + ")",
                  ""});
  rows.push_back({"Download speedup from subsetting", "~1.8x expected",
                  bench::times(runs[1].time / runs[0].time),
                  "extraction cost is per file"});
  bench::print_comparison("Paper vs measured", rows);
  return 0;
}
