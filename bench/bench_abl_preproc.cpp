/// \file bench_abl_preproc.cpp
/// Ablation A4 — distributed data pre-processing (paper §III-E1): "this can
/// be modified to distribute this work in parallel to many worker jobs.
/// This would greatly decrease the time it takes to make these input files."

#include <cstdio>

#include "bench_util.hpp"

using namespace chase;

int main() {
  std::printf("=== Ablation A4: serial vs distributed NetCDF->protobuf prep ===\n\n");

  util::Table table({"Prep workers", "Step-2 total", "Prep phase est.", "Speedup vs serial"});
  double serial_total = 0.0;
  double train_only = 0.0;
  {
    // Training-only baseline to isolate the prep phase.
    ml::FfnCostModel cost;
    train_only = cost.training_seconds(cluster::GpuModel::GTX1080Ti, 1);
  }
  for (int workers : {1, 2, 4, 8, 16}) {
    core::Nautilus bed;
    core::ConnectWorkflowParams params;
    params.steps = {2};
    params.prep_workers = workers;
    core::ConnectWorkflow cwf(bed, params);
    bench::run_workflow(bed, cwf.workflow(), 120.0);
    const auto& report = cwf.workflow().reports().at(0);
    if (workers == 1) serial_total = report.duration();
    const double prep = std::max(0.0, report.duration() - train_only);
    const double serial_prep = std::max(1.0, serial_total - train_only);
    table.add_row({std::to_string(workers), util::format_duration(report.duration()),
                   util::format_duration(prep),
                   bench::times(serial_prep / std::max(1.0, prep))});
  }
  std::fputs(table.render("Distributed pre-processing (paper future work III-E1)").c_str(),
             stdout);
  std::printf(
      "\nShape: the serial protobuf phase (~62m of the 306m step) parallelizes\n"
      "nearly linearly across Kubernetes Job workers, shrinking Step 2 toward\n"
      "its GPU-bound floor of ~%s.\n",
      util::format_duration(train_only).c_str());
  return 0;
}
