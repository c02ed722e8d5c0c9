/// \file bench_abl_gpus.cpp
/// Ablation A3 — GPU-count scaling of Step-3 inference: "The number of GPUs
/// in this section can scale to any number depending on the number of
/// inference jobs needed... It would take a long time for a limited number
/// of GPUs to produce the same result" (paper §III-C).

#include <cstdio>

#include "bench_util.hpp"

using namespace chase;

int main() {
  std::printf("=== Ablation A3: Step-3 inference time vs GPU count ===\n");
  std::printf("(full 2.3e10-voxel workload; GPU time from the calibrated rate model)\n\n");

  util::Table table({"GPUs", "Time", "Speedup vs 1", "Efficiency"});
  double base = 0.0;
  for (int gpus : {1, 10, 25, 50, 100}) {
    core::Nautilus bed;
    core::ConnectWorkflowParams params;
    params.steps = {3};
    params.inference_gpus = gpus;
    core::ConnectWorkflow cwf(bed, params);
    bench::run_workflow(bed, cwf.workflow(), 600.0);
    const auto& report = cwf.workflow().reports().at(0);
    if (gpus == 1) base = report.duration();
    const double speedup = base / report.duration();
    table.add_row({std::to_string(gpus), util::format_duration(report.duration()),
                   bench::times(speedup),
                   util::format_double(speedup / gpus * 100, 1) + "%"});
  }
  std::fputs(table.render("Inference GPU scaling").c_str(), stdout);
  std::printf(
      "\nPaper anchor: 50 GPUs -> 1133m. Shape: near-linear scaling (the work\n"
      "shards evenly; stragglers and shared Ceph reads cost a few percent).\n"
      "The 128-GPU cluster caps usable parallelism at ~100 concurrent pods\n"
      "plus scheduling headroom.\n");
  return 0;
}
