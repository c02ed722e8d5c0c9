/// \file bench_abl_workers.cpp
/// Ablation A1 — worker-count scaling of the Step-1 download job: where does
/// the THREDDS server become the bottleneck? (The paper fixed 10 workers;
/// §V notes the Job "allows for easily scaling the number of workers".)

#include <cstdio>

#include "bench_util.hpp"

using namespace chase;

int main() {
  std::printf("=== Ablation A1: Step-1 download time vs worker count ===\n");
  std::printf("(archive scaled to 1/8 for the sweep; shape is what matters)\n\n");

  util::Table table({"Workers", "Time", "Speedup vs 1", "Aggregate rate", "Server queue"});
  double base_time = 0.0;
  for (int workers : {1, 2, 5, 10, 20, 40}) {
    core::Nautilus bed;
    core::ConnectWorkflowParams params;
    params.steps = {1};
    params.data_fraction = 0.125;
    params.download_workers = workers;
    // Fewer connections per worker than the paper's 20 so the sweep shows
    // the ramp: with 20, a single worker already saturates the server.
    params.aria2_connections = 4;
    params.url_lists = std::max(60, workers * 6);
    core::ConnectWorkflow cwf(bed, params);
    bench::run_workflow(bed, cwf.workflow(), 60.0);
    const auto& report = cwf.workflow().reports().at(0);
    if (workers == 1) base_time = report.duration();
    table.add_row({std::to_string(workers), util::format_duration(report.duration()),
                   bench::times(base_time / report.duration()),
                   util::format_rate(report.data_bytes / report.duration()),
                   std::to_string(bed.thredds->queue_length())});
  }
  std::fputs(table.render("Download scaling (246GB/8 archive)").c_str(), stdout);
  std::printf(
      "\nExpected shape: near-linear speedup until the THREDDS extraction\n"
      "slots saturate (~16 concurrent extractions), then flat — matching the\n"
      "paper's observation that the server, not the workers, bounds Step 1.\n");
  return 0;
}
