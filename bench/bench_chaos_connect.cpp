/// \file bench_chaos_connect.cpp
/// The full-scale CONNECT workflow under scripted fault scenarios — the
/// chaos capstone. Three runs per scenario set:
///
///   baseline      no faults; records the per-step boundaries the scenarios
///                 key their fault times off, and the reference durations.
///   node-kill     20% of the GPU machines crash 30% into step 3 (model
///                 inference). Evicted pods requeue their shards; the Job
///                 reschedules replacements on surviving machines.
///   infra-shake   the THREDDS uplink partitions mid-download (heals after a
///                 couple of minutes), the Redis pod is disruption-killed
///                 (the ReplicaSet self-heals, queue leases redeliver
///                 in-flight lists), and an OSD fails and recovers.
///
/// Every run executes at invariant-audit level 2 (per-flow byte
/// conservation, PG replica placement, queue/lease accounting) with the
/// aborting failure handler. Asserted acceptance criteria:
///
///   * each scenario completes with ALL files accounted for
///     (files_fetched == scaled_file_count, one /results/ shard per GPU),
///   * faulted step-3 duration stays within 1.5x the no-fault baseline,
///   * the node-kill scenario replays bit-identically (same seed -> same
///     FNV-1a event-trace hash across two runs).
///
/// `--smoke` shrinks the workload (2% archive, 8 GPUs) for CI; the full run
/// reproduces the paper scale (112,249 files, 50 GPUs).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chaos/chaos.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace chase;

namespace {

using util::bits_of;
using util::fnv1a;

struct RunResult {
  bool finished = false;
  double total_seconds = 0.0;
  std::vector<wf::StepReport> reports;
  std::uint64_t files_fetched = 0;
  int retries = 0;
  std::size_t result_shards = 0;
  std::uint64_t trace_hash = util::kFnvOffset;
  chaos::ChaosReport chaos;
};

using PlanFactory =
    std::function<chaos::ChaosPlan(core::Nautilus&, core::ConnectWorkflow&)>;

/// Build a fresh testbed, optionally arm a chaos plan, run the workflow to
/// completion, and fingerprint the event trace.
RunResult run_scenario(const core::ConnectWorkflowParams& params,
                       const PlanFactory& make_plan) {
  core::Nautilus bed;
  core::ConnectWorkflow cwf(bed, params);

  RunResult result;
  bed.sim.set_trace_hook([&result](double time, std::uint64_t seq) {
    result.trace_hash = fnv1a(result.trace_hash, bits_of(time));
    result.trace_hash = fnv1a(result.trace_hash, seq);
  });

  std::unique_ptr<chaos::ChaosInjector> injector;
  if (make_plan) {
    injector = std::make_unique<chaos::ChaosInjector>(
        bed.sim, bed.net, bed.inventory, make_plan(bed, cwf), bed.kube.get(),
        bed.ceph.get(), &bed.metrics);
    injector->arm();
  }

  result.total_seconds = bench::run_workflow(bed, cwf.workflow(), 60.0);
  result.finished = cwf.workflow().finished();
  result.reports = cwf.workflow().reports();
  result.files_fetched = cwf.files_fetched();
  for (const auto& r : result.reports) result.retries += r.retries;
  result.result_shards = bed.fs->list("/results/").size();
  if (injector) result.chaos = injector->report();
  return result;
}

int g_failures = 0;

void expect(bool condition, const std::string& what) {
  if (condition) {
    std::printf("  [ok]   %s\n", what.c_str());
  } else {
    std::printf("  [FAIL] %s\n", what.c_str());
    g_failures += 1;
  }
}

void print_run(const char* name, const RunResult& r) {
  std::printf("%s: %s in %s, %" PRIu64 " files fetched, %d retries, "
              "%zu result shards, trace %016" PRIx64 "\n",
              name, r.finished ? "finished" : "DID NOT FINISH",
              util::format_duration(r.total_seconds).c_str(), r.files_fetched,
              r.retries, r.result_shards, r.trace_hash);
  for (const auto& step : r.reports) {
    std::printf("    %-32s %10s  retries=%d\n", step.name.c_str(),
                util::format_duration(step.duration()).c_str(), step.retries);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // Invariant audits at the deepest level for the whole bench: network
  // byte conservation, Ceph PG replica placement, Redis queue/lease
  // accounting, kube binding sanity. The default handler aborts on the
  // first violation, so a clean exit means a clean audit.
  util::set_audit_level(2);

  core::ConnectWorkflowParams params;
  if (smoke) {
    params.data_fraction = 0.02;
    params.inference_gpus = 8;
    params.url_lists = 100;
    params.queue_lease_ttl = 60.0;
  }
  const double heal_after = smoke ? 60.0 : 120.0;

  std::printf("=== CONNECT under chaos (%s scale) ===\n\n",
              smoke ? "smoke" : "paper");

  // ---------------------------------------------------------------- baseline
  RunResult base = run_scenario(params, nullptr);
  print_run("baseline", base);
  core::ConnectWorkflowParams probe_params = params;
  core::Nautilus probe;  // fault targets resolved on an identical testbed
  core::ConnectWorkflow probe_cwf(probe, probe_params);
  const std::uint64_t expected_files = probe_cwf.scaled_file_count();

  expect(base.finished, "baseline finishes");
  expect(base.files_fetched == expected_files,
         "baseline fetches all " + std::to_string(expected_files) + " files");
  expect(base.reports.size() == 4 && base.result_shards ==
             static_cast<std::size_t>(params.inference_gpus),
         "baseline writes one result shard per inference GPU");
  if (g_failures > 0 || base.reports.size() != 4) {
    std::printf("\nbaseline unusable, aborting\n");
    return 1;
  }
  const double step1_start = base.reports[0].start_time;
  const double step1_dur = base.reports[0].duration();
  const double step3_start = base.reports[2].start_time;
  const double step3_dur = base.reports[2].duration();

  // --------------------------------------------------------------- node-kill
  // Kill 20% of the GPU machines 30% into the inference step: a killed shard
  // is redone from scratch by a replacement pod, so the step lands around
  // 0.3 + 1.0 = 1.3x baseline plus detection + rescheduling overhead —
  // within the 1.5x budget, but only because eviction requeues shards
  // instead of silently dropping them.
  std::printf("\n--- scenario: kill 20%% of GPU machines mid-inference ---\n");
  auto kill_plan = [&](core::Nautilus& bed, core::ConnectWorkflow&) {
    chaos::ChaosPlan plan(/*seed=*/2030);
    plan.crash_fraction(step3_start + 0.3 * step3_dur, bed.gpu_machines(), 0.20);
    return plan;
  };
  RunResult kill = run_scenario(params, kill_plan);
  print_run("node-kill", kill);
  RunResult kill2 = run_scenario(params, kill_plan);

  expect(kill.finished, "node-kill finishes");
  expect(kill.chaos.node_crashes > 0, "fault fired (crashed " +
                                          std::to_string(kill.chaos.node_crashes) +
                                          " machines)");
  expect(kill.files_fetched == expected_files, "node-kill conserves all files");
  expect(kill.result_shards == static_cast<std::size_t>(params.inference_gpus),
         "node-kill writes one result shard per inference GPU");
  const double kill_step3 = kill.reports.size() == 4 ? kill.reports[2].duration() : 0;
  expect(kill.reports.size() == 4 && kill_step3 <= 1.5 * step3_dur,
         "faulted step 3 (" + util::format_duration(kill_step3) + ") <= 1.5x baseline (" +
             util::format_duration(step3_dur) + ")");
  expect(kill_step3 > step3_dur, "faulted step 3 is measurably slower than baseline");
  expect(kill.trace_hash == kill2.trace_hash,
         "same seed replays bit-identically (trace hash match)");

  // ------------------------------------------------------------- infra-shake
  // Partition the THREDDS uplink a quarter into the download (heals after
  // ~2 min), disruption-kill the Redis pod at the halfway mark, and fail an
  // OSD (recovers later). Download workers retry failed files; leases
  // redeliver lists popped by the dead Redis consumer side; Ceph remaps and
  // re-replicates placement groups.
  std::printf("\n--- scenario: THREDDS partition + Redis kill + OSD failure ---\n");
  auto shake_plan = [&](core::Nautilus& bed, core::ConnectWorkflow& cwf) {
    chaos::ChaosPlan plan(/*seed=*/2031);
    const net::LinkId uplink = bed.net.find_link(bed.thredds->node(), bed.site_switch(0));
    plan.partition_link(step1_start + 0.25 * step1_dur, uplink, heal_after);
    plan.kill_pods(step1_start + 0.5 * step1_dur, cwf.params().ns, {{"app", "redis"}});
    plan.fail_osd(step1_start + 0.4 * step1_dur, /*osd=*/3, /*down_for=*/300.0);
    return plan;
  };
  RunResult shake = run_scenario(params, shake_plan);
  print_run("infra-shake", shake);

  expect(shake.finished, "infra-shake finishes");
  expect(shake.chaos.link_partitions == 1 && shake.chaos.link_heals == 1,
         "THREDDS uplink partitioned and healed");
  expect(shake.chaos.pods_killed >= 1, "Redis pod disruption-killed");
  expect(shake.chaos.osd_failures == 1 && shake.chaos.osd_recoveries == 1,
         "OSD failed and recovered");
  expect(shake.files_fetched == expected_files, "infra-shake conserves all files");
  expect(shake.retries > 0, "fault-path retries were exercised (" +
                                std::to_string(shake.retries) + ")");

  std::printf("\n%s\n", g_failures == 0 ? "ALL CHAOS SCENARIOS PASSED"
                                        : "CHAOS SCENARIO FAILURES");
  return g_failures == 0 ? 0 : 1;
}
