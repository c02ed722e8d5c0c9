/// \file connect_paper.cpp
/// Workload `connect_paper`: paper-scale Table I CONNECT workflows back to
/// back (112,249 files, a 246 GB subset, 50 inference GPUs), with the mon
/// sampler attached as bench_table1 does. One op is one full 4-step run on
/// a freshly built testbed; the seed is the Step 3 straggler seed.

#include <algorithm>
#include <cstring>
#include <memory>

#include "checks.hpp"
#include "core/connect_workflow.hpp"
#include "core/nautilus.hpp"
#include "sim/event.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace chasebench {

namespace {

namespace co = chase::core;

constexpr double kSamplePeriod = 60.0;  // bench_table1's sampler period

co::ConnectWorkflowParams params_for(const RunConfig& c) {
  co::ConnectWorkflowParams p;  // paper defaults
  p.straggler_seed = c.seed;
  if (c.reduced) {
    p.data_fraction = 5e-4;
    p.download_workers = 4;
    p.merge_pods = 1;
    p.url_lists = 8;
    p.inference_gpus = 8;
    p.viz_render_seconds = 5.0;
  }
  return p;
}

struct Testbed {
  std::unique_ptr<co::Nautilus> bed;
  std::unique_ptr<co::ConnectWorkflow> cwf;
};

Testbed build(const co::ConnectWorkflowParams& p) {
  Testbed t;
  t.bed = std::make_unique<co::Nautilus>();
  t.cwf = std::make_unique<co::ConnectWorkflow>(*t.bed, p);
  return t;
}

/// Run the workflow to completion with the metric sampler attached, then
/// drain the sampler. Returns whether the workflow's done event fired.
bool run_workflow(co::Nautilus& bed, chase::wf::Workflow& wf) {
  auto stop = chase::sim::make_event();
  bed.metrics.start_sampler(bed.sim, kSamplePeriod, stop);
  auto done = wf.start(bed.sim);
  const bool finished = chase::sim::run_until(bed.sim, done);
  stop->trigger(bed.sim);
  bed.sim.run(bed.sim.now() + 2 * kSamplePeriod);
  return finished;
}

ConnectOutcome outcome_of(const Testbed& t, bool finished, const co::ConnectWorkflowParams& p,
                          bool reduced) {
  ConnectOutcome o;
  auto& wf = t.cwf->workflow();
  o.finished = finished && wf.finished();
  o.steps = static_cast<int>(wf.reports().size());
  for (int i = 0; i < 4 && i < o.steps; ++i) {
    o.step_sim_s[i] = wf.reports()[static_cast<std::size_t>(i)].duration();
  }
  o.files_expected = t.cwf->scaled_file_count();
  o.files_fetched = t.cwf->files_fetched();
  o.result_shards = t.bed->fs->list("/results/").size();
  o.inference_gpus = p.inference_gpus;
  o.bands = reduced ? nullptr : kTable1Bands;
  return o;
}

/// FNV-1a step over one event of a simulation trace (time bits, sequence).
std::uint64_t trace_hash_step(std::uint64_t h, double time, std::uint64_t seq) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &time, sizeof bits);
  for (std::uint64_t word : {bits, seq}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xFFu;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

/// One replay of the seed with the event-trace hash attached.
std::uint64_t hashed_run(const co::ConnectWorkflowParams& p) {
  Testbed t = build(p);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  t.bed->sim.set_trace_hook([&h](double time, std::uint64_t seq) {
    h = trace_hash_step(h, time, seq);
  });
  run_workflow(*t.bed, t.cwf->workflow());
  t.bed->sim.set_trace_hook({});
  return h;
}

const char* const kStepLayer[5] = {"wf.step1", "wf.step2", "wf.step3", "wf.step4", "wf.other"};

/// One traced op: the wall time of every event is charged to the step whose
/// sim-time span holds it (the step running when the event started).
bool traced_run(Testbed& t, Tracer& tracer, std::uint64_t op, LayerStats& stats) {
  co::Nautilus& bed = *t.bed;
  chase::wf::Workflow& wf = t.cwf->workflow();
  // The watcher lives as long as the testbed, so its counters are shared.
  auto pods = std::make_shared<PodWatch>();
  bed.kube->watch_pods([pods](const chase::kube::PodPtr& pod) { pods->observe(*pod); });
  EventSplitter splitter(tracer, op);
  const char* layer = kStepLayer[0];
  double queue_max = 0;
  bed.sim.set_trace_hook([&](double, std::uint64_t) {
    splitter.boundary(layer);
    const std::size_t done = wf.reports().size();
    layer = kStepLayer[wf.finished() ? 4 : std::min<std::size_t>(done, 3)];
    stats.sample_flows(static_cast<double>(bed.net.active_flows()));
    queue_max = std::max(queue_max, static_cast<double>(bed.thredds->queue_length()));
  });
  const auto t0 = Clock::now();
  bool finished = false;
  {
    Tracer::Scope run(&tracer, "sim.run", op);
    splitter.start();
    finished = run_workflow(bed, wf);
    splitter.finish(layer);
  }
  stats.run_s.push_back(seconds_between(t0, Clock::now()));
  bed.sim.set_trace_hook({});

  stats.events.push_back(static_cast<double>(bed.sim.events_processed()));
  stats.add_event_gaps(splitter.gaps_us());
  stats.bytes_delivered = bed.net.total_bytes_delivered();
  stats.pods_scheduled = pods->scheduled;
  stats.evictions = pods->evictions;
  stats.pending_sim_s = pods->pending_sim_s;
  stats.thredds_requests = static_cast<double>(bed.thredds->requests_served());
  stats.thredds_bytes = bed.thredds->bytes_served();
  stats.thredds_queue_max = queue_max;
  stats.redis_redeliveries = static_cast<double>(bed.redis->redeliveries());
  stats.redis_requeues = static_cast<double>(bed.redis->requeues());
  stats.ceph_written = bed.ceph->total_bytes_written();
  stats.ceph_read = bed.ceph->total_bytes_read();
  for (std::size_t i = 0; i < 4 && i < wf.reports().size(); ++i) {
    stats.step_sim_s[i] = wf.reports()[i].duration();
  }
  return finished;
}

}  // namespace

RunResult run_connect_paper(const RunConfig& c) {
  RunResult r;
  const co::ConnectWorkflowParams p = params_for(c);
  std::vector<double> setup_s, op_s, traced_op_s;
  std::vector<double> events_per_s, sim_per_wall;
  std::uint64_t first_events = 0;
  Tracer tracer;
  LayerStats stats;

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(c.seconds);
  const std::uint64_t min_ops = c.trace ? 2 : 1;
  for (std::uint64_t op = 0; op < min_ops || Clock::now() < deadline; ++op) {
    const bool traced = c.trace && op % 2 == 1;
    Tracer::Scope op_span(traced ? &tracer : nullptr, "bench.op", op);
    const auto s0 = Clock::now();
    Testbed t;
    {
      Tracer::Scope setup_span(traced ? &tracer : nullptr, "setup", op);
      t = build(p);
    }
    const auto s1 = Clock::now();
    const auto self_before = tracer.layer_self_s();
    const bool finished = traced ? traced_run(t, tracer, op, stats)
                                 : run_workflow(*t.bed, t.cwf->workflow());
    const auto s2 = Clock::now();
    setup_s.push_back(seconds_between(s0, s1));
    if (traced) {
      traced_op_s.push_back(seconds_between(s1, s2));
      const auto self_after = tracer.layer_self_s();
      for (int i = 0; i < 4; ++i) {
        const std::string layer = kStepLayer[i];
        const double before = self_before.count(layer) ? self_before.at(layer) : 0.0;
        const double after = self_after.count(layer) ? self_after.at(layer) : 0.0;
        stats.step_wall_s[i].push_back(after - before);
      }
    } else {
      op_s.push_back(seconds_between(s1, s2));
      events_per_s.push_back(static_cast<double>(t.bed->sim.events_processed()) / op_s.back());
      sim_per_wall.push_back(t.bed->sim.now() / op_s.back());
    }

    Problems problems = check_connect(outcome_of(t, finished, p, c.reduced));
    const std::uint64_t ev = t.bed->sim.events_processed();
    if (op == 0) first_events = ev;
    if (ev != first_events) {
      problems.push_back("connect: op processed " + std::to_string(ev) +
                         " events, the first op of this seed " + std::to_string(first_events));
    }
    r.record_ops(1, problems);
  }
  const double wall_s = seconds_between(start, Clock::now());

  // Verification: one repeated seed replays with an identical trace hash.
  const std::uint64_t h1 = hashed_run(p);
  const std::uint64_t h2 = hashed_run(p);
  r.record_ops(1, check_replay(h1, h2));

  add_common_metrics(r, setup_s, op_s, events_per_s, wall_s);
  r.add("events_per_s", median(events_per_s), "1/s");
  r.add("sim_per_wall", median(sim_per_wall), "ratio");
  if (c.trace) {
    add_layer_metrics(r, stats, tracer, op_s, traced_op_s);
    r.self_time_table = tracer.self_time_table();
    if (!c.trace_path.empty()) tracer.write_json(c.trace_path);
  }
  return r;
}

}  // namespace chasebench
