#pragma once
/// \file workloads.hpp
/// The four workloads. Each is one process on one thread: it builds its
/// inputs from the seed, runs ops back to back (closed loop, one client)
/// until the timed phase ends, checks every op's outputs, and returns its
/// metrics. With `trace` set it alternates untraced and traced ops and
/// reports the per-layer metrics of the traced ones.

#include <cstdint>
#include <vector>

#include "kube/types.hpp"
#include "metrics.hpp"

namespace chasebench {

class Tracer;

RunResult run_connect_paper(const RunConfig& config);
RunResult run_ffn(const RunConfig& config);
RunResult run_churn(const RunConfig& config);
RunResult run_federation(const RunConfig& config);

/// Per-layer observations of a traced run. Timing samples pool over the
/// traced ops; counts hold the last traced op's value (ops of one run
/// share their seed, so counts repeat exactly). A layer the workload does
/// not exercise reports 0.
struct LayerStats {
  // sim
  std::vector<double> events;  // per traced op
  std::vector<double> run_s;   // wall of Simulation::run per traced op
  std::vector<double> event_us;
  // net
  double transfers = 0, failed_transfers = 0, bytes_delivered = 0;
  std::vector<double> transfer_us;
  double flow_samples = 0, flow_sum = 0, flow_max = 0;
  // kube
  std::vector<double> submit_us, drain_us, pending_sim_s;
  double pods_scheduled = 0, evictions = 0;
  // services
  double thredds_requests = 0, thredds_bytes = 0, thredds_queue_max = 0;
  double redis_redeliveries = 0, redis_requeues = 0;
  double ceph_written = 0, ceph_read = 0;
  // wf
  std::vector<double> step_wall_s[4];
  double step_sim_s[4] = {0, 0, 0, 0};
  // ml
  std::vector<double> example_ms, forward_ms, loss_ms, backward_ms, optimizer_ms;
  double forward_gflops = 0, infer_s = 0, infer_fov_moves = 0, connect_label_ms = 0;
  // chaos
  double node_crashes = 0, site_partitions = 0;

  /// Pool one traced op's event gaps (capped so long runs stay small).
  void add_event_gaps(const std::vector<float>& gaps_us);
  /// Sample the network's active flow count at an event boundary.
  void sample_flows(double active) {
    flow_samples += 1;
    flow_sum += active;
    if (active > flow_max) flow_max = active;
  }
};

/// Pod-phase observer for `KubeCluster::watch_pods`: counts pods that start
/// running (with their simulated pending time) and pods evicted by a
/// drain, node loss, preemption or disruption.
struct PodWatch {
  double scheduled = 0, evictions = 0;
  std::vector<double> pending_sim_s;
  /// Set by the observer each time it runs; traced workloads read and
  /// clear it to tell which events did kube work.
  bool fired = false;

  void observe(const chase::kube::Pod& pod) {
    fired = true;
    if (pod.phase == chase::kube::PodPhase::Running) {
      ++scheduled;
      pending_sim_s.push_back(pod.started_at - pod.created_at);
    } else if (pod.phase == chase::kube::PodPhase::Failed &&
               (pod.reason == "Drained" || pod.reason == "NodeLost" ||
                pod.reason == "Preempted" || pod.reason == "Disrupted" ||
                pod.reason == "TaintNoExecute")) {
      ++evictions;
    }
  }
};

/// Emit every per-layer metric, the per-layer self-time shares, and
/// `trace.overhead` (median traced op over median untraced op).
void add_layer_metrics(RunResult& r, const LayerStats& s, const Tracer& tracer,
                       const std::vector<double>& untraced_op_s,
                       const std::vector<double>& traced_op_s);

}  // namespace chasebench
