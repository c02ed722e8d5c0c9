#pragma once
/// \file connect_workflow.hpp
/// The paper's case study (§III): the accelerated CONNECT object-segmentation
/// workflow over MERRA-2 IVT data, as a 4-step chase::wf workflow on the
/// Nautilus testbed:
///
///   Step 1 — THREDDS data download: a Redis-fed Job of download workers
///            (Aria2, 20 parallel connections each) pulls the IVT variable
///            subset (455 GB -> 246 GB), merge pods bundle the 112,249
///            NetCDF files into large HDF objects in the Ceph Object Store.
///   Step 2 — Model training: one pod, one 1080ti; serial protobuf data
///            prep, then FFN training on the 576×361×240 volume.
///   Step 3 — Model inference: a Job of N single-GPU pods (paper: 50) sharding
///            2.3e10 voxels evenly.
///   Step 4 — JupyterLab visualization: one pod loads 5.8 GB of results from
///            Ceph and renders.
///
/// All knobs the ablation benches vary (workers, connections, GPUs, variable
/// subsetting, distributed prep/training) are parameters. Data is virtual
/// (byte counts) at this scale; the small-scale *real* ML path lives in
/// examples/connect_workflow.cpp.

#include <cstdint>
#include <memory>
#include <string>

#include "core/nautilus.hpp"
#include "core/workflow.hpp"
#include "ml/cost.hpp"

namespace chase::core {

struct ConnectWorkflowParams {
  // --- step 1: download ------------------------------------------------------
  std::string dataset = "M2I3NPASM";
  /// Variable to subset; empty string downloads whole files (ablation A2).
  std::string variable = "IVT";
  int download_workers = 10;
  int aria2_connections = 20;
  int merge_pods = 2;
  /// Redis messages, each a list of URLs (the paper's "files that contain
  /// urls"); files are split evenly across lists.
  int url_lists = 500;
  /// Per-merger throughput of combining NetCDF files into HDF bundles.
  double merge_bytes_per_cpu_second = 30e6;

  // --- step 2: training -------------------------------------------------------
  /// Serial NetCDF->protobuf preparation throughput (the Fig. 5 "purple"
  /// phase); §III-E1's distributed variant splits this across workers.
  double prep_bytes_per_second = 66e6;
  int prep_workers = 1;   // ablation A4 (distributed pre-processing)

  // --- step 3: inference --------------------------------------------------------
  int inference_gpus = 50;
  /// Per-pod runtime jitter (stragglers), fraction of mean.
  double straggler_jitter = 0.04;
  /// Seed of the straggler-jitter stream; the run is a pure function of the
  /// seed (tools/determinism_check replays a seed twice and diffs traces).
  std::uint64_t straggler_seed = 2027;

  // --- step 4: visualization ------------------------------------------------------
  double viz_render_seconds = 120.0;

  // --- fault tolerance ---------------------------------------------------------
  /// Redelivery lease on queue messages: a popped URL list a worker never
  /// acks (pod died mid-download) returns to the queue after this long.
  double queue_lease_ttl = 600.0;
  /// Per-URL-list download attempts (only failed files are refetched).
  int download_max_attempts = 5;
  /// Exponential backoff between fault-path retries, seconds.
  double retry_backoff_base = 1.0;
  double retry_backoff_max = 60.0;

  // --- shared ------------------------------------------------------------------------
  /// Scale the archive (files and voxels) for fast tests: 1.0 = paper scale.
  double data_fraction = 1.0;
  /// Which steps to build (1..4); per-figure benches isolate single steps.
  std::vector<int> steps = {1, 2, 3, 4};
  ml::FfnCostModel cost;
  ml::PaperWorkload paper;
  std::string ns = "atmos-connect";
};

/// Wires the 4-step workflow against a Nautilus testbed. The returned
/// Workflow is ready to `start(bed.sim)`; keep the builder alive until the
/// run finishes (it owns shared workflow state).
class ConnectWorkflow {
 public:
  ConnectWorkflow(Nautilus& bed, ConnectWorkflowParams params);

  wf::Workflow& workflow() { return *workflow_; }
  const ConnectWorkflowParams& params() const;

  /// Total files and bytes the run will move (after data_fraction scaling).
  std::uint64_t scaled_file_count() const;
  double scaled_subset_bytes() const;
  double scaled_archive_bytes() const;
  double scaled_inference_voxels() const;

  /// Files durably downloaded exactly once (byte-conservation check: equals
  /// scaled_file_count() after a completed step 1, faults or not).
  std::uint64_t files_fetched() const;

  /// Shared mutable state between the step bodies and pod programs
  /// (public so the program factories can reference it; treat as internal).
  struct State;

 private:
  void build();

  Nautilus& bed_;
  std::shared_ptr<State> state_;  // holds the params too
  std::unique_ptr<wf::Workflow> workflow_;
};

}  // namespace chase::core
