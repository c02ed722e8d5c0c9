#pragma once
/// \file workflow.hpp
/// The paper's primary contribution (§V, §VI): a workflow layer that declares
/// steps as desired state against the orchestrator and *measures every step*
/// ("a step-by-step workflow and performance measurement approach"). Each
/// step body creates Jobs/ReplicaSets via kube; the driver tags the step's
/// pods, waits for completion, and snapshots pods / CPUs / GPUs / memory /
/// data / duration — exactly the columns of Table I. The measurement records
/// also power the PPoDS ("Process for the Practice of Data Science")
/// collaborative development reports of §VI.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kube/cluster.hpp"
#include "mon/metrics.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "util/table.hpp"

namespace chase::wf {

class Workflow;

/// One row of the Table-I-style step summary.
struct StepReport {
  std::string name;
  int pods = 0;
  double cpus = 0.0;      // sum of scheduled pods' CPU requests
  int gpus = 0;           // sum of scheduled pods' GPU requests
  double data_bytes = 0;  // "Data Processed"
  double peak_memory_bytes = 0;
  int retries = 0;        // fault-path retries surfaced by the step body
  double start_time = 0;
  double end_time = 0;
  double duration() const { return end_time - start_time; }
};

/// Passed to step bodies: access to the world plus measurement hooks.
class StepContext {
 public:
  StepContext(Workflow& wf, std::string step_label)
      : workflow_(wf), label_(std::move(step_label)) {}

  kube::KubeCluster& kube() const;
  sim::Simulation& sim() const;
  const std::string& ns() const;

  /// Label value all of this step's pods must carry ("step" -> label) so the
  /// measurement layer can attribute usage.
  const std::string& step_label() const { return label_; }
  /// Convenience: labels map for pod templates.
  kube::Labels step_labels() const { return {{"step", label_}}; }

  /// Record logical bytes processed by this step (Table I "Data Processed").
  void add_data(double bytes);
  /// Record fault-path retries (re-queued downloads, redelivered queue
  /// leases, re-run shards). Surfaced per step as StepReport.retries and the
  /// "workflow_step_retries" metric.
  void add_retries(int n);

 private:
  friend class Workflow;
  Workflow& workflow_;
  std::string label_;
  double data_bytes_ = 0;
  int retries_ = 0;
};

struct StepSpec {
  std::string name;   // "Step 1: THREDDS download"
  std::string label;  // short label used on pods, e.g. "1"
  /// The step body: declare Jobs/ReplicaSets, await their completion.
  /// Takes the context by pointer (the `Foo* self` coroutine idiom): a
  /// reference parameter would be copied into the lazy frame as a reference
  /// and is exactly the bug class chase_lint's coro-ref-param check flags.
  std::function<sim::Task(StepContext*)> run;
};

/// Sequential workflow driver with per-step measurement.
class Workflow {
 public:
  Workflow(kube::KubeCluster& kube, mon::Registry& metrics, std::string ns,
           std::string name = "workflow");

  void add_step(StepSpec spec);

  /// Execute all steps in order; `done` fires at the end. Must be spawned
  /// into the simulation (or awaited from a task).
  sim::Task execute();
  /// Convenience: spawn execute() and return the completion event.
  sim::EventPtr start(sim::Simulation& sim);

  bool finished() const { return finished_; }
  const std::vector<StepReport>& reports() const { return reports_; }

  /// Render the Table-I-style summary of all executed steps.
  std::string summary_table() const;

  /// Export the workflow as a Kepler-style MoML actor graph (paper §III-E5:
  /// "move this towards a collaborative workflow using the PPODS
  /// methodology and the new Kepler 3.0 interface").
  std::string export_kepler() const;

 private:
  friend class StepContext;
  StepReport measure_step(const StepSpec& spec, const StepContext& ctx, double start,
                          double end) const;

  kube::KubeCluster& kube_;
  mon::Registry& metrics_;
  std::string ns_;
  std::string name_;
  std::vector<StepSpec> steps_;
  std::vector<StepReport> reports_;
  bool finished_ = false;
};

}  // namespace chase::wf
