#pragma once
/// \file types.hpp
/// Kubernetes-style API objects for the CHASE-CI orchestrator substrate
/// (paper §II-A, §IV, §V): resource lists, label selectors, Pods and the
/// scheduling controllers the paper's workflow uses (Job for batch steps,
/// ReplicaSet for scaled services), namespaces and resource quotas.
///
/// Pods carry a *program*: a coroutine describing the containerized
/// workload's behaviour against the simulated world (compute, transfers,
/// storage and queue operations). The kubelet runs the program when the pod
/// is placed; the program's completion ends the pod.

#include <climits>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace chase::kube {

using util::Bytes;
using Labels = std::map<std::string, std::string>;

/// True iff every selector entry is present (with equal value) in `labels`.
bool selector_matches(const Labels& selector, const Labels& labels);

/// Requestable compute resources. CPU is in cores (fractional allowed),
/// mirroring Kubernetes' milliCPU granularity.
struct ResourceList {
  double cpu = 0.0;
  Bytes memory = 0;
  int gpus = 0;

  // + and fits_within are inline: the scheduler evaluates both for every
  // candidate it scores.
  ResourceList& operator+=(const ResourceList& o) {
    cpu += o.cpu;
    memory += o.memory;
    gpus += o.gpus;
    return *this;
  }
  ResourceList& operator-=(const ResourceList& o);
  /// True iff this resource request fits within `capacity` (CPU with 1e-9
  /// slack for fractional requests summed in floating point).
  bool fits_within(const ResourceList& capacity) const {
    return cpu <= capacity.cpu + 1e-9 && memory <= capacity.memory &&
           gpus <= capacity.gpus;
  }
  std::string to_string() const;
};

inline ResourceList operator+(ResourceList a, const ResourceList& b) {
  a += b;
  return a;
}

struct ObjectMeta {
  std::string ns;
  std::string name;
  Labels labels;
  std::uint64_t uid = 0;
};

/// Owner reference for garbage collection / controller dispatch.
struct OwnerRef {
  std::string kind;  // "Job", "ReplicaSet" or empty
  std::string name;
  bool valid() const { return !kind.empty(); }
};

class PodContext;
/// A containerized workload: a coroutine run by the kubelet once the pod is
/// scheduled and its image is pulled.
using Program = std::function<sim::Task(PodContext&)>;

struct ContainerSpec {
  std::string name = "main";
  std::string image = "library/busybox";
  Bytes image_size = util::mb(200);
  ResourceList requests;
  Program program;  // may be empty: the container then completes immediately
};

/// Taint effects, Kubernetes-style.
enum class TaintEffect { NoSchedule, NoExecute };

struct Taint {
  std::string key;
  std::string value;
  TaintEffect effect = TaintEffect::NoSchedule;
};

struct Toleration {
  std::string key;
  std::string value;  // empty tolerates any value of the key
  bool tolerates(const Taint& taint) const {
    return key == taint.key && (value.empty() || value == taint.value);
  }
};

struct PodSpec {
  std::vector<ContainerSpec> containers;
  /// Node label selector (e.g. {"gpu-model": "1080ti"}); the paper's related
  /// work uses "Kubernetes object labeling conventions" to target nodes.
  Labels node_selector;
  /// Taints this pod tolerates.
  std::vector<Toleration> tolerations;
  /// Scheduling priority; higher preempts lower when the cluster is full.
  int priority = 0;
};

enum class PodPhase { Pending, Running, Succeeded, Failed };

struct Pod {
  ObjectMeta meta;
  PodSpec spec;
  OwnerRef owner;

  PodPhase phase = PodPhase::Pending;
  int node = -1;                // MachineId once bound
  std::vector<int> gpu_ids;     // devices granted by the node's device plugin
  ResourceList usage;           // live usage, probed by the monitoring layer
  int exit_code = 0;
  std::string reason;
  bool cancelled = false;       // deleted or lost its node mid-run

  double created_at = 0.0;
  double started_at = -1.0;
  double finished_at = -1.0;

  sim::EventPtr scheduled = sim::make_event();
  sim::EventPtr terminated = sim::make_event();

  /// Execution context while running (owned here so programs can outlive
  /// scheduling internals).
  std::unique_ptr<PodContext> context;

  ResourceList requests() const;
  bool terminal() const {
    return phase == PodPhase::Succeeded || phase == PodPhase::Failed;
  }
};

using PodPtr = std::shared_ptr<Pod>;

/// Batch controller: run `completions` pods to success, at most `parallelism`
/// at a time, tolerating up to `backoff_limit` failures (paper §III-A uses a
/// 10-worker Job for the THREDDS download).
struct JobSpec {
  std::string ns;
  std::string name;
  Labels labels;
  PodSpec pod_template;
  int completions = 1;
  int parallelism = 1;
  int backoff_limit = 6;
};

struct Job {
  JobSpec spec;
  int active = 0;
  int succeeded = 0;
  int failed = 0;
  bool complete = false;
  bool failed_state = false;
  double created_at = 0.0;
  double finished_at = -1.0;
  sim::EventPtr done = sim::make_event();
  std::uint64_t next_index = 0;  // pod name counter
};

using JobPtr = std::shared_ptr<Job>;

/// Keeps `replicas` pods running, replacing failures — used for long-running
/// services (Redis) and for the distributed-training extension (§III-E2).
struct ReplicaSetSpec {
  std::string ns;
  std::string name;
  Labels labels;
  PodSpec pod_template;
  int replicas = 1;
};

struct ReplicaSet {
  ReplicaSetSpec spec;
  int active = 0;
  bool deleted = false;
  std::uint64_t next_index = 0;
};

using ReplicaSetPtr = std::shared_ptr<ReplicaSet>;

/// One pod on every (matching) node — monitoring agents, log shippers, the
/// device plugin itself. Pods follow nodes as they join and leave.
struct DaemonSetSpec {
  std::string ns;
  std::string name;
  Labels labels;
  PodSpec pod_template;
  /// Only nodes matching this selector host a daemon pod.
  Labels node_selector;
};

struct DaemonSet {
  DaemonSetSpec spec;
  bool deleted = false;
  std::uint64_t next_index = 0;
};

using DaemonSetPtr = std::shared_ptr<DaemonSet>;

/// Periodic Jobs — the ingest pattern for "near real-time big data
/// processing... of data streaming from remote instruments" (paper §I): a
/// Job template fired every `period` seconds.
struct CronJobSpec {
  std::string ns;
  std::string name;
  Labels labels;
  JobSpec job_template;   // ns/name fields are overridden per firing
  double period = 3600.0;
  /// Skip a firing while the previous Job is still active (Forbid policy);
  /// false allows concurrent Jobs.
  bool forbid_concurrent = true;
};

struct CronJob {
  CronJobSpec spec;
  bool deleted = false;
  std::uint64_t fired = 0;     // firings attempted
  std::uint64_t skipped = 0;   // skipped due to Forbid
  JobPtr last_job;
};

using CronJobPtr = std::shared_ptr<CronJob>;

/// Per-namespace ceilings (paper §IV: namespaces "may be obeying a vastly
/// different set of resource policies or constraints").
struct ResourceQuota {
  ResourceList hard;
  int max_pods = INT_MAX;
};

struct Namespace {
  std::string name;
  bool has_quota = false;
  ResourceQuota quota;
  ResourceList used;
  int pods_used = 0;
};

/// ClusterIP-style service: a stable name resolving to ready pods matching a
/// selector ("hostnames will be used instead of IP addresses", §III-E2).
struct ServiceSpec {
  std::string ns;
  std::string name;
  Labels selector;
};

/// Cheap expected/error return for admission results.
template <typename T>
struct Result {
  T value{};
  std::string error;
  bool ok() const { return error.empty(); }
};

}  // namespace chase::kube
