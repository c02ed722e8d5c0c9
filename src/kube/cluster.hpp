#pragma once
/// \file cluster.hpp
/// The orchestrator facade: API server (object store + admission + RBAC),
/// scheduler, per-node kubelets with a GPU device plugin, and the Job /
/// ReplicaSet / node-lifecycle controllers. This is the "Kubernetes" of the
/// simulation — the paper's §II-A container-orchestration layer.
///
/// Workload programs interact with the world through PodContext (identity,
/// CPU/GPU compute primitives, live usage reporting for the monitoring
/// layer). The workflow manager (chase::wf) declares desired state (Jobs,
/// ReplicaSets) and the controllers converge on it, including rescheduling
/// pods off failed nodes (§V).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "auth/cilogon.hpp"
#include "cluster/machine.hpp"
#include "kube/types.hpp"
#include "mon/metrics.hpp"
#include "net/network.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"

namespace chase::kube {

class KubeCluster;

/// Handle given to container programs: who am I, where am I running, and
/// primitives for consuming simulated compute while reporting live usage.
class PodContext {
 public:
  sim::Simulation& sim() const;
  net::Network& network() const;
  KubeCluster& cluster() const { return *cluster_; }

  const Pod& pod() const { return *pod_; }
  cluster::MachineId machine() const { return pod_->node; }
  /// Network endpoint of the machine this pod runs on.
  net::NodeId net_node() const;
  /// Hardware spec of the machine this pod runs on (GPU model, TFLOPS, ...).
  const cluster::MachineSpec& machine_spec() const;
  int gpus() const { return static_cast<int>(pod_->gpu_ids.size()); }
  /// Aggregate fp32 TFLOPS of the GPUs granted to this pod.
  double gpu_tflops() const;
  /// True once the pod has been deleted or its node was lost; long-running
  /// programs should poll this between work items and bail out.
  bool cancelled() const { return pod_->cancelled; }

  /// Consume `cpu_seconds` of single-core work spread across `cores`
  /// (wall-clock = cpu_seconds / cores). Reports usage while running.
  /// Returns early once the pod is cancelled — callers must re-check
  /// cancelled() before acting on the "finished" computation.
  sim::Task compute(double cpu_seconds, double cores);
  /// Consume `gpu_seconds` of single-GPU work across all granted GPUs.
  /// Cancellation-aware like compute().
  sim::Task gpu_compute(double gpu_seconds);

  /// Live usage reporting (sampled by the monitoring layer).
  void set_cpu_usage(double cores) { pod_->usage.cpu = cores; }
  void set_memory_usage(Bytes b) { pod_->usage.memory = b; }
  void set_gpu_usage(int gpus) { pod_->usage.gpus = gpus; }

  /// Mark the pod as failed; the phase is applied when the program returns.
  void fail(const std::string& reason);

 private:
  friend class KubeCluster;
  PodContext(KubeCluster* cluster, Pod* pod) : cluster_(cluster), pod_(pod) {}
  /// Sleep in bounded slices, returning early once the pod is cancelled so
  /// an evicted pod stops occupying simulated time and its replacement can
  /// take over promptly (chaos / self-healing paths).
  sim::Task cancellable_sleep(double duration);
  KubeCluster* cluster_;
  Pod* pod_;
};

/// Scheduler/kubelet view of a registered node.
struct NodeInfo {
  cluster::MachineId machine = -1;
  Labels labels;
  ResourceList allocatable;
  ResourceList allocated;
  bool ready = true;
  bool unschedulable = false;  // cordoned
  std::vector<Taint> taints;
  std::vector<bool> gpu_in_use;
  std::vector<std::string> image_cache;
  std::vector<PodPtr> pods;  // non-terminal pods bound here
  /// Feasibility-index slots (KubeCluster::reindex_node): the headroom /
  /// capacity class bucket currently holding this node, or -1 while the
  /// node is out of the index (not ready, or cordoned).
  int idx_free = -1;
  int idx_cap = -1;
};

class KubeCluster {
 public:
  /// Node-scoring policy: Spread (least-allocated, the Kubernetes default)
  /// balances load; BinPack (most-allocated) consolidates pods onto fewer
  /// nodes, freeing whole FIONA8s for large GPU pods.
  enum class SchedulingPolicy { Spread, BinPack };

  struct Options {
    /// Delay between a pod becoming schedulable and binding (API latency).
    double scheduling_latency = 0.2;
    /// Extra per-pod container start overhead after image pull.
    double container_start_latency = 1.0;
    /// If >= 0, node of the image registry; image pulls then cost a network
    /// transfer on first use per node. Negative disables pull modelling.
    net::NodeId registry_node = -1;
    SchedulingPolicy policy = SchedulingPolicy::Spread;
    /// Kubernetes-at-scale sampling: when more than this many feasible-class
    /// candidates exist, pick_node scores at most this many *feasible* nodes
    /// starting from a deterministic rotating offset instead of scoring the
    /// whole cluster (percentageOfNodesToScore). At or below the threshold —
    /// every pre-existing bench and test — behavior is bit-identical to the
    /// exhaustive scan, rotation state included. 0 disables sampling.
    int score_sample_max = 256;
  };

  KubeCluster(sim::Simulation& sim, net::Network& net, cluster::Inventory& inventory,
              mon::Registry* metrics, Options options);
  KubeCluster(sim::Simulation& sim, net::Network& net, cluster::Inventory& inventory,
              mon::Registry* metrics = nullptr);
  ~KubeCluster();
  KubeCluster(const KubeCluster&) = delete;
  KubeCluster& operator=(const KubeCluster&) = delete;

  // --- nodes ---------------------------------------------------------------

  /// Register a machine as a schedulable node. Merges `extra_labels` with
  /// the implicit labels derived from the machine spec — "site" and (for
  /// GPU machines) "gpu-model". On collision the explicit `extra_labels`
  /// value wins over the implicit one (operator overrides, e.g. relabeling
  /// a site's maintenance pool). The "machine" label is reserved: it is
  /// always forced to the node's own id, because DaemonSet pinning and the
  /// pick_node fast-path rely on it resolving to exactly this node.
  /// Re-registering replaces the previous label set (index entries are
  /// deduped, never accumulated) while preserving runtime state — bound
  /// pods, allocations, device grants, taints, and cordon status survive a
  /// live relabel.
  void register_node(cluster::MachineId machine, Labels extra_labels = {});
  /// Throws std::out_of_range for a machine that was never registered.
  const NodeInfo& node(cluster::MachineId machine) const;
  std::size_t node_count() const;
  /// Registered nodes whose labels satisfy `selector`, ascending machine id
  /// (ready/cordon state is not considered — this is pure label matching,
  /// answered from the inverted label index).
  std::vector<cluster::MachineId> nodes_matching(const Labels& selector);
  /// True iff some schedulable node's total capacity class could fit
  /// `requests` and the request fits its allocatable. Coarse federation
  /// feasibility: ignores taints/selectors and current allocations
  /// (preemption or drainage could still free the room).
  bool has_capacity_for(const ResourceList& requests) const;
  /// Cluster-wide allocatable and allocated resources over ready nodes.
  ResourceList total_allocatable() const;
  ResourceList total_allocated() const;

  /// Mark a node unschedulable (existing pods keep running).
  void cordon(cluster::MachineId machine);
  void uncordon(cluster::MachineId machine);
  /// Cordon + evict every pod on the node (reason "Drained"; owners
  /// recreate elsewhere, and drains do not count as Job failures).
  void drain(cluster::MachineId machine);
  /// Taint a node. NoSchedule keeps new non-tolerating pods away;
  /// NoExecute additionally evicts running non-tolerating pods.
  void add_taint(cluster::MachineId machine, Taint taint);
  void remove_taint(cluster::MachineId machine, const std::string& key);

  // --- namespaces, quota, auth ----------------------------------------------

  void create_namespace(const std::string& name);
  bool has_namespace(const std::string& name) const;
  void set_quota(const std::string& ns, ResourceQuota quota);
  const Namespace& get_namespace(const std::string& ns) const;

  /// Enable CILogon/RBAC admission: requests must then carry a token whose
  /// identity is authorized in the target namespace.
  void enable_auth(auth::CILogon* sso, auth::Rbac* rbac);

  // --- workloads -------------------------------------------------------------

  Result<PodPtr> create_pod(const std::string& ns, const std::string& name,
                            PodSpec spec, Labels labels = {}, OwnerRef owner = {},
                            const auth::Token* token = nullptr);
  /// Delete a pod: cancels it if running; controllers will not replace pods
  /// deleted through their owner's deletion path.
  void delete_pod(const std::string& ns, const std::string& name);
  /// Disruption-style eviction (chaos testing, involuntary preemption): the
  /// pod is killed and its owner recreates it elsewhere without the failure
  /// counting against a Job's backoff limit, like drains and node losses.
  void disrupt_pod(const std::string& ns, const std::string& name);

  Result<JobPtr> create_job(JobSpec spec, const auth::Token* token = nullptr);
  Result<ReplicaSetPtr> create_replica_set(ReplicaSetSpec spec,
                                           const auth::Token* token = nullptr);
  void delete_replica_set(const std::string& ns, const std::string& name);

  /// One pod per matching ready node; pods are added when nodes register or
  /// come back, and their losses are not replaced elsewhere.
  Result<DaemonSetPtr> create_daemon_set(DaemonSetSpec spec,
                                         const auth::Token* token = nullptr);
  void delete_daemon_set(const std::string& ns, const std::string& name);

  /// Fire the job template every `period` seconds (first firing one period
  /// from now); delete stops the firings.
  Result<CronJobPtr> create_cron_job(CronJobSpec spec,
                                     const auth::Token* token = nullptr);
  void delete_cron_job(const std::string& ns, const std::string& name);

  void create_service(ServiceSpec spec);
  /// Resolve a service to a running pod (round-robin); nullopt if none.
  std::optional<PodPtr> resolve_service(const std::string& ns, const std::string& name);

  // --- queries ----------------------------------------------------------------

  PodPtr get_pod(const std::string& ns, const std::string& name) const;
  std::vector<PodPtr> list_pods(const std::string& ns, const Labels& selector = {}) const;
  JobPtr get_job(const std::string& ns, const std::string& name) const;

  /// Subscribe to pod phase transitions (integration tests, workflow layer).
  void watch_pods(std::function<void(const PodPtr&)> fn);

  /// Invariant audit (see util/check.hpp): pods are bound to live registered
  /// nodes, node/namespace resource accounting matches the bound pod set,
  /// GPU grants are exclusive, and controller replica counts agree with the
  /// pods they own. Called automatically at simulation checkpoints in audit
  /// builds.
  void check_invariants() const;

  sim::Simulation& sim() { return sim_; }
  net::Network& network() { return net_; }
  cluster::Inventory& inventory() { return inventory_; }
  mon::Registry* metrics() { return metrics_; }
  const Options& options() const { return options_; }

 private:
  friend class PodContext;

  // admission
  Result<PodPtr> create_pod_impl(const std::string& ns, const std::string& name,
                                 PodSpec spec, Labels labels, OwnerRef owner,
                                 const auth::Token* token, bool system);
  Result<JobPtr> create_job_impl(JobSpec spec, const auth::Token* token, bool system);
  std::string admit(const std::string& ns, const ResourceList& requests,
                    auth::Verb verb, const auth::Token* token, bool system);
  void release_quota(const std::string& ns, const ResourceList& requests);

  // node table
  /// The registered node `machine`, or nullptr for an id outside the table
  /// or one that was never registered.
  NodeInfo* find_node(cluster::MachineId machine) const;
  /// find_node for API entry points: throws std::out_of_range instead.
  NodeInfo& node_at(cluster::MachineId machine) const;
  /// Table lookup for ids taken from the indexes (always registered).
  NodeInfo& indexed(cluster::MachineId machine) const {
    return *nodes_[static_cast<std::size_t>(machine)];
  }

  // scheduling
  void kick_scheduler();
  void scheduling_pass();
  std::optional<cluster::MachineId> pick_node(const Pod& pod);
  bool node_admits(const NodeInfo& info, const Pod& pod) const;
  /// Try to make room for `pod` by evicting lower-priority pods on one
  /// node; returns true if preemption happened.
  bool try_preempt(const Pod& pod);
  void evict_pod(const PodPtr& pod, const std::string& reason);
  void bind(const PodPtr& pod, cluster::MachineId machine);

  // Feasibility index: schedulable (ready, uncordoned) nodes bucketed by a
  // resource class — (free GPUs clamped to kGpuClassMax) x (bit width of
  // whole free CPU cores, clamped to kCpuClassMax). Both class functions
  // are monotone in the underlying resources, so every node that could fit
  // a request lives in a bucket at or above the request's own class:
  // pick_node / try_preempt scan that bucket range instead of all of
  // nodes_. Candidates are emitted in ascending machine id, which
  // reproduces the old full-scan's first-best tie-break exactly.
  static constexpr int kGpuClassMax = 8;   // free GPUs 0..8+ (FIONA8s)
  static constexpr int kCpuClassMax = 10;  // bit_width(cores) 0..10 (1024+)
  static constexpr int kClassCount = (kGpuClassMax + 1) * (kCpuClassMax + 1);
  static int resource_class(double cpu, int gpus);
  /// Reconcile one node's index slots with its current state (membership,
  /// headroom class, capacity class). Call after any change to ready /
  /// unschedulable / allocated / allocatable.
  void reindex_node(NodeInfo& info);
  void index_remove(NodeInfo& info);
  /// Collect schedulable nodes whose class could fit `requests` and whose
  /// labels match `selector` into sched_candidates_, ascending machine id.
  /// `by_capacity` selects the allocatable-class buckets (preemption) over
  /// the headroom ones.
  void gather_candidates(const ResourceList& requests, bool by_capacity,
                         const Labels& selector);

  // Inverted label index: "key\x1Fvalue" -> machine ids (ascending) of every
  // registered node carrying that label. Selector matching over thousands of
  // nodes intersects postings instead of scanning nodes_; resolutions are
  // memoized per serialized selector and invalidated by label_epoch_, which
  // bumps on any node (re)registration. DaemonSet reconciles and
  // selector-bearing pick_node/try_preempt queries hit the cache.
  void index_node_labels(const NodeInfo& info);
  void unindex_node_labels(const NodeInfo& info);
  /// Cached resolution of a full selector to its matching node set
  /// (ascending machine id). The reference is valid until the next label
  /// mutation; hot paths must not hold it across suspension points.
  const std::vector<cluster::MachineId>& resolve_selector_nodes(const Labels& selector);

  // kubelet
  static sim::Task run_pod(KubeCluster* self, PodPtr pod);
  static sim::Task run_container(KubeCluster* self, PodPtr pod, std::size_t index,
                                 std::shared_ptr<sim::Latch> latch);
  void finalize_pod(const PodPtr& pod, PodPhase phase, const std::string& reason);
  void release_node_resources(const PodPtr& pod);
  void register_pod_metrics(const PodPtr& pod);
  void unregister_pod_metrics(const PodPtr& pod);
  mon::Labels pod_metric_labels(const Pod& pod) const;

  // controllers
  void on_machine_state(cluster::MachineId machine, bool up);
  void on_pod_terminated(const PodPtr& pod);
  void reconcile_job(const JobPtr& job);
  void reconcile_replica_set(const ReplicaSetPtr& rs);
  void reconcile_daemon_set(const DaemonSetPtr& ds);
  static sim::Task cron_loop(KubeCluster* self, CronJobPtr cron);
  void notify_watchers(const PodPtr& pod);

  sim::Simulation& sim_;
  net::Network& net_;
  cluster::Inventory& inventory_;
  mon::Registry* metrics_;
  Options options_;

  /// Dense node table indexed by machine id: null for ids never registered.
  /// Entries never move or go away, so a NodeInfo reference stays valid
  /// while the table grows.
  std::vector<std::unique_ptr<NodeInfo>> nodes_;
  std::size_t registered_nodes_ = 0;  // non-null entries of nodes_
  std::map<std::string, Namespace> namespaces_;
  std::map<std::string, PodPtr> pods_;          // key ns + "/" + name
  std::map<std::string, JobPtr> jobs_;          // key ns + "/" + name
  std::map<std::string, ReplicaSetPtr> replica_sets_;
  std::map<std::string, DaemonSetPtr> daemon_sets_;
  std::map<std::string, CronJobPtr> cron_jobs_;
  std::map<std::string, ServiceSpec> services_;
  std::map<std::string, std::size_t> service_rr_;
  std::deque<PodPtr> pending_;
  /// Feasibility-index buckets (machine ids, ascending), the candidate
  /// scratch reused by every scheduling query, and gather_candidates' bitmap
  /// over machine ids (one bit per table slot, all zero between queries).
  std::vector<std::vector<cluster::MachineId>> free_buckets_;
  std::vector<std::vector<cluster::MachineId>> cap_buckets_;
  std::vector<cluster::MachineId> sched_candidates_;
  std::vector<std::uint64_t> candidate_bits_;
  /// Inverted label index + epoch-stamped selector-resolution cache.
  struct SelectorCache {
    std::uint64_t stamp = 0;  // valid iff == label_epoch_
    std::vector<cluster::MachineId> nodes;
  };
  std::map<std::string, std::vector<cluster::MachineId>> label_index_;
  std::map<std::string, SelectorCache> selector_cache_;
  std::uint64_t label_epoch_ = 1;
  /// Sampled-scoring rotation state: advances once per sampled pick_node so
  /// successive pods start their feasibility walk at different offsets
  /// (deterministic — part of replay state, see DESIGN.md).
  std::uint64_t sample_rotor_ = 0;
  bool pass_scheduled_ = false;
  std::uint64_t next_uid_ = 1;
  std::vector<std::function<void(const PodPtr&)>> watchers_;

  auth::CILogon* sso_ = nullptr;
  auth::Rbac* rbac_ = nullptr;
  std::uint64_t audit_hook_ = 0;
};

}  // namespace chase::kube
