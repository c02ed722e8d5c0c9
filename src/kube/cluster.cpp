#include "kube/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/check.hpp"

namespace chase::kube {

namespace {
std::string key_of(const std::string& ns, const std::string& name) {
  return ns + "/" + name;
}

/// Inverted-index key for one label pair. \x1F (unit separator) cannot
/// appear in sane label text, so "a=bc" and "ab=c" never collide.
std::string label_key(const std::string& k, const std::string& v) {
  std::string out;
  out.reserve(k.size() + v.size() + 1);
  out += k;
  out += '\x1F';
  out += v;
  return out;
}

/// The taint half of node admission: every NoSchedule/NoExecute taint on
/// the node must be tolerated by the pod.
bool tolerates_taints(const NodeInfo& info, const Pod& pod) {
  for (const auto& taint : info.taints) {
    if (taint.effect != TaintEffect::NoSchedule &&
        taint.effect != TaintEffect::NoExecute) {
      continue;
    }
    bool tolerated = false;
    for (const auto& toleration : pod.spec.tolerations) {
      tolerated = tolerated || toleration.tolerates(taint);
    }
    if (!tolerated) return false;
  }
  return true;
}
}  // namespace

// --- PodContext --------------------------------------------------------------

sim::Simulation& PodContext::sim() const { return cluster_->sim_; }
net::Network& PodContext::network() const { return cluster_->net_; }

net::NodeId PodContext::net_node() const {
  return cluster_->inventory_.machine(pod_->node).net_node;
}

const cluster::MachineSpec& PodContext::machine_spec() const {
  return cluster_->inventory_.machine(pod_->node).spec;
}

double PodContext::gpu_tflops() const {
  const auto& spec = cluster_->inventory_.machine(pod_->node).spec;
  return cluster::gpu_fp32_tflops(spec.gpu_model) * gpus();
}

sim::Task PodContext::cancellable_sleep(double duration) {
  // Slice long computations so an evicted pod notices within a bounded
  // amount of simulated time instead of sleeping to its original finish.
  // The slice adapts to the job size so scaled-down runs still detect
  // eviction within a small fraction of the compute.
  const double kSlice = std::clamp(duration / 20.0, 1.0, 60.0);
  double left = duration;
  while (left > 0.0 && !cancelled()) {
    const double step = std::min(left, kSlice);
    co_await sim().sleep(step);
    left -= step;
  }
}

sim::Task PodContext::compute(double cpu_seconds, double cores) {
  assert(cores > 0.0);
  const double prev = pod_->usage.cpu;
  set_cpu_usage(cores);
  co_await cancellable_sleep(cpu_seconds / cores);
  set_cpu_usage(prev);
}

sim::Task PodContext::gpu_compute(double gpu_seconds) {
  const int n = gpus();
  assert(n > 0 && "gpu_compute on a pod without GPUs");
  const int prev = pod_->usage.gpus;
  set_gpu_usage(n);
  co_await cancellable_sleep(gpu_seconds / n);
  set_gpu_usage(prev);
}

void PodContext::fail(const std::string& reason) {
  pod_->exit_code = 1;
  if (pod_->reason.empty()) pod_->reason = reason;
}

// --- construction -------------------------------------------------------------

KubeCluster::KubeCluster(sim::Simulation& sim, net::Network& net,
                         cluster::Inventory& inventory, mon::Registry* metrics,
                         Options options)
    : sim_(sim), net_(net), inventory_(inventory), metrics_(metrics),
      options_(options) {
  create_namespace("default");
  free_buckets_.resize(kClassCount);
  cap_buckets_.resize(kClassCount);
  sched_candidates_.reserve(64);
  inventory_.subscribe([this](cluster::MachineId m, bool up) { on_machine_state(m, up); });
  audit_hook_ = sim_.add_audit_hook([this] { check_invariants(); });
}

KubeCluster::KubeCluster(sim::Simulation& sim, net::Network& net,
                         cluster::Inventory& inventory, mon::Registry* metrics)
    : KubeCluster(sim, net, inventory, metrics, Options{}) {}

KubeCluster::~KubeCluster() { sim_.remove_audit_hook(audit_hook_); }

// --- nodes ----------------------------------------------------------------------

void KubeCluster::register_node(cluster::MachineId machine, Labels extra_labels) {
  const auto& m = inventory_.machine(machine);
  NodeInfo info;
  info.machine = machine;
  info.labels = std::move(extra_labels);
  // Implicit labels. On collision the explicit extra_labels value wins for
  // "site" / "gpu-model" (operators may relabel a node into a logical zone);
  // "machine" is reserved and always forced to the node's own id — DaemonSet
  // pinning and the pick_node fast-path depend on it resolving uniquely.
  info.labels.try_emplace("site", m.spec.site);
  info.labels["machine"] = std::to_string(machine);
  if (m.spec.gpus > 0) {
    info.labels.try_emplace("gpu-model", cluster::gpu_model_name(m.spec.gpu_model));
  }
  info.allocatable.cpu = m.spec.cpu_cores;
  info.allocatable.memory = m.spec.memory;
  info.allocatable.gpus = m.spec.gpus;
  info.ready = m.up;
  info.gpu_in_use.assign(static_cast<std::size_t>(m.spec.gpus), false);
  info.pods.reserve(8);  // steady-state churn stays within the high water
  const auto slot = static_cast<std::size_t>(machine);
  if (slot >= nodes_.size()) {
    nodes_.resize(slot + 1);
    candidate_bits_.resize((nodes_.size() + 63) / 64, 0);
  }
  std::unique_ptr<NodeInfo>& entry = nodes_[slot];
  if (entry == nullptr) {
    entry = std::make_unique<NodeInfo>();
    ++registered_nodes_;
  } else {
    // Re-register: replace the label set (drop the stale index slots and
    // postings first) but keep runtime state — relabeling a live node must
    // not orphan its bound pods or leak their allocations/device grants.
    index_remove(*entry);
    unindex_node_labels(*entry);
    info.allocated = entry->allocated;
    info.gpu_in_use = std::move(entry->gpu_in_use);
    info.image_cache = std::move(entry->image_cache);
    info.pods = std::move(entry->pods);
    info.taints = std::move(entry->taints);
    info.unschedulable = entry->unschedulable;
  }
  *entry = std::move(info);
  reindex_node(*entry);
  index_node_labels(*entry);
  for (auto& [key, ds] : daemon_sets_) reconcile_daemon_set(ds);
  kick_scheduler();
}

const NodeInfo& KubeCluster::node(cluster::MachineId machine) const {
  return node_at(machine);
}

std::size_t KubeCluster::node_count() const { return registered_nodes_; }

NodeInfo* KubeCluster::find_node(cluster::MachineId machine) const {
  if (machine < 0 || static_cast<std::size_t>(machine) >= nodes_.size()) return nullptr;
  return nodes_[static_cast<std::size_t>(machine)].get();
}

NodeInfo& KubeCluster::node_at(cluster::MachineId machine) const {
  NodeInfo* info = find_node(machine);
  if (info == nullptr) {
    throw std::out_of_range("machine " + std::to_string(machine) + " is not a registered node");
  }
  return *info;
}

ResourceList KubeCluster::total_allocatable() const {
  ResourceList total;
  for (const auto& n : nodes_) {
    if (n != nullptr && n->ready) total += n->allocatable;
  }
  return total;
}

ResourceList KubeCluster::total_allocated() const {
  ResourceList total;
  for (const auto& n : nodes_) {
    if (n != nullptr && n->ready) total += n->allocated;
  }
  return total;
}

void KubeCluster::cordon(cluster::MachineId machine) {
  NodeInfo& info = node_at(machine);
  info.unschedulable = true;
  reindex_node(info);
}

void KubeCluster::uncordon(cluster::MachineId machine) {
  NodeInfo& info = node_at(machine);
  info.unschedulable = false;
  reindex_node(info);
  kick_scheduler();
}

void KubeCluster::drain(cluster::MachineId machine) {
  cordon(machine);
  std::vector<PodPtr> doomed = node_at(machine).pods;
  for (const auto& pod : doomed) {
    if (!pod->terminal()) evict_pod(pod, "Drained");
  }
}

void KubeCluster::add_taint(cluster::MachineId machine, Taint taint) {
  NodeInfo& info = node_at(machine);
  info.taints.push_back(taint);
  if (taint.effect == TaintEffect::NoExecute) {
    std::vector<PodPtr> doomed;
    for (const auto& pod : info.pods) {
      bool tolerated = false;
      for (const auto& toleration : pod->spec.tolerations) {
        tolerated = tolerated || toleration.tolerates(taint);
      }
      if (!tolerated) doomed.push_back(pod);
    }
    for (const auto& pod : doomed) {
      if (!pod->terminal()) evict_pod(pod, "TaintNoExecute");
    }
  }
}

void KubeCluster::remove_taint(cluster::MachineId machine, const std::string& key) {
  auto& taints = node_at(machine).taints;
  taints.erase(std::remove_if(taints.begin(), taints.end(),
                              [&](const Taint& t) { return t.key == key; }),
               taints.end());
  kick_scheduler();
}

void KubeCluster::evict_pod(const PodPtr& pod, const std::string& reason) {
  pod->cancelled = true;
  if (pod->phase == PodPhase::Pending) {
    pending_.erase(std::remove(pending_.begin(), pending_.end(), pod), pending_.end());
  }
  finalize_pod(pod, PodPhase::Failed, reason);
}

// --- namespaces / auth -------------------------------------------------------------

void KubeCluster::create_namespace(const std::string& name) {
  namespaces_.emplace(name, Namespace{name, false, {}, {}, 0});
}

bool KubeCluster::has_namespace(const std::string& name) const {
  return namespaces_.count(name) > 0;
}

void KubeCluster::set_quota(const std::string& ns, ResourceQuota quota) {
  auto& n = namespaces_.at(ns);
  n.has_quota = true;
  n.quota = quota;
}

const Namespace& KubeCluster::get_namespace(const std::string& ns) const {
  return namespaces_.at(ns);
}

void KubeCluster::enable_auth(auth::CILogon* sso, auth::Rbac* rbac) {
  sso_ = sso;
  rbac_ = rbac;
}

std::string KubeCluster::admit(const std::string& ns, const ResourceList& requests,
                               auth::Verb verb, const auth::Token* token, bool system) {
  auto nit = namespaces_.find(ns);
  if (nit == namespaces_.end()) return "namespace '" + ns + "' does not exist";
  if (!system && sso_ != nullptr && rbac_ != nullptr) {
    if (token == nullptr) return "authentication required";
    auto identity = sso_->validate(*token);
    if (!identity) return "invalid token";
    if (!rbac_->allowed(ns, *identity, verb)) {
      return "user '" + identity->user + "' is not authorized to " +
             auth::verb_name(verb) + " in namespace '" + ns + "'";
    }
  }
  Namespace& n = nit->second;
  if (n.has_quota) {
    ResourceList would = n.used + requests;
    if (!would.fits_within(n.quota.hard) || n.pods_used + 1 > n.quota.max_pods) {
      return "quota exceeded in namespace '" + ns + "' (used " + n.used.to_string() +
             ", requested " + requests.to_string() + ")";
    }
  }
  n.used += requests;
  n.pods_used += 1;
  return "";
}

void KubeCluster::release_quota(const std::string& ns, const ResourceList& requests) {
  auto nit = namespaces_.find(ns);
  if (nit == namespaces_.end()) return;
  nit->second.used -= requests;
  nit->second.pods_used -= 1;
}

// --- workload creation ----------------------------------------------------------

Result<PodPtr> KubeCluster::create_pod(const std::string& ns, const std::string& name,
                                       PodSpec spec, Labels labels, OwnerRef owner,
                                       const auth::Token* token) {
  return create_pod_impl(ns, name, std::move(spec), std::move(labels),
                         std::move(owner), token, /*system=*/false);
}

Result<PodPtr> KubeCluster::create_pod_impl(const std::string& ns,
                                            const std::string& name, PodSpec spec,
                                            Labels labels, OwnerRef owner,
                                            const auth::Token* token, bool system) {
  const std::string key = key_of(ns, name);
  if (pods_.count(key)) return {nullptr, "pod '" + key + "' already exists"};

  auto pod = std::make_shared<Pod>();
  pod->meta.ns = ns;
  pod->meta.name = name;
  pod->meta.labels = std::move(labels);
  pod->meta.uid = next_uid_++;
  pod->spec = std::move(spec);
  pod->owner = std::move(owner);
  pod->created_at = sim_.now();

  if (std::string err = admit(ns, pod->requests(), auth::Verb::Create, token, system);
      !err.empty()) {
    return {nullptr, err};
  }

  pods_[key] = pod;
  pending_.push_back(pod);
  kick_scheduler();
  notify_watchers(pod);
  return {pod, ""};
}

void KubeCluster::disrupt_pod(const std::string& ns, const std::string& name) {
  auto it = pods_.find(key_of(ns, name));
  if (it == pods_.end() || it->second->terminal()) return;
  evict_pod(it->second, "Disrupted");
}

void KubeCluster::delete_pod(const std::string& ns, const std::string& name) {
  auto it = pods_.find(key_of(ns, name));
  if (it == pods_.end()) return;
  PodPtr pod = it->second;
  if (pod->terminal()) return;
  pod->cancelled = true;
  if (pod->phase == PodPhase::Pending) {
    pending_.erase(std::remove(pending_.begin(), pending_.end(), pod), pending_.end());
  }
  finalize_pod(pod, PodPhase::Failed, "Deleted");
}

Result<JobPtr> KubeCluster::create_job(JobSpec spec, const auth::Token* token) {
  return create_job_impl(std::move(spec), token, /*system=*/false);
}

Result<JobPtr> KubeCluster::create_job_impl(JobSpec spec, const auth::Token* token,
                                            bool system) {
  // Authorization is checked once at Job admission; the controller's pods
  // are created with system privileges (matching Kubernetes' model).
  if (!system && sso_ != nullptr && rbac_ != nullptr) {
    if (token == nullptr) return {nullptr, "authentication required"};
    auto identity = sso_->validate(*token);
    if (!identity) return {nullptr, "invalid token"};
    if (!rbac_->allowed(spec.ns, *identity, auth::Verb::Create)) {
      return {nullptr, "not authorized"};
    }
  }
  if (!has_namespace(spec.ns)) {
    return {nullptr, "namespace '" + spec.ns + "' does not exist"};
  }
  const std::string key = key_of(spec.ns, spec.name);
  if (jobs_.count(key)) return {nullptr, "job '" + key + "' already exists"};
  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->created_at = sim_.now();
  jobs_[key] = job;
  reconcile_job(job);
  return {job, ""};
}

Result<ReplicaSetPtr> KubeCluster::create_replica_set(ReplicaSetSpec spec,
                                                      const auth::Token* token) {
  if (sso_ != nullptr && rbac_ != nullptr) {
    if (token == nullptr) return {nullptr, "authentication required"};
    auto identity = sso_->validate(*token);
    if (!identity) return {nullptr, "invalid token"};
    if (!rbac_->allowed(spec.ns, *identity, auth::Verb::Create)) {
      return {nullptr, "not authorized"};
    }
  }
  if (!has_namespace(spec.ns)) {
    return {nullptr, "namespace '" + spec.ns + "' does not exist"};
  }
  const std::string key = key_of(spec.ns, spec.name);
  if (replica_sets_.count(key)) return {nullptr, "replicaset '" + key + "' already exists"};
  auto rs = std::make_shared<ReplicaSet>();
  rs->spec = std::move(spec);
  replica_sets_[key] = rs;
  reconcile_replica_set(rs);
  return {rs, ""};
}

void KubeCluster::delete_replica_set(const std::string& ns, const std::string& name) {
  auto it = replica_sets_.find(key_of(ns, name));
  if (it == replica_sets_.end()) return;
  it->second->deleted = true;
  // Tear down its pods.
  for (const auto& pod : list_pods(ns)) {
    if (pod->owner.kind == "ReplicaSet" && pod->owner.name == name && !pod->terminal()) {
      delete_pod(ns, pod->meta.name);
    }
  }
}

Result<DaemonSetPtr> KubeCluster::create_daemon_set(DaemonSetSpec spec,
                                                    const auth::Token* token) {
  if (sso_ != nullptr && rbac_ != nullptr) {
    if (token == nullptr) return {nullptr, "authentication required"};
    auto identity = sso_->validate(*token);
    if (!identity || !rbac_->allowed(spec.ns, *identity, auth::Verb::Create)) {
      return {nullptr, "not authorized"};
    }
  }
  if (!has_namespace(spec.ns)) {
    return {nullptr, "namespace '" + spec.ns + "' does not exist"};
  }
  const std::string key = key_of(spec.ns, spec.name);
  if (daemon_sets_.count(key)) return {nullptr, "daemonset '" + key + "' already exists"};
  auto ds = std::make_shared<DaemonSet>();
  ds->spec = std::move(spec);
  daemon_sets_[key] = ds;
  reconcile_daemon_set(ds);
  return {ds, ""};
}

void KubeCluster::delete_daemon_set(const std::string& ns, const std::string& name) {
  auto it = daemon_sets_.find(key_of(ns, name));
  if (it == daemon_sets_.end()) return;
  it->second->deleted = true;
  for (const auto& pod : list_pods(ns)) {
    if (pod->owner.kind == "DaemonSet" && pod->owner.name == name && !pod->terminal()) {
      delete_pod(ns, pod->meta.name);
    }
  }
  daemon_sets_.erase(it);
}

Result<CronJobPtr> KubeCluster::create_cron_job(CronJobSpec spec,
                                                const auth::Token* token) {
  if (sso_ != nullptr && rbac_ != nullptr) {
    if (token == nullptr) return {nullptr, "authentication required"};
    auto identity = sso_->validate(*token);
    if (!identity || !rbac_->allowed(spec.ns, *identity, auth::Verb::Create)) {
      return {nullptr, "not authorized"};
    }
  }
  if (!has_namespace(spec.ns)) {
    return {nullptr, "namespace '" + spec.ns + "' does not exist"};
  }
  if (spec.period <= 0.0) return {nullptr, "cron period must be positive"};
  const std::string key = key_of(spec.ns, spec.name);
  if (cron_jobs_.count(key)) return {nullptr, "cronjob '" + key + "' already exists"};
  auto cron = std::make_shared<CronJob>();
  cron->spec = std::move(spec);
  cron_jobs_[key] = cron;
  sim_.spawn(cron_loop(this, cron));
  return {cron, ""};
}

sim::Task KubeCluster::cron_loop(KubeCluster* self, CronJobPtr cron) {
  while (!cron->deleted) {
    co_await self->sim_.sleep(cron->spec.period);
    if (cron->deleted) co_return;
    if (cron->spec.forbid_concurrent && cron->last_job != nullptr &&
        !cron->last_job->complete && !cron->last_job->failed_state) {
      cron->skipped += 1;
      continue;
    }
    JobSpec job = cron->spec.job_template;
    job.ns = cron->spec.ns;
    job.name = cron->spec.name + "-" + std::to_string(cron->fired);
    for (const auto& [k, v] : cron->spec.labels) job.labels[k] = v;
    job.labels["cronjob"] = cron->spec.name;
    // Firings run with the CronJob's admission-time authority.
    auto result = self->create_job_impl(std::move(job), nullptr, /*system=*/true);
    cron->fired += 1;
    if (result.ok()) cron->last_job = result.value;
  }
}

void KubeCluster::delete_cron_job(const std::string& ns, const std::string& name) {
  auto it = cron_jobs_.find(key_of(ns, name));
  if (it == cron_jobs_.end()) return;
  it->second->deleted = true;
  cron_jobs_.erase(it);
}

void KubeCluster::reconcile_daemon_set(const DaemonSetPtr& ds) {
  if (ds->deleted) return;
  // Resolve matching nodes from the inverted label index — ascending machine
  // id, the same order as the old full nodes_ scan (an empty selector
  // resolves to every registered node).
  for (cluster::MachineId machine : resolve_selector_nodes(ds->spec.node_selector)) {
    const NodeInfo& info = indexed(machine);
    if (!info.ready) continue;
    // Already hosting a live daemon pod?
    bool present = false;
    for (const auto& pod : info.pods) {
      present = present || (pod->owner.kind == "DaemonSet" &&
                            pod->owner.name == ds->spec.name && !pod->terminal());
    }
    if (present) continue;
    const std::string pod_name = ds->spec.name + "-" + std::to_string(ds->next_index++);
    Labels labels = ds->spec.labels;
    labels["daemonset"] = ds->spec.name;
    PodSpec pod_spec = ds->spec.pod_template;
    pod_spec.node_selector["machine"] = std::to_string(machine);  // pin
    create_pod_impl(ds->spec.ns, pod_name, std::move(pod_spec), labels,
                    OwnerRef{"DaemonSet", ds->spec.name}, nullptr, /*system=*/true);
  }
}

void KubeCluster::create_service(ServiceSpec spec) {
  const std::string key = key_of(spec.ns, spec.name);
  services_[key] = std::move(spec);
}

std::optional<PodPtr> KubeCluster::resolve_service(const std::string& ns,
                                                   const std::string& name) {
  auto it = services_.find(key_of(ns, name));
  if (it == services_.end()) return std::nullopt;
  std::vector<PodPtr> ready;
  for (const auto& pod : list_pods(ns, it->second.selector)) {
    if (pod->phase == PodPhase::Running) ready.push_back(pod);
  }
  if (ready.empty()) return std::nullopt;
  std::size_t& rr = service_rr_[key_of(ns, name)];
  return ready[rr++ % ready.size()];
}

// --- queries ----------------------------------------------------------------------

PodPtr KubeCluster::get_pod(const std::string& ns, const std::string& name) const {
  auto it = pods_.find(key_of(ns, name));
  return it == pods_.end() ? nullptr : it->second;
}

std::vector<PodPtr> KubeCluster::list_pods(const std::string& ns,
                                           const Labels& selector) const {
  std::vector<PodPtr> out;
  for (const auto& [key, pod] : pods_) {
    if (pod->meta.ns != ns) continue;
    if (!selector_matches(selector, pod->meta.labels)) continue;
    out.push_back(pod);
  }
  return out;
}

JobPtr KubeCluster::get_job(const std::string& ns, const std::string& name) const {
  auto it = jobs_.find(key_of(ns, name));
  return it == jobs_.end() ? nullptr : it->second;
}

void KubeCluster::watch_pods(std::function<void(const PodPtr&)> fn) {
  watchers_.push_back(std::move(fn));
}

void KubeCluster::notify_watchers(const PodPtr& pod) {
  for (auto& fn : watchers_) fn(pod);
}

// --- invariant audit ----------------------------------------------------------------

void KubeCluster::check_invariants() const {
  constexpr double kCpuEps = 1e-6;
  for (std::size_t slot = 0; slot < nodes_.size(); ++slot) {
    if (nodes_[slot] == nullptr) continue;
    const NodeInfo& info = *nodes_[slot];
    const auto machine = static_cast<cluster::MachineId>(slot);
    CHASE_INVARIANT(info.machine == machine, "node table slot holds another machine");
    CHASE_INVARIANT(info.allocated.cpu >= -kCpuEps && info.allocated.gpus >= 0,
                    "negative node allocation");
    CHASE_INVARIANT(info.allocated.cpu <= info.allocatable.cpu + kCpuEps &&
                        info.allocated.memory <= info.allocatable.memory &&
                        info.allocated.gpus <= info.allocatable.gpus,
                    "node over-allocated beyond its capacity");
    CHASE_INVARIANT(info.gpu_in_use.size() ==
                        static_cast<std::size_t>(info.allocatable.gpus),
                    "device-plugin GPU table does not match the node's GPU count");
    ResourceList bound;
    std::size_t granted = 0;
    std::vector<bool> holder(info.gpu_in_use.size(), false);
    for (const auto& pod : info.pods) {
      CHASE_INVARIANT(pod != nullptr && !pod->terminal(),
                      "terminal pod still bound to a node");
      CHASE_INVARIANT(pod->node == machine, "pod listed on a node it is not bound to");
      bound += pod->requests();
      granted += pod->gpu_ids.size();
      for (int gpu : pod->gpu_ids) {
        CHASE_INVARIANT(gpu >= 0 && gpu < static_cast<int>(info.gpu_in_use.size()),
                        "granted GPU id out of range");
        CHASE_INVARIANT(info.gpu_in_use[static_cast<std::size_t>(gpu)],
                        "pod holds a GPU the device plugin marks free");
        CHASE_INVARIANT(!holder[static_cast<std::size_t>(gpu)],
                        "one GPU granted to two pods");
        holder[static_cast<std::size_t>(gpu)] = true;
      }
    }
    // Expensive: re-derive the node's accounting from its bound pod set.
    CHASE_AUDIT(std::fabs(bound.cpu - info.allocated.cpu) <= kCpuEps &&
                    bound.memory == info.allocated.memory &&
                    bound.gpus == info.allocated.gpus,
                "node allocated != sum of bound pod requests");
    CHASE_AUDIT(granted == static_cast<std::size_t>(std::count(info.gpu_in_use.begin(),
                                                               info.gpu_in_use.end(), true)),
                "GPUs marked in use != GPUs granted to bound pods");
  }
  CHASE_INVARIANT(registered_nodes_ ==
                      static_cast<std::size_t>(std::count_if(
                          nodes_.begin(), nodes_.end(),
                          [](const auto& n) { return n != nullptr; })),
                  "registered node count does not match the node table");
  CHASE_INVARIANT(candidate_bits_.size() == (nodes_.size() + 63) / 64 &&
                      std::all_of(candidate_bits_.begin(), candidate_bits_.end(),
                                  [](std::uint64_t word) { return word == 0; }),
                  "candidate bitmap does not cover the node table or was left dirty");
  for (const auto& pod : pending_) {
    CHASE_INVARIANT(pod != nullptr && !pod->terminal() && pod->node < 0,
                    "scheduler queue holds a terminal or already-bound pod");
  }
  // Feasibility index: every schedulable node sits in exactly the bucket its
  // current headroom/capacity class dictates, and the buckets hold nothing
  // else (sorted, no duplicates, totals match the schedulable node count).
  std::size_t schedulable = 0;
  for (const auto& entry : nodes_) {
    if (entry == nullptr) continue;
    const NodeInfo& info = *entry;
    const cluster::MachineId machine = info.machine;
    const bool member = info.ready && !info.unschedulable;
    const int fc = member ? resource_class(info.allocatable.cpu - info.allocated.cpu,
                                           info.allocatable.gpus - info.allocated.gpus)
                          : -1;
    const int cc =
        member ? resource_class(info.allocatable.cpu, info.allocatable.gpus) : -1;
    schedulable += member ? 1 : 0;
    CHASE_INVARIANT(info.idx_free == fc && info.idx_cap == cc,
                    "node's feasibility-index slot is stale for its class");
    if (member) {
      const auto& fb = free_buckets_[static_cast<std::size_t>(fc)];
      const auto& cb = cap_buckets_[static_cast<std::size_t>(cc)];
      CHASE_INVARIANT(std::binary_search(fb.begin(), fb.end(), machine) &&
                          std::binary_search(cb.begin(), cb.end(), machine),
                      "schedulable node missing from its feasibility bucket");
    }
  }
  std::size_t free_slots = 0;
  std::size_t cap_slots = 0;
  for (int b = 0; b < kClassCount; ++b) {
    CHASE_INVARIANT(std::is_sorted(free_buckets_[b].begin(), free_buckets_[b].end()) &&
                        std::is_sorted(cap_buckets_[b].begin(), cap_buckets_[b].end()),
                    "feasibility bucket out of machine-id order");
    free_slots += free_buckets_[b].size();
    cap_slots += cap_buckets_[b].size();
  }
  CHASE_INVARIANT(free_slots == schedulable && cap_slots == schedulable,
                  "feasibility index size diverged from the schedulable node set");
  // Inverted label index: every label a node carries has a posting holding
  // that node; at level 2 the whole index is rescanned — postings sorted,
  // deduped, and every slot justified by the node's actual label set.
  for (const auto& entry : nodes_) {
    if (entry == nullptr) continue;
    for (const auto& [k, v] : entry->labels) {
      const auto it = label_index_.find(label_key(k, v));
      CHASE_INVARIANT(it != label_index_.end() &&
                          std::binary_search(it->second.begin(), it->second.end(),
                                             entry->machine),
                      "node label missing from the inverted label index");
    }
  }
  if (util::audit_level() >= 2) {
    std::size_t label_slots = 0;
    for (const auto& [key, posting] : label_index_) {
      CHASE_AUDIT(!posting.empty() &&
                      std::is_sorted(posting.begin(), posting.end()) &&
                      std::adjacent_find(posting.begin(), posting.end()) ==
                          posting.end(),
                  "label posting empty, unsorted, or duplicated");
      const std::size_t cut = key.find('\x1F');
      const std::string k = key.substr(0, cut);
      const std::string v = key.substr(cut + 1);
      for (cluster::MachineId machine : posting) {
        const NodeInfo* info = find_node(machine);
        CHASE_AUDIT(info != nullptr, "label posting names an unregistered node");
        const auto lit = info->labels.find(k);
        CHASE_AUDIT(lit != info->labels.end() && lit->second == v,
                    "label posting slot not justified by the node's labels");
      }
      label_slots += posting.size();
    }
    std::size_t label_total = 0;
    for (const auto& entry : nodes_) label_total += entry == nullptr ? 0 : entry->labels.size();
    CHASE_AUDIT(label_slots == label_total,
                "inverted label index size diverged from node label sets");
  }
  for (const auto& [name, ns] : namespaces_) {
    CHASE_INVARIANT(ns.pods_used >= 0, "namespace pod count went negative");
    if (ns.has_quota) {
      CHASE_INVARIANT(ns.used.cpu <= ns.quota.hard.cpu + kCpuEps &&
                          ns.used.memory <= ns.quota.hard.memory &&
                          ns.used.gpus <= ns.quota.hard.gpus &&
                          ns.pods_used <= ns.quota.max_pods,
                      "namespace '" + name + "' exceeds its resource quota");
    }
  }
  for (const auto& [key, job] : jobs_) {
    CHASE_INVARIANT(job->active >= 0 && job->succeeded >= 0 && job->failed >= 0,
                    "Job counters went negative");
  }
  for (const auto& [key, rs] : replica_sets_) {
    CHASE_INVARIANT(rs->active >= 0, "ReplicaSet active count went negative");
  }
  // Expensive: controller replica counts and namespace usage re-derived from
  // the full pod set (pods_ retains terminal pods; only live ones count).
  if (util::audit_level() >= 2) {
    std::map<std::string, ResourceList> ns_used;
    std::map<std::string, int> ns_pods;
    std::map<std::string, int> owner_active;
    for (const auto& [key, pod] : pods_) {
      if (pod->terminal()) continue;
      ns_used[pod->meta.ns] += pod->requests();
      ns_pods[pod->meta.ns] += 1;
      if (pod->owner.valid()) {
        owner_active[pod->owner.kind + ":" + key_of(pod->meta.ns, pod->owner.name)] += 1;
      }
    }
    for (const auto& [name, ns] : namespaces_) {
      const ResourceList& expect = ns_used[name];
      CHASE_AUDIT(std::fabs(expect.cpu - ns.used.cpu) <= kCpuEps &&
                      expect.memory == ns.used.memory && expect.gpus == ns.used.gpus,
                  "namespace '" + name + "' usage != sum of its live pods' requests");
      CHASE_AUDIT(ns.pods_used == ns_pods[name],
                  "namespace '" + name + "' pod count != its live pods");
    }
    for (const auto& [key, job] : jobs_) {
      CHASE_AUDIT(job->active == owner_active["Job:" + key],
                  "Job '" + key + "' active count != its live pods");
    }
    for (const auto& [key, rs] : replica_sets_) {
      CHASE_AUDIT(rs->active == owner_active["ReplicaSet:" + key],
                  "ReplicaSet '" + key + "' active count != its live pods");
    }
  }
}

// --- scheduler ----------------------------------------------------------------------

void KubeCluster::kick_scheduler() {
  if (pass_scheduled_ || pending_.empty()) return;
  pass_scheduled_ = true;
  sim_.schedule(options_.scheduling_latency, [this] {
    pass_scheduled_ = false;
    scheduling_pass();
  });
}

void KubeCluster::scheduling_pass() {
  std::vector<PodPtr> still_pending;
  still_pending.reserve(pending_.size());
  while (!pending_.empty()) {
    PodPtr pod = pending_.front();
    pending_.pop_front();
    if (pod->terminal() || pod->cancelled) continue;
    auto choice = pick_node(*pod);
    if (!choice) {
      // Preemption: a high-priority pod may push lower-priority pods off a
      // node; the evicted pods' owners recreate them and they queue behind.
      if (pod->spec.priority > 0 && try_preempt(*pod)) {
        choice = pick_node(*pod);
      }
      if (!choice) {
        still_pending.push_back(std::move(pod));
        continue;
      }
    }
    bind(pod, *choice);
  }
  pending_.assign(std::make_move_iterator(still_pending.begin()),
                  std::make_move_iterator(still_pending.end()));
}

bool KubeCluster::node_admits(const NodeInfo& info, const Pod& pod) const {
  if (!info.ready || info.unschedulable) return false;
  if (!selector_matches(pod.spec.node_selector, info.labels)) return false;
  return tolerates_taints(info, pod);
}

// --- feasibility index --------------------------------------------------------------

int KubeCluster::resource_class(double cpu, int gpus) {
  const int g = std::clamp(gpus, 0, kGpuClassMax);
  const auto whole = cpu <= 0.0 ? 0ull : static_cast<unsigned long long>(cpu);
  const int c = std::min(static_cast<int>(std::bit_width(whole)), kCpuClassMax);
  return g * (kCpuClassMax + 1) + c;
}

void KubeCluster::index_remove(NodeInfo& info) {
  // Buckets are sorted and hold each id once (check_invariants audits it).
  const auto drop = [&](std::vector<cluster::MachineId>& bucket) {
    const auto it = std::lower_bound(bucket.begin(), bucket.end(), info.machine);
    if (it != bucket.end() && *it == info.machine) bucket.erase(it);
  };
  if (info.idx_free >= 0) drop(free_buckets_[info.idx_free]);
  if (info.idx_cap >= 0) drop(cap_buckets_[info.idx_cap]);
  info.idx_free = -1;
  info.idx_cap = -1;
}

void KubeCluster::reindex_node(NodeInfo& info) {
  const bool member = info.ready && !info.unschedulable;
  const int fc = member ? resource_class(info.allocatable.cpu - info.allocated.cpu,
                                         info.allocatable.gpus - info.allocated.gpus)
                        : -1;
  const int cc = member ? resource_class(info.allocatable.cpu, info.allocatable.gpus) : -1;
  if (info.idx_free == fc && info.idx_cap == cc) return;
  index_remove(info);
  const auto put = [&](std::vector<cluster::MachineId>& bucket) {
    bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), info.machine),
                  info.machine);
  };
  if (fc >= 0) put(free_buckets_[fc]);
  if (cc >= 0) put(cap_buckets_[cc]);
  info.idx_free = fc;
  info.idx_cap = cc;
}

void KubeCluster::gather_candidates(const ResourceList& requests, bool by_capacity,
                                    const Labels& selector) {
  // Both class functions are monotone, so every node with enough headroom
  // (or capacity) sits in a bucket at or above the request's class in both
  // axes: the scan below is a feasibility superset, never a miss. A node
  // sits in exactly one bucket of each kind, so marking the range's ids in
  // the bitmap and reading the bits back in ascending order yields the
  // candidates in machine-id order, the order of the old full nodes_ scan,
  // without a sort.
  sched_candidates_.clear();
  const auto& buckets = by_capacity ? cap_buckets_ : free_buckets_;
  const int lo = resource_class(requests.cpu, requests.gpus);
  for (int g = lo / (kCpuClassMax + 1); g <= kGpuClassMax; ++g) {
    for (int c = lo % (kCpuClassMax + 1); c <= kCpuClassMax; ++c) {
      for (cluster::MachineId machine : buckets[g * (kCpuClassMax + 1) + c]) {
        candidate_bits_[static_cast<std::size_t>(machine) / 64] |= 1ull << (machine % 64);
      }
    }
  }
  // Resolution returns registered nodes only, so a resolved set as large as
  // the table's is every node: the selector filters nothing (every pod of a
  // one-site federation cluster carries its site selector).
  const std::vector<cluster::MachineId>* matching =
      selector.empty() ? nullptr : &resolve_selector_nodes(selector);
  if (matching == nullptr || matching->size() == registered_nodes_) {
    for (std::size_t w = 0; w < candidate_bits_.size(); ++w) {
      // Emit the word's ids lowest bit first, clearing each as it goes.
      for (std::uint64_t& word = candidate_bits_[w]; word != 0; word &= word - 1) {
        sched_candidates_.push_back(
            static_cast<cluster::MachineId>(w * 64 + std::countr_zero(word)));
      }
    }
    return;
  }
  // The resolved selector set is ascending too: keep its marked ids.
  for (cluster::MachineId machine : *matching) {
    if ((candidate_bits_[static_cast<std::size_t>(machine) / 64] >> (machine % 64)) & 1) {
      sched_candidates_.push_back(machine);
    }
  }
  std::fill(candidate_bits_.begin(), candidate_bits_.end(), 0);
}

bool KubeCluster::has_capacity_for(const ResourceList& requests) const {
  // Same monotone-class superset scan as gather_candidates, but read-only and
  // short-circuiting: answers "could this pod EVER bind here" without
  // touching scheduler scratch state (used by the federation controller).
  const int lo = resource_class(requests.cpu, requests.gpus);
  for (int g = lo / (kCpuClassMax + 1); g <= kGpuClassMax; ++g) {
    for (int c = lo % (kCpuClassMax + 1); c <= kCpuClassMax; ++c) {
      for (cluster::MachineId machine : cap_buckets_[g * (kCpuClassMax + 1) + c]) {
        if (requests.fits_within(indexed(machine).allocatable)) return true;
      }
    }
  }
  return false;
}

// --- inverted label index -----------------------------------------------------------

void KubeCluster::index_node_labels(const NodeInfo& info) {
  for (const auto& [k, v] : info.labels) {
    auto& posting = label_index_[label_key(k, v)];
    posting.insert(std::lower_bound(posting.begin(), posting.end(), info.machine),
                   info.machine);
  }
  ++label_epoch_;  // memoized selector resolutions are now stale
}

void KubeCluster::unindex_node_labels(const NodeInfo& info) {
  for (const auto& [k, v] : info.labels) {
    auto it = label_index_.find(label_key(k, v));
    if (it == label_index_.end()) continue;
    auto& posting = it->second;
    posting.erase(std::remove(posting.begin(), posting.end(), info.machine),
                  posting.end());
    if (posting.empty()) label_index_.erase(it);
  }
  ++label_epoch_;
}

const std::vector<cluster::MachineId>& KubeCluster::resolve_selector_nodes(
    const Labels& selector) {
  // Memoize per serialized selector; Labels is an ordered map, so equal
  // selectors serialize identically. Entries are epoch-validated, never
  // evicted — the live selector population (DaemonSets, pod templates) is
  // small and stable.
  std::string key;
  for (const auto& [k, v] : selector) {
    key += k;
    key += '\x1F';
    key += v;
    key += '\x1E';
  }
  SelectorCache& cached = selector_cache_[key];
  if (cached.stamp == label_epoch_) return cached.nodes;
  cached.stamp = label_epoch_;
  cached.nodes.clear();
  if (selector.empty()) {  // every registered node matches, ascending id
    cached.nodes.reserve(nodes_.size());
    for (const auto& entry : nodes_) {
      if (entry != nullptr) cached.nodes.push_back(entry->machine);
    }
    return cached.nodes;
  }
  // Walk the rarest term's posting list and verify the rest against each
  // node's own label set — O(smallest posting), not O(nodes).
  const std::vector<cluster::MachineId>* base = nullptr;
  for (const auto& [k, v] : selector) {
    auto it = label_index_.find(label_key(k, v));
    if (it == label_index_.end()) return cached.nodes;  // no node carries the term
    if (base == nullptr || it->second.size() < base->size()) base = &it->second;
  }
  cached.nodes.reserve(base->size());
  for (cluster::MachineId machine : *base) {
    if (selector_matches(selector, indexed(machine).labels)) {
      cached.nodes.push_back(machine);
    }
  }
  return cached.nodes;
}

std::vector<cluster::MachineId> KubeCluster::nodes_matching(const Labels& selector) {
  return resolve_selector_nodes(selector);
}

bool KubeCluster::try_preempt(const Pod& pod) {
  const ResourceList requests = pod.requests();
  // Pick the node where evicting the cheapest set of strictly-lower-priority
  // pods frees enough room; prefer evicting as little priority as possible.
  // Candidates come from the capacity-class buckets: preemption can free
  // anything allocated, so total capacity is the binding constraint.
  cluster::MachineId best_node = -1;
  std::vector<PodPtr> best_victims;
  int best_cost = INT_MAX;
  gather_candidates(requests, /*by_capacity=*/true, pod.spec.node_selector);
  for (cluster::MachineId machine : sched_candidates_) {
    const NodeInfo& info = indexed(machine);
    if (!node_admits(info, pod)) continue;
    if (requests.fits_within(info.allocatable) == false) continue;
    // Candidate victims: lower-priority pods, lowest priority first.
    std::vector<PodPtr> candidates;
    candidates.reserve(info.pods.size());
    for (const auto& victim : info.pods) {
      if (!victim->terminal() && victim->spec.priority < pod.spec.priority) {
        candidates.push_back(victim);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const PodPtr& a, const PodPtr& b) {
                return a->spec.priority < b->spec.priority;
              });
    ResourceList would = info.allocated;
    std::vector<PodPtr> victims;
    victims.reserve(candidates.size());
    int cost = 0;
    for (const auto& victim : candidates) {
      ResourceList after = would + requests;
      if (after.fits_within(info.allocatable)) break;
      would -= victim->requests();
      victims.push_back(victim);
      cost += victim->spec.priority + 1;
    }
    ResourceList after = would + requests;
    if (!after.fits_within(info.allocatable)) continue;  // still no room
    if (!victims.empty() && cost < best_cost) {
      best_cost = cost;
      best_node = machine;
      best_victims = victims;
    }
  }
  if (best_node < 0) return false;
  for (const auto& victim : best_victims) evict_pod(victim, "Preempted");
  return true;
}

std::optional<cluster::MachineId> KubeCluster::pick_node(const Pod& pod) {
  const ResourceList requests = pod.requests();
  // Node-pinned pods (DaemonSets) name their machine in the selector; the
  // "machine" label is always the node's own id, so exactly one node can
  // match — resolve it directly instead of scanning.
  const auto pin = pod.spec.node_selector.find("machine");
  if (pin != pod.spec.node_selector.end()) {
    // The pin comes from the pod: range-check the parsed id before it is
    // narrowed to a MachineId and used as a table index.
    char* end = nullptr;
    const long long id = std::strtoll(pin->second.c_str(), &end, 10);
    if (end == pin->second.c_str() || *end != '\0') return std::nullopt;
    if (id < 0 || id >= static_cast<long long>(nodes_.size())) return std::nullopt;
    const NodeInfo* info = find_node(static_cast<cluster::MachineId>(id));
    if (info == nullptr || !node_admits(*info, pod)) return std::nullopt;
    if (!(info->allocated + requests).fits_within(info->allocatable)) return std::nullopt;
    return info->machine;
  }
  std::optional<cluster::MachineId> best;
  double best_score = 0.0;  // read only once `best` is set
  gather_candidates(requests, /*by_capacity=*/false, pod.spec.node_selector);
  // Sampled scoring (Kubernetes' percentageOfNodesToScore, determinized):
  // above the threshold, score at most score_sample_max FEASIBLE candidates
  // starting at a rotating offset so load still spreads across the fleet.
  // At or below the threshold start stays 0 and the budget can never run
  // out, so the walk is bit-identical to the old exhaustive ascending scan.
  const std::size_t n = sched_candidates_.size();
  std::size_t budget = n;
  std::size_t start = 0;
  if (options_.score_sample_max > 0 &&
      n > static_cast<std::size_t>(options_.score_sample_max)) {
    budget = static_cast<std::size_t>(options_.score_sample_max);
    start = static_cast<std::size_t>(sample_rotor_++ % n);
  }
  for (std::size_t k = 0; k < n && budget > 0; ++k) {
    std::size_t j = start + k;
    if (j >= n) j -= n;  // wrap
    const cluster::MachineId machine = sched_candidates_[j];
    const NodeInfo& info = indexed(machine);
    // node_admits without its selector test: every candidate already
    // matches the selector (gather_candidates).
    if (!info.ready || info.unschedulable || !tolerates_taints(info, pod)) continue;
    const ResourceList would = info.allocated + requests;
    if (!would.fits_within(info.allocatable)) continue;
    --budget;
    // Spread: prefer the node with the most free CPU/GPU fraction
    // (least-allocated). BinPack inverts the score to consolidate.
    const double cpu_free = 1.0 - would.cpu / std::max(1.0, info.allocatable.cpu);
    const double gpu_free =
        info.allocatable.gpus > 0
            ? 1.0 - static_cast<double>(would.gpus) / info.allocatable.gpus
            : 0.0;
    double score = cpu_free + gpu_free;
    if (options_.policy == SchedulingPolicy::BinPack) score = -score;
    // The first feasible candidate always stands: BinPack scores lie in
    // about [-2, 0], so a fixed floor would reject lightly used nodes.
    if (!best || score > best_score) {
      best_score = score;
      best = machine;
    }
  }
  return best;
}

void KubeCluster::bind(const PodPtr& pod, cluster::MachineId machine) {
  NodeInfo& info = indexed(machine);
  pod->node = machine;
  info.allocated += pod->requests();
  reindex_node(info);  // headroom class may have dropped
  info.pods.push_back(pod);
  // Device plugin: grant specific GPU ids.
  const int want = pod->requests().gpus;
  pod->gpu_ids.reserve(static_cast<std::size_t>(want));
  for (std::size_t i = 0; i < info.gpu_in_use.size() &&
                          pod->gpu_ids.size() < static_cast<std::size_t>(want);
       ++i) {
    if (!info.gpu_in_use[i]) {
      info.gpu_in_use[i] = true;
      pod->gpu_ids.push_back(static_cast<int>(i));
    }
  }
  assert(pod->gpu_ids.size() == static_cast<std::size_t>(want));
  pod->scheduled->trigger(sim_);
  sim_.spawn(run_pod(this, pod));
}

// --- kubelet ------------------------------------------------------------------------

sim::Task KubeCluster::run_pod(KubeCluster* self, PodPtr pod) {
  // Image pull: first use of an image on a node fetches it from the
  // registry; later pods hit the node-local cache.
  if (self->options_.registry_node >= 0 && pod->node >= 0) {
    const net::NodeId here = self->inventory_.machine(pod->node).net_node;
    for (const auto& c : pod->spec.containers) {
      // Look the node up fresh each iteration rather than hold a NodeInfo
      // reference across the pull below, which suspends.
      const auto& cache = self->node_at(pod->node).image_cache;
      const bool cached = std::find(cache.begin(), cache.end(), c.image) != cache.end();
      if (!cached) {
        co_await self->net_.send(self->options_.registry_node, here, c.image_size);
        self->node_at(pod->node).image_cache.push_back(c.image);
      }
    }
  }
  co_await self->sim_.sleep(self->options_.container_start_latency);
  if (pod->terminal() || pod->cancelled) co_return;

  pod->phase = PodPhase::Running;
  pod->started_at = self->sim_.now();
  pod->usage = pod->requests();
  pod->usage.gpus = 0;  // GPU usage reported explicitly via gpu_compute
  pod->context.reset(new PodContext(self, pod.get()));
  self->register_pod_metrics(pod);
  self->notify_watchers(pod);

  if (!pod->spec.containers.empty()) {
    auto all_done = sim::make_event();
    auto latch = std::make_shared<sim::Latch>(
        static_cast<std::int64_t>(pod->spec.containers.size()), all_done);
    for (std::size_t i = 0; i < pod->spec.containers.size(); ++i) {
      self->sim_.spawn(run_container(self, pod, i, latch));
    }
    co_await all_done->wait(self->sim_);
  }

  if (pod->terminal()) co_return;  // failed via node loss / deletion meanwhile
  self->finalize_pod(pod, pod->exit_code == 0 ? PodPhase::Succeeded : PodPhase::Failed,
                     pod->reason);
}

sim::Task KubeCluster::run_container(KubeCluster* self, PodPtr pod, std::size_t index,
                                     std::shared_ptr<sim::Latch> latch) {
  const ContainerSpec& c = pod->spec.containers[index];
  if (c.program) {
    co_await c.program(*pod->context);
  }
  latch->count_down(self->sim_);
}

void KubeCluster::finalize_pod(const PodPtr& pod, PodPhase phase,
                               const std::string& reason) {
  if (pod->terminal()) return;
  pod->phase = phase;
  pod->reason = reason;
  pod->finished_at = sim_.now();
  pod->usage = ResourceList{};
  release_node_resources(pod);
  release_quota(pod->meta.ns, pod->requests());
  unregister_pod_metrics(pod);
  pod->terminated->trigger(sim_);
  on_pod_terminated(pod);
  notify_watchers(pod);
  kick_scheduler();
}

void KubeCluster::release_node_resources(const PodPtr& pod) {
  NodeInfo* node = find_node(pod->node);
  if (node == nullptr) return;
  NodeInfo& info = *node;
  info.allocated -= pod->requests();
  reindex_node(info);  // headroom class may have risen
  for (int gpu : pod->gpu_ids) {
    if (gpu >= 0 && gpu < static_cast<int>(info.gpu_in_use.size())) {
      info.gpu_in_use[static_cast<std::size_t>(gpu)] = false;
    }
  }
  info.pods.erase(std::remove(info.pods.begin(), info.pods.end(), pod), info.pods.end());
}

// --- monitoring -----------------------------------------------------------------------

mon::Labels KubeCluster::pod_metric_labels(const Pod& pod) const {
  mon::Labels labels(pod.meta.labels.begin(), pod.meta.labels.end());
  labels["ns"] = pod.meta.ns;
  labels["pod"] = pod.meta.name;
  return labels;
}

void KubeCluster::register_pod_metrics(const PodPtr& pod) {
  if (metrics_ == nullptr) return;
  const mon::Labels labels = pod_metric_labels(*pod);
  Pod* raw = pod.get();
  metrics_->register_probe("pod_cpu_cores", labels, [raw] { return raw->usage.cpu; });
  metrics_->register_probe("pod_memory_bytes", labels,
                           [raw] { return static_cast<double>(raw->usage.memory); });
  metrics_->register_probe("pod_gpus", labels,
                           [raw] { return static_cast<double>(raw->usage.gpus); });
}

void KubeCluster::unregister_pod_metrics(const PodPtr& pod) {
  if (metrics_ == nullptr) return;
  const mon::Labels labels = pod_metric_labels(*pod);
  const double t = sim_.now();
  for (const char* name : {"pod_cpu_cores", "pod_memory_bytes", "pod_gpus"}) {
    metrics_->unregister_probe(name, labels);
    metrics_->record(name, labels, t, 0.0);  // close the series at zero
  }
}

// --- controllers ------------------------------------------------------------------------

void KubeCluster::on_machine_state(cluster::MachineId machine, bool up) {
  NodeInfo* node = find_node(machine);
  if (node == nullptr) return;
  NodeInfo& info = *node;
  info.ready = up;
  reindex_node(info);
  if (!up) {
    // Node controller: evict every pod bound to the lost node; their owners
    // (Job/ReplicaSet controllers) recreate them elsewhere (paper §V: "If a
    // node is taken offline the pods on that node will be rescheduled").
    std::vector<PodPtr> doomed = info.pods;
    for (const auto& pod : doomed) {
      if (!pod->terminal()) {
        pod->cancelled = true;
        finalize_pod(pod, PodPhase::Failed, "NodeLost");
      }
    }
  } else {
    for (auto& [key, ds] : daemon_sets_) reconcile_daemon_set(ds);
    kick_scheduler();
  }
}

void KubeCluster::on_pod_terminated(const PodPtr& pod) {
  if (!pod->owner.valid()) return;
  const std::string key = key_of(pod->meta.ns, pod->owner.name);
  if (pod->owner.kind == "Job") {
    auto it = jobs_.find(key);
    if (it == jobs_.end()) return;
    JobPtr job = it->second;
    job->active -= 1;
    if (pod->phase == PodPhase::Succeeded) {
      job->succeeded += 1;
    } else if (pod->reason != "NodeLost" && pod->reason != "Drained" &&
               pod->reason != "Preempted" && pod->reason != "TaintNoExecute" &&
               pod->reason != "Disrupted") {
      // Evictions (node loss, drains, preemption, taints) are rescheduled
      // without counting against the backoff limit, matching Kubernetes'
      // distinction between pod failures and disruptions.
      job->failed += 1;
    }
    if (job->succeeded >= job->spec.completions) {
      if (!job->complete) {
        job->complete = true;
        job->finished_at = sim_.now();
        job->done->trigger(sim_);
      }
      return;
    }
    if (job->failed > job->spec.backoff_limit) {
      if (!job->failed_state) {
        job->failed_state = true;
        job->finished_at = sim_.now();
        job->done->trigger(sim_);
      }
      return;
    }
    reconcile_job(job);
  } else if (pod->owner.kind == "ReplicaSet") {
    auto it = replica_sets_.find(key);
    if (it == replica_sets_.end()) return;
    ReplicaSetPtr rs = it->second;
    rs->active -= 1;
    if (!rs->deleted) reconcile_replica_set(rs);
  } else if (pod->owner.kind == "DaemonSet") {
    auto it = daemon_sets_.find(key);
    if (it != daemon_sets_.end()) reconcile_daemon_set(it->second);
  }
}

void KubeCluster::reconcile_job(const JobPtr& job) {
  if (job->complete || job->failed_state) return;
  const int want_active =
      std::min(job->spec.parallelism, job->spec.completions - job->succeeded);
  while (job->active < want_active) {
    const std::string pod_name =
        job->spec.name + "-" + std::to_string(job->next_index++);
    Labels labels = job->spec.labels;
    labels["job"] = job->spec.name;
    auto result = create_pod_impl(job->spec.ns, pod_name, job->spec.pod_template,
                                  labels, OwnerRef{"Job", job->spec.name}, nullptr,
                                  /*system=*/true);
    if (!result.ok()) {
      job->failed_state = true;
      job->finished_at = sim_.now();
      job->done->trigger(sim_);
      return;
    }
    job->active += 1;
  }
}

void KubeCluster::reconcile_replica_set(const ReplicaSetPtr& rs) {
  if (rs->deleted) return;
  while (rs->active < rs->spec.replicas) {
    const std::string pod_name = rs->spec.name + "-" + std::to_string(rs->next_index++);
    Labels labels = rs->spec.labels;
    labels["replicaset"] = rs->spec.name;
    auto result = create_pod_impl(rs->spec.ns, pod_name, rs->spec.pod_template,
                                  labels, OwnerRef{"ReplicaSet", rs->spec.name},
                                  nullptr, /*system=*/true);
    if (!result.ok()) return;  // e.g. quota: retry on next termination
    rs->active += 1;
  }
}

}  // namespace chase::kube
