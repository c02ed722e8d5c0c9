#pragma once
/// \file disttrain.hpp
/// Data-parallel FFN training across N simulated GPU workers — ROADMAP item
/// 4, the paper's §III-E2 distributed-training extension ("Tensorflow does
/// support distributed training", run here as kube pods over chase::net
/// instead of replaying a calibrated rate model).
///
/// Each worker pod leases one shard of the synthetic IVT volume (a
/// contiguous time slab), samples one FOV example per global step from a
/// stateless per-(shard, step) rng stream, runs the real FfnModel
/// forward/backward on its weight replica, pays the FLOP-derived GPU time on
/// its granted device, and hands the gradient to a SyncStrategy:
///
///  * RingAllReduce — synchronous. When all N shard gradients for step t
///    are registered, the reduce-scatter + all-gather schedule runs as
///    2(N-1) rounds of N concurrent chase::net transfers of ceil(B/N) bytes
///    each (the bandwidth-optimal ring: every worker moves 2(N-1)/N · B
///    bytes per step), so link contention and max-min fair sharing shape
///    step time. The summed gradient is applied once, in ascending shard
///    order — bit-identical to a single-trainer large-batch step.
///  * ParamServer — workers push gradients to a server pod and pull weights
///    back, all as real transfers. With staleness bound 0 the server
///    applies the mean of all N pushes per step (same ascending-shard sum:
///    bit-identical to the ring and to the reference); with bound s > 0 it
///    applies every push on arrival and a worker may run up to s steps
///    ahead of the slowest shard (stale-synchronous parallelism) — faster
///    wall-clock, stale gradients, the classic async accuracy cliff.
///    Optional backup workers (Google-style straggler mitigation) compute
///    redundant copies of extra shards; each synchronous step applies the
///    first N arrivals and drops the rest.
///
/// Healing: a per-shard supervisor recreates the worker pod whenever it
/// terminates without finishing its stream (chaos kill, node loss). The
/// shard lease — the next unregistered step — lives in the trainer, and the
/// example stream is a pure function of (shard seed, step), so a
/// replacement resumes exactly where the victim stopped: every (shard,
/// step) microbatch is applied exactly once and the loss trajectory plus
/// determinism hash stay bit-identical with and without the kill.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kube/cluster.hpp"
#include "ml/ffn.hpp"
#include "ml/synth.hpp"
#include "net/network.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace chase::ml {

struct DistTrainConfig {
  enum class Sync { RingAllReduce, ParamServer };
  Sync sync = Sync::RingAllReduce;

  /// Data-parallel width: shards of the training set == worker pods
  /// contributing to every applied step.
  int workers = 4;
  /// Extra redundant workers (ParamServer, staleness 0 only): each mirrors
  /// one of the primary shards; a step applies the first `workers` arrivals.
  int backup_workers = 0;
  /// Global optimizer steps to run.
  int steps = 40;
  /// Stale-synchronous bound (ParamServer only). 0 = fully synchronous;
  /// s > 0 lets a shard run while the slowest shard is up to s steps behind,
  /// applying each gradient on arrival.
  int staleness = 0;

  FfnConfig model;
  FfnModel::OptimizerConfig optimizer;
  IvtFieldParams data;
  std::uint64_t seed = 7;

  /// Input normalization, as FfnTrainer::Options.
  float input_mean = 200.f;
  float input_scale = 200.f;

  /// GPU cost: seconds = flops_per_example / (tflops · 1e12 · efficiency).
  /// flops_per_example 0 derives 2 · forward_macs · flops_multiplier from
  /// the actual (test-scale) model; benches override it with paper-scale
  /// FLOPs so compute/comm ratios match the real FFN.
  double gpu_efficiency = 0.30;
  double flops_multiplier = 3.0;
  double flops_per_example = 0.0;
  /// Gradient/weight payload per exchange; 0 derives 4 · parameter_count()
  /// from the model. Benches override with the paper-scale ~3 MB.
  util::Bytes sync_bytes = 0;

  std::string ns = "disttrain";
};

/// One run's results. Everything here is derived from simulated execution:
/// losses are real FfnModel math, times are virtual seconds, and `hash`
/// folds every applied loss plus the final weights — the bit-stable
/// determinism fingerprint the replay tests compare.
struct DistTrainReport {
  /// Mean shard loss per applied synchronous step (or per applied push in
  /// stale-synchronous mode), in application order.
  std::vector<float> losses;
  double sim_seconds = 0.0;       // start() to completion, virtual time
  std::uint64_t comm_bytes = 0;   // payload bytes the strategy moved
  int applied_updates = 0;        // optimizer applications
  int dropped_gradients = 0;      // late backups / stale incarnations
  int worker_restarts = 0;        // supervisor pod recreations
  /// Applied microbatches per shard slot (shard conservation: each primary
  /// slot must equal `steps` in synchronous modes).
  std::vector<int> shard_contributions;
  float final_loss = 0.0f;        // mean of the last quarter of `losses`
  std::uint64_t hash = 0;         // determinism fingerprint
  std::string gpu_model;          // GPU model of the first worker's machine
};

/// Deterministic sharded view of one synthetic IVT volume. Shard k owns a
/// contiguous time slab; its example for global step t is a pure function
/// of (base seed, k, t), so replacement workers resume mid-stream exactly.
class ShardedIvtDataset {
 public:
  ShardedIvtDataset(const IvtFieldParams& params, int shards, const FfnConfig& model,
                    std::uint64_t seed, float input_mean, float input_scale);

  int shards() const { return static_cast<int>(shard_seeds_.size()); }
  const IvtField& field() const { return field_; }

  /// Fill `input` (2-channel FOV patch: normalized image + seeded POM
  /// prior) and `target` (truth patch) for shard `shard`'s microbatch of
  /// global step `step`. Buffers are reused when already shaped.
  void example(int shard, int step, Tensor4& input, Volume<std::uint8_t>& target) const;

 private:
  void sample_center(int shard, int step, int& cx, int& cy, int& ct) const;

  IvtField field_;
  FfnConfig model_;
  float input_mean_, input_scale_;
  std::vector<std::uint64_t> shard_seeds_;
  std::vector<int> slab_lo_, slab_hi_;           // per-shard [lo, hi) time slab
  std::vector<std::vector<std::size_t>> sites_;  // per-shard positive centers
};

class DistTrainer;

/// Gradient-synchronization policy: when a shard may compute a step, which
/// weights it computes on, and how its gradient travels and is applied.
/// Coroutine methods take pointers (never references) per the repo's
/// coroutine-lifetime rules; `grads` moves into the callee's frame.
class SyncStrategy {
 public:
  virtual ~SyncStrategy() = default;
  /// Suspend until shard `slot` may compute global step `step`, then bring
  /// `replica` to the weights that step must use (paying any pull traffic).
  virtual sim::Task acquire(kube::PodContext* ctx, int slot, int step,
                            FfnModel* replica, int* replica_version) = 0;
  /// Deliver (slot, step)'s gradient and loss: pay the strategy's traffic,
  /// register the contribution, and advance the global model when due.
  virtual sim::Task publish(kube::PodContext* ctx, int slot, int step,
                            FfnModel::Gradients grads, float loss) = 0;
};

/// Runs one data-parallel training job on a kube cluster. Construction
/// generates the dataset and the master model; start() launches the pods;
/// the returned event fires when the configured steps have been applied.
class DistTrainer {
 public:
  DistTrainer(kube::KubeCluster& kube, DistTrainConfig config);
  ~DistTrainer();
  DistTrainer(const DistTrainer&) = delete;
  DistTrainer& operator=(const DistTrainer&) = delete;

  /// Create the namespace, the server pod (ParamServer) and one supervised
  /// worker pod per shard slot. Idempotent guard: call once.
  sim::EventPtr start();

  const DistTrainConfig& config() const { return config_; }
  const DistTrainReport& report() const { return report_; }
  const FfnModel& model() const { return master_; }
  const ShardedIvtDataset& dataset() const { return dataset_; }
  SyncStrategy& strategy() { return *strategy_; }
  bool finished() const { return finished_; }

  /// Payload bytes one gradient/weight exchange moves.
  util::Bytes sync_bytes() const;
  /// FLOPs one worker spends per example (config override or model-derived).
  double flops_per_example() const;

 private:
  friend class RingAllReduceStrategy;
  friend class ParamServerStrategy;

  struct Slot {
    int next_step = 0;       // shard lease: first unregistered step
    int contributions = 0;   // registered (applied or buffered) microbatches
    int incarnation = 0;     // pod recreations
    net::NodeId last_node = -1;  // endpoint of the registering worker
    kube::PodPtr pod;        // current lease holder
  };

  int slot_count() const { return config_.workers + config_.backup_workers; }
  int min_next_step() const;
  /// Wake every coroutine parked on progress (version/lease advance).
  void notify_advance();
  /// Register one computed microbatch. Synchronous modes buffer into the
  /// step inbox; returns true at the `workers`-th distinct-shard arrival
  /// (the caller then pays the reduce traffic and calls apply_inbox()).
  /// Stale-synchronous applies immediately and returns false. Duplicate
  /// (stale-incarnation) and late-backup registrations are counted and
  /// dropped.
  bool register_gradient(int slot, int step, FfnModel::Gradients&& grads, float loss,
                         net::NodeId from);
  /// Sum the inbox in ascending slot order, apply, publish new weights.
  void apply_inbox();
  void apply_update(const FfnModel::Gradients& grads, float mean_loss);
  void finish();

  static sim::Task supervise_slot(DistTrainer* self, int slot);
  static sim::Task worker_body(DistTrainer* self, int slot, kube::PodContext* ctx);
  static sim::Task server_body(DistTrainer* self, kube::PodContext* ctx);

  kube::KubeCluster& kube_;
  sim::Simulation& sim_;
  DistTrainConfig config_;
  ShardedIvtDataset dataset_;
  FfnModel master_;
  std::unique_ptr<SyncStrategy> strategy_;

  std::vector<float> blob_;   // serialized master weights, version version_
  int version_ = 0;           // applied optimizer updates
  std::vector<Slot> slots_;

  // Synchronous step inbox: one slot per shard, current step only (the
  // admission gate makes >1 in-flight synchronous step impossible).
  std::vector<FfnModel::Gradients> inbox_;
  std::vector<float> inbox_loss_;
  std::vector<std::uint8_t> inbox_full_;
  int inbox_count_ = 0;
  FfnModel::Gradients reduce_scratch_;

  sim::EventPtr done_ = sim::make_event();
  sim::EventPtr advance_ev_ = sim::make_event();
  sim::EventPtr server_ready_ = sim::make_event();
  net::NodeId server_node_ = -1;
  kube::PodPtr server_pod_;

  DistTrainReport report_;
  double start_time_ = 0.0;
  bool started_ = false;
  bool finished_ = false;
};

/// The single-trainer equivalence reference: the same dataset, the same
/// per-shard microbatches, summed in ascending shard order into one
/// large-batch step per global step — no cluster, no network. Ring
/// all-reduce and staleness-0 parameter server must match its loss
/// trajectory and final weights bit for bit.
DistTrainReport reference_large_batch(const DistTrainConfig& config);

/// Determinism fingerprint over a loss trajectory + final weights.
std::uint64_t disttrain_hash(const std::vector<float>& losses,
                             const std::vector<float>& weights);

}  // namespace chase::ml
