#include "ml/disttrain.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "cluster/machine.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace chase::ml {

namespace {

std::uint64_t fold_float(std::uint64_t h, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return util::hash_combine(h, bits);
}

/// Mean of the last quarter (at least one entry) of a loss trajectory.
float tail_mean(const std::vector<float>& losses) {
  if (losses.empty()) return 0.f;
  const std::size_t n = losses.size();
  const std::size_t q = std::max<std::size_t>(1, n / 4);
  double acc = 0.0;
  for (std::size_t i = n - q; i < n; ++i) acc += losses[i];
  return static_cast<float>(acc / static_cast<double>(q));
}

/// The batch-wide gradient normalizer: every worker's per-example gradient
/// is divided by (workers x fov^3) so the ascending-shard sum averages the
/// global batch exactly once — the invariant behind bit-identity with the
/// single-trainer reference.
double batch_normalizer(const DistTrainConfig& config) {
  const double fov = static_cast<double>(config.model.fov);
  return static_cast<double>(config.workers) * fov * fov * fov;
}

}  // namespace

std::uint64_t disttrain_hash(const std::vector<float>& losses,
                             const std::vector<float>& weights) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  for (float v : losses) h = fold_float(h, v);
  h = util::hash_combine(h, 0x9e3779b9ull);  // domain separator
  for (float v : weights) h = fold_float(h, v);
  return h;
}

// --- ShardedIvtDataset -------------------------------------------------------

ShardedIvtDataset::ShardedIvtDataset(const IvtFieldParams& params, int shards,
                                     const FfnConfig& model, std::uint64_t seed,
                                     float input_mean, float input_scale)
    : field_(generate_ivt(params)), model_(model), input_mean_(input_mean),
      input_scale_(input_scale) {
  CHASE_ASSERT(shards >= 1, "dataset needs at least one shard");
  const int nt = field_.truth.nz();
  const int half = model_.fov / 2;
  shard_seeds_.reserve(static_cast<std::size_t>(shards));
  slab_lo_.resize(static_cast<std::size_t>(shards));
  slab_hi_.resize(static_cast<std::size_t>(shards));
  sites_.resize(static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k) {
    shard_seeds_.push_back(util::hash_combine(seed, static_cast<std::uint64_t>(k)));
    slab_lo_[static_cast<std::size_t>(k)] =
        static_cast<int>(static_cast<std::int64_t>(nt) * k / shards);
    slab_hi_[static_cast<std::size_t>(k)] =
        static_cast<int>(static_cast<std::int64_t>(nt) * (k + 1) / shards);
    // Positive centers whose full FOV lies inside the volume and whose time
    // coordinate lies in this shard's slab.
    const int t_lo = std::max(slab_lo_[static_cast<std::size_t>(k)], half);
    const int t_hi = std::min(slab_hi_[static_cast<std::size_t>(k)], nt - half);
    for (int t = t_lo; t < t_hi; ++t) {
      for (int y = half; y < field_.truth.ny() - half; ++y) {
        for (int x = half; x < field_.truth.nx() - half; ++x) {
          if (field_.truth.at(x, y, t)) {
            sites_[static_cast<std::size_t>(k)].push_back(field_.truth.index(x, y, t));
          }
        }
      }
    }
  }
}

void ShardedIvtDataset::sample_center(int shard, int step, int& cx, int& cy,
                                      int& ct) const {
  // The stream is a pure function of (shard seed, step): replacement workers
  // resume a dead worker's stream without any handed-over rng state.
  util::Rng rng(
      util::hash_combine(shard_seeds_[static_cast<std::size_t>(shard)],
                         static_cast<std::uint64_t>(static_cast<std::uint32_t>(step))));
  const int half = model_.fov / 2;
  const auto& sites = sites_[static_cast<std::size_t>(shard)];
  if (!sites.empty() && rng.chance(0.9)) {
    const std::size_t flat = sites[rng.uniform_u64(sites.size())];
    const int nx = field_.truth.nx(), ny = field_.truth.ny();
    cx = static_cast<int>(flat % static_cast<std::size_t>(nx));
    cy = static_cast<int>((flat / static_cast<std::size_t>(nx)) %
                          static_cast<std::size_t>(ny));
    ct = static_cast<int>(flat / (static_cast<std::size_t>(nx) * ny));
  } else {
    int t_lo = std::max(slab_lo_[static_cast<std::size_t>(shard)], half);
    int t_hi = std::min(slab_hi_[static_cast<std::size_t>(shard)],
                        field_.truth.nz() - half);
    if (t_hi <= t_lo) {  // slab narrower than the FOV margin: sample the slab
      t_lo = slab_lo_[static_cast<std::size_t>(shard)];
      t_hi = slab_hi_[static_cast<std::size_t>(shard)];
    }
    cx = half + static_cast<int>(rng.uniform_u64(
                    static_cast<std::uint64_t>(std::max(1, field_.truth.nx() - 2 * half))));
    cy = half + static_cast<int>(rng.uniform_u64(
                    static_cast<std::uint64_t>(std::max(1, field_.truth.ny() - 2 * half))));
    ct = t_lo + static_cast<int>(
                    rng.uniform_u64(static_cast<std::uint64_t>(std::max(1, t_hi - t_lo))));
  }
}

void ShardedIvtDataset::example(int shard, int step, Tensor4& input,
                                Volume<std::uint8_t>& target) const {
  const int fov = model_.fov;
  const int half = fov / 2;
  int cx = 0, cy = 0, ct = 0;
  sample_center(shard, step, cx, cy, ct);
  if (input.channels() != 2 || input.nx() != fov || input.ny() != fov ||
      input.nz() != fov) {
    input = Tensor4(2, fov, fov, fov);
  }
  if (target.nx() != fov || target.ny() != fov || target.nz() != fov) {
    target = Volume<std::uint8_t>(fov, fov, fov, 0);
  }
  for (int z = 0; z < fov; ++z) {
    for (int y = 0; y < fov; ++y) {
      for (int x = 0; x < fov; ++x) {
        const int sx = cx + x - half, sy = cy + y - half, st = ct + z - half;
        const float img = field_.ivt.get_or(sx, sy, st, 0.f);
        input.at(0, x, y, z) = (img - input_mean_) / input_scale_;
        input.at(1, x, y, z) = model_.pom_init;
        target.at(x, y, z) = field_.truth.get_or(sx, sy, st, std::uint8_t{0});
      }
    }
  }
  input.at(1, half, half, half) = model_.pom_seed;  // active seed at the center
}

// --- SyncStrategy implementations --------------------------------------------

/// Bandwidth-optimal synchronous collective: the step's last registrant
/// drives 2(N-1) rounds of N concurrent neighbor transfers of ceil(B/N)
/// bytes (reduce-scatter then all-gather), then applies the ascending-shard
/// sum once. Gradient math happens on registration, so the wire carries
/// cost, not floats — determinism never depends on arrival order.
class RingAllReduceStrategy final : public SyncStrategy {
 public:
  explicit RingAllReduceStrategy(DistTrainer* core) : core_(core) {}

  sim::Task acquire(kube::PodContext* ctx, int slot, int step, FfnModel* replica,
                    int* replica_version) override {
    (void)slot;
    DistTrainer* core = core_;
    while (!core->finished_ && core->version_ < step) {
      if (ctx->cancelled()) co_return;
      // Copy the current epoch's event: notify_advance() re-arms the member.
      sim::EventPtr ev = core->advance_ev_;
      co_await ev->wait(core->sim_);
    }
    if (core->finished_ || ctx->cancelled()) co_return;
    if (*replica_version != core->version_) {
      // The all-gather half of the ring already delivered these weights;
      // its traffic is paid in the publish rounds below.
      replica->deserialize(core->blob_);
      *replica_version = core->version_;
    }
  }

  sim::Task publish(kube::PodContext* ctx, int slot, int step,
                    FfnModel::Gradients grads, float loss) override {
    DistTrainer* core = core_;
    const bool full =
        core->register_gradient(slot, step, std::move(grads), loss, ctx->net_node());
    if (!full) co_return;
    const int n = core->config_.workers;
    const util::Bytes chunk = (core->sync_bytes() + n - 1) / n;
    for (int round = 0; round < 2 * (n - 1); ++round) {
      std::vector<net::Network::GroupLeg> legs;
      legs.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        net::Network::GroupLeg leg;
        leg.src = core->slots_[static_cast<std::size_t>(i)].last_node;
        leg.dst = core->slots_[static_cast<std::size_t>((i + 1) % n)].last_node;
        leg.bytes = chunk;
        legs.push_back(leg);
      }
      core->report_.comm_bytes += static_cast<std::uint64_t>(chunk) * n;
      co_await core->kube_.network().send_group(std::move(legs));
    }
    core->apply_inbox();
  }

 private:
  DistTrainer* core_;
};

/// Central server pod: workers pull the weight blob and push gradients as
/// point-to-point transfers, all funneling through the server's NIC. With
/// staleness 0 the server reduces the step inbox exactly like the ring;
/// with bound s > 0 every push is applied on arrival and the admission gate
/// only holds a worker back once it runs s steps past the slowest shard.
class ParamServerStrategy final : public SyncStrategy {
 public:
  explicit ParamServerStrategy(DistTrainer* core) : core_(core) {}

  sim::Task acquire(kube::PodContext* ctx, int slot, int step, FfnModel* replica,
                    int* replica_version) override {
    (void)slot;
    DistTrainer* core = core_;
    while (!core->finished_ && core->server_node_ < 0) {
      if (ctx->cancelled()) co_return;
      co_await core->server_ready_->wait(core->sim_);
    }
    while (!core->finished_ && !admitted(core, step)) {
      if (ctx->cancelled()) co_return;
      sim::EventPtr ev = core->advance_ev_;
      co_await ev->wait(core->sim_);
    }
    if (core->finished_ || ctx->cancelled()) co_return;
    if (*replica_version != core->version_) {
      net::TransferPtr pull = core->kube_.network().transfer(
          core->server_node_, ctx->net_node(), core->sync_bytes());
      core->report_.comm_bytes += static_cast<std::uint64_t>(core->sync_bytes());
      co_await pull->done->wait(core->sim_);
      if (core->finished_ || ctx->cancelled() || pull->failed) co_return;
      // In stale-synchronous mode version_ may have advanced during the
      // pull; the blob always holds the latest weights, so the replica
      // lands on whatever is current now — exactly a stale read.
      replica->deserialize(core->blob_);
      *replica_version = core->version_;
    }
  }

  sim::Task publish(kube::PodContext* ctx, int slot, int step,
                    FfnModel::Gradients grads, float loss) override {
    DistTrainer* core = core_;
    const net::NodeId from = ctx->net_node();
    net::TransferPtr push =
        core->kube_.network().transfer(from, core->server_node_, core->sync_bytes());
    core->report_.comm_bytes += static_cast<std::uint64_t>(core->sync_bytes());
    co_await push->done->wait(core->sim_);
    if (core->finished_) co_return;
    if (push->failed) {
      // The gradient never reached the server; the worker (or its
      // replacement) recomputes this step from the shard lease.
      core->report_.dropped_gradients += 1;
      co_return;
    }
    if (core->register_gradient(slot, step, std::move(grads), loss, from)) {
      core->apply_inbox();
    }
  }

 private:
  static bool admitted(DistTrainer* core, int step) {
    if (core->config_.staleness == 0) return core->version_ >= step;
    return step <= core->min_next_step() + core->config_.staleness;
  }

  DistTrainer* core_;
};

// --- DistTrainer -------------------------------------------------------------

DistTrainer::DistTrainer(kube::KubeCluster& kube, DistTrainConfig config)
    : kube_(kube), sim_(kube.sim()), config_(std::move(config)),
      dataset_(config_.data, config_.workers, config_.model, config_.seed,
               config_.input_mean, config_.input_scale),
      master_(config_.model) {
  CHASE_ASSERT(config_.workers >= 1, "need at least one worker");
  CHASE_ASSERT(config_.steps >= 1, "need at least one step");
  CHASE_ASSERT(config_.staleness == 0 ||
                   config_.sync == DistTrainConfig::Sync::ParamServer,
               "a staleness bound needs the parameter server");
  CHASE_ASSERT(config_.backup_workers == 0 ||
                   (config_.sync == DistTrainConfig::Sync::ParamServer &&
                    config_.staleness == 0),
               "backup workers need the synchronous parameter server");
  strategy_ = config_.sync == DistTrainConfig::Sync::RingAllReduce
                  ? std::unique_ptr<SyncStrategy>(new RingAllReduceStrategy(this))
                  : std::unique_ptr<SyncStrategy>(new ParamServerStrategy(this));
  master_.serialize_into(blob_);
  slots_.resize(static_cast<std::size_t>(slot_count()));
  inbox_.resize(static_cast<std::size_t>(config_.workers));
  for (auto& g : inbox_) g = master_.make_gradients();
  inbox_loss_.assign(static_cast<std::size_t>(config_.workers), 0.f);
  inbox_full_.assign(static_cast<std::size_t>(config_.workers), 0);
  reduce_scratch_ = master_.make_gradients();
  report_.shard_contributions.assign(static_cast<std::size_t>(slot_count()), 0);
}

DistTrainer::~DistTrainer() = default;

util::Bytes DistTrainer::sync_bytes() const {
  if (config_.sync_bytes > 0) return config_.sync_bytes;
  return static_cast<util::Bytes>(master_.parameter_count() * sizeof(float));
}

double DistTrainer::flops_per_example() const {
  if (config_.flops_per_example > 0.0) return config_.flops_per_example;
  return 2.0 * master_.forward_macs() * config_.flops_multiplier;
}

int DistTrainer::min_next_step() const {
  int m = config_.steps;
  for (const Slot& s : slots_) m = std::min(m, s.next_step);
  return m;
}

void DistTrainer::notify_advance() {
  // Swap in a fresh epoch before triggering so a waiter that re-parks after
  // waking waits on the next advance, not the already-fired event.
  sim::EventPtr ev = std::move(advance_ev_);
  advance_ev_ = sim::make_event();
  ev->trigger(sim_);
}

bool DistTrainer::register_gradient(int slot, int step, FfnModel::Gradients&& grads,
                                    float loss, net::NodeId from) {
  Slot& owner = slots_[static_cast<std::size_t>(slot)];
  if (finished_ || owner.next_step != step) {
    // A stale incarnation's in-flight publish landed after its replacement
    // already covered this step, or the run is over.
    report_.dropped_gradients += 1;
    return false;
  }
  owner.next_step = step + 1;  // advance the shard lease
  owner.last_node = from;
  notify_advance();
  if (config_.staleness > 0) {
    owner.contributions += 1;
    apply_update(grads, loss);
    return false;
  }
  const int shard = slot % config_.workers;
  if (step < version_ || inbox_full_[static_cast<std::size_t>(shard)]) {
    // Backup worker lost the race for its shard: the microbatch is already
    // applied (or buffered) by the mirror slot.
    report_.dropped_gradients += 1;
    return false;
  }
  inbox_[static_cast<std::size_t>(shard)] = std::move(grads);
  inbox_loss_[static_cast<std::size_t>(shard)] = loss;
  inbox_full_[static_cast<std::size_t>(shard)] = 1;
  inbox_count_ += 1;
  owner.contributions += 1;
  return inbox_count_ == config_.workers;
}

void DistTrainer::apply_inbox() {
  if (finished_ || inbox_count_ < config_.workers) return;
  // Ascending shard order: the exact float-addition sequence of the
  // single-trainer reference's large-batch accumulation.
  reduce_scratch_.reset();
  double loss_acc = 0.0;
  for (int s = 0; s < config_.workers; ++s) {
    reduce_scratch_.add(inbox_[static_cast<std::size_t>(s)]);
    loss_acc += static_cast<double>(inbox_loss_[static_cast<std::size_t>(s)]);
    inbox_full_[static_cast<std::size_t>(s)] = 0;
  }
  inbox_count_ = 0;
  apply_update(reduce_scratch_,
               static_cast<float>(loss_acc / static_cast<double>(config_.workers)));
}

void DistTrainer::apply_update(const FfnModel::Gradients& grads, float mean_loss) {
  master_.apply_gradients(grads, config_.optimizer);
  version_ += 1;
  master_.serialize_into(blob_);
  report_.losses.push_back(mean_loss);
  report_.applied_updates += 1;
  notify_advance();
  const int target =
      config_.staleness > 0 ? config_.workers * config_.steps : config_.steps;
  if (version_ >= target) finish();
}

void DistTrainer::finish() {
  if (finished_) return;
  finished_ = true;
  report_.sim_seconds = sim_.now() - start_time_;
  for (int s = 0; s < slot_count(); ++s) {
    report_.shard_contributions[static_cast<std::size_t>(s)] =
        slots_[static_cast<std::size_t>(s)].contributions;
  }
  report_.final_loss = tail_mean(report_.losses);
  report_.hash = disttrain_hash(report_.losses, blob_);
  done_->trigger(sim_);
  notify_advance();  // release workers parked on the admission gate
}

sim::Task DistTrainer::supervise_slot(DistTrainer* self, int slot) {
  // One supervisor per shard slot: recreate the worker pod until the shard's
  // step stream is exhausted — the §V self-healing loop, with the shard
  // lease (next_step) surviving the pod.
  while (!self->finished_ &&
         self->slots_[static_cast<std::size_t>(slot)].next_step < self->config_.steps) {
    const int inc = self->slots_[static_cast<std::size_t>(slot)].incarnation++;
    kube::ContainerSpec container;
    container.name = "trainer";
    container.image = "chase/ffn-disttrain";
    container.image_size = util::mb(900);
    container.requests.cpu = 2.0;
    container.requests.memory = util::gb(8);
    container.requests.gpus = 1;
    DistTrainer* core = self;
    const int s = slot;
    // Non-coroutine lambda handing off to a static member coroutine: the
    // captures are consumed before any suspension.
    container.program = [core, s](kube::PodContext& ctx) -> sim::Task {
      return worker_body(core, s, &ctx);
    };
    kube::PodSpec spec;
    spec.containers.push_back(std::move(container));
    kube::Labels labels{{"app", "disttrain"},
                        {"role", "worker"},
                        {"shard", std::to_string(slot % self->config_.workers)},
                        {"slot", std::to_string(slot)}};
    auto created = self->kube_.create_pod(
        self->config_.ns,
        "ffn-worker-" + std::to_string(slot) + "-" + std::to_string(inc),
        std::move(spec), std::move(labels));
    if (!created.ok()) break;  // admission rejected (quota/auth): stop healing
    self->slots_[static_cast<std::size_t>(slot)].pod = created.value;
    co_await created.value->terminated->wait(self->sim_);
    self->slots_[static_cast<std::size_t>(slot)].pod.reset();
    if (self->finished_ ||
        self->slots_[static_cast<std::size_t>(slot)].next_step >= self->config_.steps ||
        created.value->phase == kube::PodPhase::Succeeded) {
      break;
    }
    self->report_.worker_restarts += 1;
  }
}

sim::Task DistTrainer::worker_body(DistTrainer* self, int slot, kube::PodContext* ctx) {
  FfnModel replica(self->config_.model);
  int replica_version = -1;
  Tensor4 input, logits, dlogits;
  Volume<std::uint8_t> target;
  FfnModel::Workspace ws;
  const int shard = slot % self->config_.workers;
  const double normalizer = batch_normalizer(self->config_);
  if (self->report_.gpu_model.empty()) {
    self->report_.gpu_model = cluster::gpu_model_name(ctx->machine_spec().gpu_model);
  }
  while (!self->finished_ && !ctx->cancelled()) {
    const int step = self->slots_[static_cast<std::size_t>(slot)].next_step;
    if (step >= self->config_.steps) break;
    co_await self->strategy_->acquire(ctx, slot, step, &replica, &replica_version);
    if (self->finished_ || ctx->cancelled()) break;
    if (self->slots_[static_cast<std::size_t>(slot)].next_step != step) {
      continue;  // a stale incarnation covered the step while we waited
    }
    self->dataset_.example(shard, step, input, target);
    replica.forward(input, logits, &ws);
    const float loss = FfnModel::logistic_loss(logits, target, dlogits, normalizer);
    FfnModel::Gradients grads = replica.make_gradients();
    replica.backward(input, dlogits, ws, grads);
    const double gpu_seconds =
        self->flops_per_example() /
        (ctx->gpu_tflops() * 1e12 * self->config_.gpu_efficiency);
    co_await ctx->gpu_compute(gpu_seconds);
    if (ctx->cancelled()) break;  // the compute never finished: no publish
    co_await self->strategy_->publish(ctx, slot, step, std::move(grads), loss);
  }
}

sim::Task DistTrainer::server_body(DistTrainer* self, kube::PodContext* ctx) {
  self->server_node_ = ctx->net_node();
  self->server_ready_->trigger(self->sim_);
  co_await self->done_->wait(self->sim_);
}

sim::EventPtr DistTrainer::start() {
  CHASE_ASSERT(!started_, "DistTrainer::start called twice");
  started_ = true;
  start_time_ = sim_.now();
  const int target =
      config_.staleness > 0 ? config_.workers * config_.steps : config_.steps;
  report_.losses.reserve(static_cast<std::size_t>(target));
  if (!kube_.has_namespace(config_.ns)) kube_.create_namespace(config_.ns);
  if (config_.sync == DistTrainConfig::Sync::ParamServer) {
    kube::ContainerSpec container;
    container.name = "server";
    container.image = "chase/ffn-paramserver";
    container.image_size = util::mb(600);
    container.requests.cpu = 4.0;
    container.requests.memory = util::gb(8);
    DistTrainer* core = this;
    container.program = [core](kube::PodContext& ctx) -> sim::Task {
      return server_body(core, &ctx);
    };
    kube::PodSpec spec;
    spec.containers.push_back(std::move(container));
    auto created = kube_.create_pod(config_.ns, "ffn-paramserver", std::move(spec),
                                    {{"app", "disttrain"}, {"role", "ps"}});
    CHASE_ASSERT(created.ok(), "parameter-server pod rejected");
    server_pod_ = created.value;
  }
  for (int s = 0; s < slot_count(); ++s) {
    sim_.spawn(supervise_slot(this, s));
  }
  return done_;
}

// --- reference ---------------------------------------------------------------

DistTrainReport reference_large_batch(const DistTrainConfig& config) {
  ShardedIvtDataset dataset(config.data, config.workers, config.model, config.seed,
                            config.input_mean, config.input_scale);
  FfnModel master(config.model);
  FfnModel::Gradients total = master.make_gradients();
  FfnModel::Gradients g = master.make_gradients();
  Tensor4 input, logits, dlogits;
  Volume<std::uint8_t> target;
  FfnModel::Workspace ws;
  const double normalizer = batch_normalizer(config);
  DistTrainReport report;
  report.shard_contributions.assign(static_cast<std::size_t>(config.workers), 0);
  report.losses.reserve(static_cast<std::size_t>(config.steps));
  for (int t = 0; t < config.steps; ++t) {
    total.reset();
    double loss_acc = 0.0;
    for (int s = 0; s < config.workers; ++s) {
      dataset.example(s, t, input, target);
      master.forward(input, logits, &ws);
      const float loss = FfnModel::logistic_loss(logits, target, dlogits, normalizer);
      g.reset();
      master.backward(input, dlogits, ws, g);
      total.add(g);
      loss_acc += static_cast<double>(loss);
      report.shard_contributions[static_cast<std::size_t>(s)] += 1;
    }
    master.apply_gradients(total, config.optimizer);
    report.losses.push_back(
        static_cast<float>(loss_acc / static_cast<double>(config.workers)));
  }
  report.applied_updates = config.steps;
  report.final_loss = tail_mean(report.losses);
  report.hash = disttrain_hash(report.losses, master.serialize());
  return report;
}

}  // namespace chase::ml
