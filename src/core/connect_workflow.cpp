#include "core/connect_workflow.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include "redis/redis.hpp"
#include "thredds/server.hpp"
#include "util/rng.hpp"

namespace chase::core {

using kube::PodContext;
using util::Bytes;

namespace {

/// Parse "a:b" into two integers.
std::pair<std::uint64_t, std::uint64_t> parse_pair(const std::string& msg) {
  const auto colon = msg.find(':');
  return {std::stoull(msg.substr(0, colon)), std::stoull(msg.substr(colon + 1))};
}

/// Slab handoff message "bytes:node:first:count"; the trailing "first:count"
/// is the originating URL-list message, kept verbatim for dedup keys.
struct SlabMsg {
  std::uint64_t bytes = 0;
  std::uint64_t node = 0;
  std::string urlmsg;
};

SlabMsg parse_slab(const std::string& msg) {
  const auto c1 = msg.find(':');
  const auto c2 = msg.find(':', c1 + 1);
  return {std::stoull(msg.substr(0, c1)),
          std::stoull(msg.substr(c1 + 1, c2 - c1 - 1)), msg.substr(c2 + 1)};
}

/// Exponential fault-retry backoff, capped.
double backoff_delay(const ConnectWorkflowParams& p, int failures) {
  return std::min(p.retry_backoff_max,
                  p.retry_backoff_base * std::pow(2.0, static_cast<double>(failures)));
}

/// Creates one of the workflow's Jobs in the step's namespace and labels:
/// `pods` completions, all in parallel, each running `container`.
kube::JobPtr step_job(const wf::StepContext* ctx, std::string name, int pods,
                      kube::ContainerSpec container) {
  kube::JobSpec job;
  job.ns = ctx->ns();
  job.name = std::move(name);
  job.labels = ctx->step_labels();
  job.completions = pods;
  job.parallelism = pods;
  job.pod_template.containers.push_back(std::move(container));
  return ctx->kube().create_job(std::move(job)).value;
}

}  // namespace

struct ConnectWorkflow::State {
  Nautilus* bed = nullptr;
  ConnectWorkflowParams params;

  // Scaled workload.
  std::uint64_t files = 0;
  double bytes_per_file = 0;     // payload per fetched file (subset or whole)
  double total_bytes = 0;        // files * bytes_per_file
  double inference_voxels = 0;
  int url_lists = 0;

  // Step-1 coordination.
  sim::EventPtr download_complete = sim::make_event();
  std::vector<std::string> bundle_paths;
  int next_bundle = 0;
  std::uint64_t files_fetched = 0;  // summed from "urls:done" at step end
  int download_retries = 0;         // step-1 fault-path retries (all pods)
  std::uint64_t redis_incarnation = 0;

  // Step-2 checkpoint guard: exactly one trainer persists the model, even
  // when the original writer pod was evicted and replaced.
  bool ckpt_written = false;

  // Step-3 shard dispenser: evicted pods push their shard back so the
  // replacement redoes exactly the lost work.
  std::deque<int> shard_queue;
  int shards_done = 0;
  int shard_retries = 0;
  util::Rng straggler_rng{2027};  // re-seeded from params in the constructor

  double time_scale() const { return params.data_fraction; }
};

ConnectWorkflow::ConnectWorkflow(Nautilus& bed, ConnectWorkflowParams params)
    : bed_(bed), state_(std::make_shared<State>()) {
  state_->bed = &bed_;
  state_->params = std::move(params);
  const ConnectWorkflowParams& p = state_->params;
  state_->straggler_rng = util::Rng(p.straggler_seed);
  const auto* ds = bed_.thredds->dataset(p.dataset);
  const std::uint64_t all_files = ds != nullptr ? ds->file_count : 0;
  state_->files = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(all_files) * p.data_fraction));
  if (ds != nullptr) {
    if (p.variable.empty()) {
      state_->bytes_per_file = static_cast<double>(ds->file_bytes());
    } else {
      state_->bytes_per_file =
          static_cast<double>(ds->subset_bytes(p.variable).value_or(0));
    }
  }
  state_->total_bytes = state_->bytes_per_file * static_cast<double>(state_->files);
  state_->inference_voxels = p.paper.inference_voxels * p.data_fraction;
  state_->url_lists = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(std::max(1, p.url_lists)), state_->files));
  build();
}

const ConnectWorkflowParams& ConnectWorkflow::params() const { return state_->params; }

std::uint64_t ConnectWorkflow::scaled_file_count() const { return state_->files; }
double ConnectWorkflow::scaled_subset_bytes() const { return state_->total_bytes; }
double ConnectWorkflow::scaled_archive_bytes() const {
  const auto* ds = bed_.thredds->dataset(state_->params.dataset);
  return ds == nullptr ? 0.0
                       : static_cast<double>(ds->file_bytes()) *
                             static_cast<double>(state_->files);
}
double ConnectWorkflow::scaled_inference_voxels() const { return state_->inference_voxels; }

std::uint64_t ConnectWorkflow::files_fetched() const { return state_->files_fetched; }

// ---------------------------------------------------------------------------------
// Pod programs (all capture the shared workflow state; closures live in the
// pod specs, which outlive the coroutines).
// ---------------------------------------------------------------------------------

namespace {

/// Repeats one Redis command until its round trip succeeds or the pod is
/// cancelled. After each failure it sleeps backoff_delay(*failures) and
/// raises that exponent, which the caller owns and resets where a run of
/// work ends; a `counted` failure is one of Step 1's retries. *ok, if
/// given, reports whether the last round trip succeeded.
///
/// `cmd(bool* ok)` sends the command and returns its Task. It captures
/// references only: GCC 12 copies a closure argument of a coroutine that is
/// called inside a co_await operand bitwise (DESIGN.md §4, rule 1), and the
/// caller stays suspended until this returns.
template <typename Cmd>
sim::Task until_ok(PodContext& ctx, ConnectWorkflow::State* state, int* failures,
                   Cmd cmd, bool counted = true, bool* ok = nullptr) {
  bool done = false;
  while (!ctx.cancelled()) {
    co_await cmd(&done);
    if (done) break;
    if (counted) state->download_retries += 1;
    co_await ctx.sim().sleep(backoff_delay(state->params, (*failures)++));
  }
  if (ok != nullptr) *ok = done;
}

/// Pops the next message of `queue` under a redelivery lease, backing off
/// while the server is unreachable (Redis pod rescheduling). *got is false
/// when the consumer should exit: the pod was cancelled, or it popped a STOP
/// sentinel, which is acked here.
sim::Task pop_leased(PodContext& ctx, ConnectWorkflow::State* state,
                     redis::RedisClient* client, std::string queue, int* failures,
                     std::string* msg, std::uint64_t* lease, bool* got) {
  *got = false;
  while (!ctx.cancelled()) {
    bool popped = false;
    co_await client->blpop_lease(queue, state->params.queue_lease_ttl, msg, lease,
                                 &popped);
    if (ctx.cancelled()) co_return;
    if (!popped) {
      state->download_retries += 1;
      co_await ctx.sim().sleep(backoff_delay(state->params, (*failures)++));
      continue;
    }
    *failures = 0;
    *got = *msg != "STOP";
    if (!*got) {
      co_await until_ok(
          ctx, state, failures,
          [&](bool* ok) { return client->ack(*lease, nullptr, ok); }, false);
    }
    co_return;
  }
}

/// Coordinator phases 2 and 3: once `<queue>:done` holds every URL list,
/// push one STOP per consumer of `queue`. The `<queue>:stopped` flag keeps a
/// restarted coordinator from pushing them twice.
///
/// The sentinels must not become consumable any earlier: a consumer that
/// dies holding a lease gets its message redelivered only after the ttl,
/// and if the survivors have drained the queue (sentinels included) and
/// exited by then, the redelivery lands where no consumer will ever look
/// and its files are silently lost. Consumers keep popping until they see
/// a sentinel, so holding the sentinels back costs nothing but the wait.
sim::Task stop_consumers(PodContext& ctx, ConnectWorkflow::State* state,
                         redis::RedisClient* client, std::string queue, int consumers) {
  const std::string done_key = queue + ":done";
  const std::string stopped_key = queue + ":stopped";
  const auto lists = static_cast<std::size_t>(state->url_lists);
  const double poll = std::clamp(state->params.queue_lease_ttl / 8.0, 1.0, 30.0);
  int failures = 0;
  while (!ctx.cancelled()) {
    std::size_t done = 0;
    bool answered = false;
    co_await until_ok(
        ctx, state, &failures,
        [&](bool* ok) { return client->scard(done_key, &done, ok); }, true, &answered);
    if (!answered) break;
    failures = 0;
    if (done >= lists) break;
    co_await ctx.sim().sleep(poll);
  }
  std::optional<std::string> stopped;
  co_await until_ok(ctx, state, &failures,
                    [&](bool* ok) { return client->get(stopped_key, &stopped, ok); });
  if (ctx.cancelled() || stopped.has_value()) co_return;
  failures = 0;
  for (int i = 0; i < consumers && !ctx.cancelled(); ++i) {
    co_await until_ok(ctx, state, &failures,
                      [&](bool* ok) { return client->rpush(queue, "STOP", ok); });
    failures = 0;
  }
  co_await until_ok(
      ctx, state, &failures,
      [&](bool* ok) { return client->set(stopped_key, "1", ok); }, false);
}

kube::Program redis_program(std::shared_ptr<ConnectWorkflow::State> state) {
  return [state](PodContext& ctx) -> sim::Task {
    // Each incarnation tags its hosting: an evicted replica notices its
    // cancellation up to one poll period after a replacement already
    // re-hosted the server, and must not clobber the new hosting then.
    const std::uint64_t token = ++state->redis_incarnation;
    state->bed->redis->host_on(ctx.net_node());
    ctx.set_memory_usage(util::gb(8));
    while (!ctx.cancelled()) {
      co_await ctx.sim().sleep(10.0);
    }
    if (state->redis_incarnation == token) state->bed->redis->host_on(-1);
  };
}

kube::Program coordinator_program(std::shared_ptr<ConnectWorkflow::State> state) {
  return [state](PodContext& ctx) -> sim::Task {
    ctx.set_memory_usage(util::gb(9));
    redis::RedisClient client(ctx.sim(), ctx.network(), *state->bed->redis,
                              ctx.net_node());
    ConnectWorkflow::State* st = state.get();
    // Every phase is guarded by a flag key set after it completes, so a
    // restarted coordinator (node lost mid-seed) skips finished phases.
    // Re-seeding a *partially* completed phase can duplicate messages; the
    // workers' "urls:done" set and the mergers' "merge:done" set make those
    // duplicates no-ops.
    int failures = 0;
    std::optional<std::string> seeded;

    // Phase 1: split the archive into URL lists (the queue "holds a list of
    // files that contain urls to download").
    co_await until_ok(ctx, st, &failures,
                      [&](bool* ok) { return client.get("urls:seeded", &seeded, ok); });
    if (ctx.cancelled()) co_return;
    if (!seeded.has_value()) {
      failures = 0;
      const std::uint64_t lists = static_cast<std::uint64_t>(state->url_lists);
      const std::uint64_t per = state->files / lists;
      std::uint64_t assigned = 0;
      for (std::uint64_t i = 0; i < lists && !ctx.cancelled(); ++i) {
        const std::uint64_t count = i + 1 == lists ? state->files - assigned : per;
        const std::string msg =
            std::to_string(assigned) + ":" + std::to_string(count);
        co_await until_ok(ctx, st, &failures,
                          [&](bool* ok) { return client.rpush("urls", msg, ok); });
        failures = 0;
        assigned += count;
      }
      co_await until_ok(
          ctx, st, &failures,
          [&](bool* ok) { return client.set("urls:seeded", "1", ok); }, false);
      if (ctx.cancelled()) co_return;
    }

    // Phase 2: stop the download workers once every list is durably in
    // "urls:done".
    co_await stop_consumers(ctx, st, &client, "urls", state->params.download_workers);
    if (ctx.cancelled()) co_return;

    // Phase 3: once every download worker is done AND every slab is claimed
    // in "merge:done", stop the mergers: a merger dying with a leased slab
    // must find a live consumer when the ttl re-queues it.
    co_await state->download_complete->wait(ctx.sim());
    co_await stop_consumers(ctx, st, &client, "merge", state->params.merge_pods);
  };
}

kube::Program download_worker_program(std::shared_ptr<ConnectWorkflow::State> state) {
  return [state](PodContext& ctx) -> sim::Task {
    const auto& p = state->params;
    ctx.set_memory_usage(util::gb(16));
    ctx.set_cpu_usage(0.4);
    redis::RedisClient client(ctx.sim(), ctx.network(), *state->bed->redis,
                              ctx.net_node());
    thredds::Aria2Client aria(ctx.sim(), *state->bed->thredds, ctx.net_node(),
                              p.aria2_connections);
    ConnectWorkflow::State* st = state.get();
    int failures = 0;
    while (!ctx.cancelled()) {
      // Pop under a redelivery lease: if this pod dies anywhere before the
      // final ack, the list returns to the queue after queue_lease_ttl and
      // another worker redoes it (at-least-once; "urls:done" dedups).
      std::string msg;
      std::uint64_t lease = 0;
      bool got = false;
      co_await pop_leased(ctx, st, &client, "urls", &failures, &msg, &lease, &got);
      if (!got) co_return;
      const auto [first, count] = parse_pair(msg);
      std::vector<std::size_t> files(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        files[i] = static_cast<std::size_t>(first + i);
      }
      ctx.set_cpu_usage(2.5);  // decode + checksum while streaming
      thredds::DownloadStats stats;
      co_await aria.download(p.dataset, std::move(files), p.variable, &stats);
      std::uint64_t slab_bytes = stats.bytes;
      // Refetch only the files that failed (THREDDS link partition, server
      // site down), with exponential backoff between rounds.
      int attempts = 1;
      while (!stats.failed.empty() && attempts < p.download_max_attempts &&
             !ctx.cancelled()) {
        state->download_retries += 1;
        co_await ctx.sim().sleep(backoff_delay(p, attempts - 1));
        std::vector<std::size_t> again = std::move(stats.failed);
        stats = thredds::DownloadStats{};
        co_await aria.download(p.dataset, std::move(again), p.variable, &stats);
        slab_bytes += stats.bytes;
        ++attempts;
      }
      ctx.set_cpu_usage(0.4);
      if (ctx.cancelled()) co_return;
      if (!stats.failed.empty()) {
        // Out of attempts: leave the lease unacked so the ttl redelivers the
        // list later (possibly to a worker with a healthier path).
        state->download_retries += 1;
        continue;
      }
      // Durably mark the list fetched, hand the slab to a merge pod, then
      // ack. Dying between these steps replays the list; "urls:done" and the
      // mergers' "merge:done" dedup make the replay harmless.
      co_await until_ok(ctx, st, &failures, [&](bool* ok) {
        return client.sadd("urls:done", msg, nullptr, ok);
      });
      const std::string slab = std::to_string(slab_bytes) + ":" +
                               std::to_string(ctx.net_node()) + ":" + msg;
      co_await until_ok(ctx, st, &failures,
                        [&](bool* ok) { return client.rpush("merge", slab, ok); });
      co_await until_ok(ctx, st, &failures,
                        [&](bool* ok) { return client.ack(lease, nullptr, ok); });
      failures = 0;
    }
  };
}

kube::Program merger_program(std::shared_ptr<ConnectWorkflow::State> state) {
  return [state](PodContext& ctx) -> sim::Task {
    const auto& p = state->params;
    ctx.set_memory_usage(util::gb(24));
    ctx.set_cpu_usage(0.3);
    redis::RedisClient client(ctx.sim(), ctx.network(), *state->bed->redis,
                              ctx.net_node());
    ConnectWorkflow::State* st = state.get();
    int failures = 0;
    while (!ctx.cancelled()) {
      std::string msg;
      std::uint64_t lease = 0;
      bool got = false;
      co_await pop_leased(ctx, st, &client, "merge", &failures, &msg, &lease, &got);
      if (!got) co_return;
      const SlabMsg slab = parse_slab(msg);
      // Pull the slab from the worker that downloaded it. The worker's
      // machine may be gone (it died after handing off the slab message);
      // after bounded pull retries, refetch the list from THREDDS directly —
      // the data must come from somewhere, and the download workers may have
      // already exited.
      bool have_slab = false;
      for (int attempt = 0; attempt < p.download_max_attempts && !ctx.cancelled();
           ++attempt) {
        auto handle = ctx.network().transfer(static_cast<net::NodeId>(slab.node),
                                             ctx.net_node(), slab.bytes);
        co_await handle->done->wait(ctx.sim());
        if (!handle->failed) {
          have_slab = true;
          break;
        }
        state->download_retries += 1;
        co_await ctx.sim().sleep(backoff_delay(p, attempt));
      }
      if (!have_slab && !ctx.cancelled()) {
        const auto [first, count] = parse_pair(slab.urlmsg);
        thredds::Aria2Client aria(ctx.sim(), *state->bed->thredds, ctx.net_node(),
                                  p.aria2_connections);
        std::vector<std::size_t> want(count);
        for (std::uint64_t i = 0; i < count; ++i) {
          want[i] = static_cast<std::size_t>(first + i);
        }
        int rounds = 0;
        while (!want.empty() && !ctx.cancelled()) {
          thredds::DownloadStats stats;
          co_await aria.download(p.dataset, std::move(want), p.variable, &stats);
          want = std::move(stats.failed);
          if (!want.empty()) {
            state->download_retries += 1;
            co_await ctx.sim().sleep(backoff_delay(p, rounds++));
          }
        }
      }
      if (ctx.cancelled()) co_return;  // lease ttl redelivers the slab
      // Claim the slab (atomic test-and-set): a slab can be queued twice
      // when its worker died between marking "urls:done" and acking.
      bool added = false;
      co_await until_ok(ctx, st, &failures, [&](bool* ok) {
        return client.sadd("merge:done", slab.urlmsg, &added, ok);
      });
      if (ctx.cancelled()) co_return;
      if (!added) {  // duplicate: already merged (or being merged) elsewhere
        co_await until_ok(
            ctx, st, &failures,
            [&](bool* ok) { return client.ack(lease, nullptr, ok); }, false);
        continue;
      }
      // Merge the small NetCDF files into one HDF bundle (CPU bound).
      co_await ctx.compute(
          static_cast<double>(slab.bytes) / p.merge_bytes_per_cpu_second, 5.0);
      if (ctx.cancelled()) co_return;
      // Transfer the bundle to the Ceph Object Store.
      const std::string path = "/merra2/bundle-" + std::to_string(state->next_bundle++);
      co_await state->bed->fs->write_file(ctx.net_node(), path, slab.bytes);
      state->bundle_paths.push_back(path);
      co_await until_ok(ctx, st, &failures,
                        [&](bool* ok) { return client.ack(lease, nullptr, ok); });
    }
  };
}

kube::Program prep_program(std::shared_ptr<ConnectWorkflow::State> state) {
  return [state](PodContext& ctx) -> sim::Task {
    const auto& p = state->params;
    const double share = state->total_bytes / p.prep_workers;
    // Read a shard of the archive from Ceph, convert to protobuf, write the
    // serialized shard back for the trainer.
    if (!state->bundle_paths.empty()) {
      co_await state->bed->fs->read_file(ctx.net_node(), state->bundle_paths[0]);
    }
    // Same single-core conversion rate as the serial phase; the speedup
    // comes purely from sharding across Job workers.
    co_await ctx.compute(share / p.prep_bytes_per_second, 1.0);
    co_await state->bed->fs->write_file(ctx.net_node(),
                                        "/protobuf/shard-" + ctx.pod().meta.name,
                                        static_cast<Bytes>(share * 0.8));
  };
}

kube::Program trainer_program(std::shared_ptr<ConnectWorkflow::State> state) {
  return [state](PodContext& ctx) -> sim::Task {
    const auto& p = state->params;
    ctx.set_memory_usage(static_cast<Bytes>(14.8e9));
    // Load the training window (30 days, 381 MB) from Ceph.
    if (!state->bundle_paths.empty()) {
      co_await state->bed->fs->read_file(ctx.net_node(), state->bundle_paths[0]);
    }
    // Serial protobuf preparation phase (Fig. 5, purple) — skipped when the
    // distributed prep job already ran.
    if (p.prep_workers <= 1) {
      const double prep_seconds = state->total_bytes / p.prep_bytes_per_second * 1.0;
      co_await ctx.compute(prep_seconds, 1.0);
    }
    // FFN training (Fig. 5, green).
    co_await ctx.gpu_compute(
        p.cost.training_seconds(cluster::GpuModel::GTX1080Ti, 1) * state->time_scale());
    // Persist the trained model + parameters to the Ceph Object Store. First
    // finisher writes; a name-based gate would lose the checkpoint whenever
    // the designated pod is evicted and replaced.
    if (!ctx.cancelled() && !state->ckpt_written) {
      state->ckpt_written = true;
      co_await state->bed->fs->write_file(ctx.net_node(), "/models/ffn-ckpt",
                                          util::mb(100));
    }
  };
}

kube::Program inference_program(std::shared_ptr<ConnectWorkflow::State> state) {
  return [state](PodContext& ctx) -> sim::Task {
    const auto& p = state->params;
    ctx.set_memory_usage(util::gb(12));
    const int total = std::max(1, p.inference_gpus);
    while (!ctx.cancelled()) {
      if (state->shard_queue.empty()) {
        // Every shard is claimed. Either all are done (this replacement pod
        // has nothing to redo) or a claimant may still be evicted and return
        // its shard; park and re-check.
        if (state->shards_done >= total) co_return;
        co_await ctx.sim().sleep(5.0);
        continue;
      }
      const int shard = state->shard_queue.front();
      state->shard_queue.pop_front();
      // An eviction mid-shard returns the shard so the replacement pod redoes
      // exactly the lost work; the result write is idempotent (fixed path
      // per shard), so a partial redo never double-counts.
      auto requeue = [state, shard] {
        state->shard_queue.push_front(shard);
        state->shard_retries += 1;
      };
      // Load the trained model from the Ceph Object Store.
      if (state->bed->fs->exists("/models/ffn-ckpt")) {
        co_await state->bed->fs->read_file(ctx.net_node(), "/models/ffn-ckpt");
        if (ctx.cancelled()) { requeue(); co_return; }
      }
      // Read this shard's slice of the archive (the 246 GB is evenly
      // distributed across the GPUs).
      for (std::size_t b = static_cast<std::size_t>(shard);
           b < state->bundle_paths.size(); b += static_cast<std::size_t>(total)) {
        co_await state->bed->fs->read_file(ctx.net_node(), state->bundle_paths[b]);
        if (ctx.cancelled()) { requeue(); co_return; }
      }
      // FFN flood-fill inference over the shard's voxels.
      const double voxels = state->inference_voxels / total;
      const double jitter = 1.0 + state->straggler_rng.uniform(0.0, p.straggler_jitter);
      co_await ctx.gpu_compute(
          p.cost.inference_seconds(voxels, cluster::GpuModel::GTX1080Ti, 1) * jitter);
      if (ctx.cancelled()) { requeue(); co_return; }
      // Store segmentation results.
      const double result_bytes = p.paper.viz_bytes / total;
      co_await state->bed->fs->write_file(ctx.net_node(),
                                          "/results/shard-" + std::to_string(shard),
                                          static_cast<Bytes>(result_bytes));
      if (ctx.cancelled()) { requeue(); co_return; }
      state->shards_done += 1;
      co_return;  // one shard per pod: completions == inference_gpus
    }
  };
}

kube::Program viz_program(std::shared_ptr<ConnectWorkflow::State> state) {
  return [state](PodContext& ctx) -> sim::Task {
    ctx.set_memory_usage(util::gb(12));
    // Mount the Ceph Object Store and load the most recent results.
    for (const auto& path : state->bed->fs->list("/results/")) {
      co_await state->bed->fs->read_file(ctx.net_node(), path);
    }
    // Plot segmented objects and compute object statistics.
    co_await ctx.compute(state->params.viz_render_seconds, 1.0);
    ctx.set_gpu_usage(1);
    co_await ctx.gpu_compute(30.0);
  };
}

}  // namespace

void ConnectWorkflow::build() {
  const ConnectWorkflowParams& params = state_->params;
  workflow_ = std::make_unique<wf::Workflow>(*bed_.kube, bed_.metrics, params.ns,
                                             "CONNECT workflow");
  bed_.kube->create_namespace(params.ns);
  auto state = state_;
  Nautilus* bed = &bed_;
  auto step_enabled = [&params](int n) {
    return std::find(params.steps.begin(), params.steps.end(), n) != params.steps.end();
  };

  // ------------------------------------------------------------------ step 1
  if (step_enabled(1)) workflow_->add_step(wf::StepSpec{
      "Step 1: THREDDS download", "1",
      [state, bed](wf::StepContext* ctx) -> sim::Task {
        auto& kube = ctx->kube();
        const auto& p = state->params;

        // Redis service pod (ReplicaSet so it self-heals).
        kube::ReplicaSetSpec redis_rs;
        redis_rs.ns = ctx->ns();
        redis_rs.name = "redis";
        redis_rs.replicas = 1;
        redis_rs.labels = ctx->step_labels();
        redis_rs.labels["app"] = "redis";
        redis_rs.pod_template.containers.push_back(
            {.name = "redis", .image = "library/redis", .requests = {1, util::gb(8), 0},
             .program = redis_program(state)});
        kube.create_replica_set(redis_rs);
        kube.create_service({ctx->ns(), "redis", {{"app", "redis"}}});

        // Wait for Redis to come up.
        while (!kube.resolve_service(ctx->ns(), "redis").has_value()) {
          co_await ctx->sim().sleep(1.0);
        }

        // Coordinator: fills the URL-list queue, later pushes sentinels.
        auto coord_job = step_job(ctx, "coordinator", 1,
                                  {.name = "coordinator", .image = "chase/connect-coordinator",
                                   .requests = {1, util::gb(9), 0},
                                   .program = coordinator_program(state)});
        // Merge pods: combine small NetCDF files into HDF bundles in Ceph.
        auto merge_job = step_job(ctx, "merge", p.merge_pods,
                                  {.name = "merger", .image = "chase/connect-merge",
                                   .requests = {5, util::gb(24), 0},
                                   .program = merger_program(state)});
        // Download workers.
        auto download_job = step_job(ctx, "download", p.download_workers,
                                     {.name = "worker", .image = "chase/connect-download",
                                      .requests = {3, util::gb(16), 0},
                                      .program = download_worker_program(state)});

        co_await download_job->done->wait(ctx->sim());
        state->download_complete->trigger(ctx->sim());
        co_await merge_job->done->wait(ctx->sim());
        co_await coord_job->done->wait(ctx->sim());

        // Byte conservation: sum the durably-downloaded URL lists ("urls:done"
        // is marked exactly once per list, faults or not).
        std::uint64_t fetched = 0;
        for (const auto& member : bed->redis->smembers("urls:done")) {
          fetched += parse_pair(member).second;
        }
        state->files_fetched = fetched;
        kube.delete_replica_set(ctx->ns(), "redis");

        ctx->add_retries(state->download_retries);
        ctx->add_data(state->total_bytes);
      }});

  // ------------------------------------------------------------------ step 2
  if (step_enabled(2)) workflow_->add_step(wf::StepSpec{
      "Step 2: model training", "2",
      [state](wf::StepContext* ctx) -> sim::Task {
        const auto& p = state->params;
        // Optional distributed pre-processing (paper §III-E1): K workers
        // convert NetCDF to protobuf in parallel before training starts.
        if (p.prep_workers > 1) {
          auto prep_job = step_job(ctx, "prep", p.prep_workers,
                                   {.name = "prep", .image = "chase/connect-prep",
                                    .requests = {2, util::gb(8), 0},
                                    .program = prep_program(state)});
          co_await prep_job->done->wait(ctx->sim());
        }
        // Trainer pod: one 1080ti (Table I).
        auto train_job = step_job(ctx, "train", 1,
                                  {.name = "trainer", .image = "tensorflow/ffn",
                                   .image_size = util::gb(2),
                                   .requests = {1, static_cast<Bytes>(14.8e9), 1},
                                   .program = trainer_program(state)});
        co_await train_job->done->wait(ctx->sim());
        ctx->add_data(p.paper.training_volume_bytes);
      }});

  // ------------------------------------------------------------------ step 3
  if (step_enabled(3)) workflow_->add_step(wf::StepSpec{
      "Step 3: model inference", "3",
      [state](wf::StepContext* ctx) -> sim::Task {
        const auto& p = state->params;
        state->shard_queue.clear();
        for (int s = 0; s < std::max(1, p.inference_gpus); ++s) {
          state->shard_queue.push_back(s);
        }
        state->shards_done = 0;
        state->shard_retries = 0;
        auto infer_job = step_job(ctx, "inference", p.inference_gpus,
                                  {.name = "inference", .image = "tensorflow/ffn",
                                   .image_size = util::gb(2), .requests = {1, util::gb(12), 1},
                                   .program = inference_program(state)});
        co_await infer_job->done->wait(ctx->sim());
        ctx->add_retries(state->shard_retries);
        ctx->add_data(state->total_bytes);
      }});

  // ------------------------------------------------------------------ step 4
  if (step_enabled(4)) workflow_->add_step(wf::StepSpec{
      "Step 4: JupyterLab visualization", "4",
      [state](wf::StepContext* ctx) -> sim::Task {
        auto viz_job = step_job(ctx, "jupyterlab", 1,
                                {.name = "jupyterlab", .image = "jupyter/datascience",
                                 .image_size = util::gb(3), .requests = {1, util::gb(12), 1},
                                 .program = viz_program(state)});
        co_await viz_job->done->wait(ctx->sim());
        ctx->add_data(state->params.paper.viz_bytes);
      }});
}

}  // namespace chase::core
