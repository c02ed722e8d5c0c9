/// \file ffn.cpp
/// Workload `ffn`: one thread of real Flood-Filling Network work on seeded
/// synthetic IVT volumes, in ablation A8's shape. A round builds the inputs
/// and a fresh model, trains it for a fixed number of steps from public
/// calls (the seeded FOV example, forward, logistic loss, backward, apply
/// gradients), then runs flood-fill inference and CONNECT on a held-out
/// volume. One op is one training step; inference counts as one more op of
/// its round. Each round draws its volumes from (seed, round), so a run's
/// medians span many volumes: `backward` skips zero gradients, which makes
/// a step's cost depend on the data it sees.

#include "checks.hpp"
#include "ml/connect.hpp"
#include "ml/disttrain.hpp"
#include "ml/eval.hpp"
#include "ml/ffn.hpp"
#include "ml/ffn_infer.hpp"
#include "ml/synth.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace chasebench {

namespace {

namespace ml = chase::ml;
using chase::util::hash_combine;

struct FfnPlan {
  ml::IvtFieldParams train, test;
  ml::FfnConfig model;
  ml::InferenceOptions infer;
  ml::ConnectParams connect;
  int steps = 600;
  FfnFloors floors;
  std::uint64_t seed = 0;  // example stream
};

FfnPlan plan_for(const RunConfig& c, std::uint64_t seed) {
  FfnPlan p;
  // A8: train on one 96x64x32 volume, evaluate on a held-out one.
  p.train.nx = 96;
  p.train.ny = 64;
  p.train.nt = 32;
  p.train.events = 5;
  p.model.channels = 6;
  p.model.modules = 1;
  p.model.fov = 7;
  p.infer.seed_threshold = 300.f;
  p.infer.move_threshold = 0.7f;
  p.infer.segment_threshold = 0.5f;
  p.connect.min_voxels = 16;
  if (c.reduced) {
    p.train.nx = 48;
    p.train.ny = 32;
    p.train.nt = 16;
    p.train.events = 3;
    p.steps = 80;
    p.floors = {0.7, 0.05};
  }
  p.seed = seed;
  p.train.seed = hash_combine(seed, 1);
  p.test = p.train;
  p.test.seed = hash_combine(seed, 2);
  p.connect.threshold = p.test.label_threshold;
  return p;
}

struct RoundResult {
  std::vector<double> step_s;
  std::vector<float> losses;
  double final_loss = 0.0;
  double iou = 0.0;
  double infer_s = 0.0;
  std::uint64_t fov_moves = 0;
  double connect_s = 0.0;
  double voxels = 0.0;
};

/// Span and its wall time, in ms, pushed into `sink` when traced.
class Timed {
 public:
  Timed(Tracer* tracer, const char* name, std::uint64_t op, std::vector<double>* sink)
      : scope_(tracer, name, op), sink_(tracer != nullptr ? sink : nullptr),
        start_(Clock::now()) {}
  ~Timed() {
    if (sink_ != nullptr) sink_->push_back(seconds_between(start_, Clock::now()) * 1e3);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer::Scope scope_;
  std::vector<double>* sink_;
  Clock::time_point start_;
};

RoundResult run_round(const FfnPlan& plan, Tracer* tracer,
                      std::uint64_t op, LayerStats& stats, double& setup_s) {
  RoundResult out;
  const auto s0 = Clock::now();
  std::unique_ptr<ml::ShardedIvtDataset> dataset;
  ml::IvtField test;
  std::unique_ptr<ml::FfnModel> model;
  {
    Tracer::Scope setup(tracer, "setup", op);
    dataset = std::make_unique<ml::ShardedIvtDataset>(plan.train, 1, plan.model, plan.seed,
                                                      plan.infer.input_mean,
                                                      plan.infer.input_scale);
    test = ml::generate_ivt(plan.test);
    model = std::make_unique<ml::FfnModel>(plan.model);
  }
  setup_s = seconds_between(s0, Clock::now());

  ml::FfnModel::Gradients grads = model->make_gradients();
  // SGD with momentum 0.9 as in A8, at half A8's learning rate: at 0.02
  // about one volume in 300 kills the network (loss stuck near ln 2); 0.01
  // trained every one of the 400 volumes tried.
  ml::FfnModel::OptimizerConfig optimizer;
  optimizer.learning_rate = 0.01f;
  ml::Tensor4 input, logits, dlogits;
  ml::Volume<std::uint8_t> target;
  ml::FfnModel::Workspace ws;
  out.step_s.reserve(static_cast<std::size_t>(plan.steps));
  out.losses.reserve(static_cast<std::size_t>(plan.steps));
  for (int step = 0; step < plan.steps; ++step) {
    const auto t0 = Clock::now();
    float loss = 0.f;
    {
      Tracer::Scope train(tracer, "ml.train_step", op);
      {
        Timed t(tracer, "ml.example", op, &stats.example_ms);
        dataset->example(0, step, input, target);
      }
      {
        Timed t(tracer, "ml.forward", op, &stats.forward_ms);
        model->forward(input, logits, &ws);
      }
      {
        Timed t(tracer, "ml.loss", op, &stats.loss_ms);
        loss = ml::FfnModel::logistic_loss(logits, target, dlogits);
      }
      {
        Timed t(tracer, "ml.backward", op, &stats.backward_ms);
        grads.reset();
        model->backward(input, dlogits, ws, grads);
      }
      {
        Timed t(tracer, "ml.optimizer", op, &stats.optimizer_ms);
        model->apply_gradients(grads, optimizer);
      }
    }
    out.step_s.push_back(seconds_between(t0, Clock::now()));
    out.losses.push_back(loss);
  }
  // Final loss: mean of the last 10% of steps (FfnTrainer::train's rule).
  const std::size_t tail = std::max<std::size_t>(1, out.losses.size() / 10);
  double acc = 0.0;
  for (std::size_t i = out.losses.size() - tail; i < out.losses.size(); ++i) acc += out.losses[i];
  out.final_loss = acc / static_cast<double>(tail);

  {
    Tracer::Scope infer(tracer, "ml.infer", op);
    const auto t0 = Clock::now();
    const ml::InferenceResult res = ml::ffn_inference(*model, test.ivt, plan.infer);
    out.infer_s = seconds_between(t0, Clock::now());
    out.fov_moves = res.fov_moves;
    out.iou = ml::voxel_metrics(res.segments, test.truth).iou();
  }
  {
    Tracer::Scope connect(tracer, "ml.connect_label", op);
    const auto t0 = Clock::now();
    const ml::ConnectResult res = ml::connect_label(test.ivt, plan.connect);
    out.connect_s = seconds_between(t0, Clock::now());
  }
  out.voxels = static_cast<double>(test.ivt.size());
  return out;
}

}  // namespace

RunResult run_ffn(const RunConfig& c) {
  RunResult r;
  const FfnPlan plan = plan_for(c, c.seed);  // the shared shape and floors
  std::vector<double> setup_s, step_s, step_rates, traced_step_s, train_rates, infer_vps;
  RoundResult first;
  Tracer tracer;
  LayerStats stats;

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(c.seconds);
  const std::uint64_t min_rounds = c.trace ? 2 : 1;
  for (std::uint64_t round = 0; round < min_rounds || Clock::now() < deadline; ++round) {
    const bool traced = c.trace && round % 2 == 1;
    Tracer* tr = traced ? &tracer : nullptr;
    double round_setup_s = 0.0;
    RoundResult res;
    {
      Tracer::Scope op_span(tr, "bench.op", round);
      res = run_round(plan_for(c, chase::util::hash_combine(c.seed, round)), tr, round,
                      stats, round_setup_s);
    }
    setup_s.push_back(round_setup_s);
    if (traced) {
      traced_step_s.insert(traced_step_s.end(), res.step_s.begin(), res.step_s.end());
      stats.infer_s = res.infer_s;
      stats.infer_fov_moves = static_cast<double>(res.fov_moves);
      stats.connect_label_ms = res.connect_s * 1e3;
    } else {
      step_s.insert(step_s.end(), res.step_s.begin(), res.step_s.end());
      for (double s : res.step_s) step_rates.push_back(1.0 / s);
      train_rates.push_back(static_cast<double>(res.step_s.size()) / sum(res.step_s));
      infer_vps.push_back(res.voxels / std::max(res.infer_s, 1e-12));
    }

    if (round == 0) first = res;
    r.record_ops(res.step_s.size() + 1, check_ffn({res.final_loss, res.iou}, plan.floors));
  }
  const double wall_s = seconds_between(start, Clock::now());

  add_common_metrics(r, setup_s, step_s, step_rates, wall_s);
  r.add("train_examples_per_s", median(train_rates), "1/s");
  r.add("train_step_s.p50", percentile(step_s, 0.5), "s");
  r.add("train_step_s.p90", percentile(step_s, 0.9), "s");
  r.add("infer_voxels_per_s", median(infer_vps), "1/s");
  r.add("final_loss", first.final_loss, "loss");
  r.add("iou", first.iou, "ratio");
  if (c.trace) {
    const ml::FfnModel model(plan.model);
    const double fwd_s = percentile(stats.forward_ms, 0.5) * 1e-3;
    stats.forward_gflops = fwd_s > 0.0 ? 2.0 * model.forward_macs() / fwd_s * 1e-9 : 0.0;
    add_layer_metrics(r, stats, tracer, step_s, traced_step_s);
    r.self_time_table = tracer.self_time_table();
    if (!c.trace_path.empty()) tracer.write_json(c.trace_path);
  }
  return r;
}

}  // namespace chasebench
