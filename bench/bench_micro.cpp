/// \file bench_micro.cpp
/// google-benchmark microbenchmarks for the hot paths of every substrate:
/// CRUSH placement, scheduler passes, Redis ops, union-find connected
/// components, and the FFN conv3d kernel. These guard the performance
/// envelope that makes the paper-scale simulations (112k transfers, 2.3e10
/// voxels) run in seconds. DES dispatch and the max-min fill have no case
/// here: bench_core_throughput's rungs measure them end to end.

#include <benchmark/benchmark.h>

#include "ceph/ceph.hpp"
#include "kube/cluster.hpp"
#include "ml/connect.hpp"
#include "ml/ffn.hpp"
#include "ml/synth.hpp"
#include "net/network.hpp"
#include "redis/redis.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

using namespace chase;

static void BM_CrushPlacement(benchmark::State& state) {
  sim::Simulation simulation;
  net::Network network(simulation);
  cluster::Inventory inventory(network);
  ceph::CephCluster::Options opts;
  opts.pg_count = 1;  // pools remapped manually below
  ceph::CephCluster ceph_cluster(simulation, network, inventory, nullptr, opts);
  for (int i = 0; i < 24; ++i) {
    auto nn = network.add_node("s" + std::to_string(i));
    auto mid = inventory.add(cluster::storage_fiona("s" + std::to_string(i), "X",
                                                    util::tb(100)),
                             nn);
    ceph_cluster.add_osd(mid);
  }
  ceph_cluster.create_pool("p");
  int pg = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceph_cluster.pg_of("p", "obj" + std::to_string(pg++)));
    benchmark::DoNotOptimize(ceph_cluster.acting_set("p", 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrushPlacement);

static void BM_SchedulerPass(benchmark::State& state) {
  const int pods = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation simulation;
    net::Network network(simulation);
    cluster::Inventory inventory(network);
    kube::KubeCluster kube_cluster(simulation, network, inventory, nullptr);
    auto sw = network.add_node("sw");
    for (int i = 0; i < 16; ++i) {
      auto nn = network.add_node("n" + std::to_string(i));
      network.add_link(nn, sw, 1e9, 0);
      kube_cluster.register_node(
          inventory.add(cluster::fiona8("n" + std::to_string(i), "X"), nn));
    }
    kube::PodSpec spec;
    kube::ContainerSpec c;
    c.requests = {1, util::gb(1), 0};
    c.program = [](kube::PodContext& ctx) -> sim::Task {
      co_await ctx.sim().sleep(1.0);
    };
    spec.containers.push_back(std::move(c));
    state.ResumeTiming();
    for (int i = 0; i < pods; ++i) {
      kube_cluster.create_pod("default", "p" + std::to_string(i), spec);
    }
    simulation.run();
  }
  state.SetItemsProcessed(state.iterations() * pods);
}
BENCHMARK(BM_SchedulerPass)->Arg(64)->Arg(256);

static void BM_RedisOps(benchmark::State& state) {
  sim::Simulation simulation;
  redis::RedisServer server(simulation);
  std::uint64_t i = 0;
  for (auto _ : state) {
    server.rpush("q", std::to_string(i++));
    benchmark::DoNotOptimize(server.lpop("q"));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_RedisOps);

static void BM_ConnectLabel(benchmark::State& state) {
  ml::IvtFieldParams p;
  p.nx = 96;
  p.ny = 64;
  p.nt = static_cast<int>(state.range(0));
  p.events = 6;
  auto field = ml::generate_ivt(p);
  ml::ConnectParams cp;
  for (auto _ : state) {
    auto result = ml::connect_label(field.ivt, cp);
    benchmark::DoNotOptimize(result.objects.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(field.ivt.size()));
}
BENCHMARK(BM_ConnectLabel)->Arg(16)->Arg(48);

static void BM_FfnForward(benchmark::State& state) {
  ml::FfnConfig cfg;
  cfg.channels = static_cast<int>(state.range(0));
  cfg.modules = 2;
  cfg.fov = 9;
  ml::FfnModel model(cfg);
  ml::Tensor4 input(2, cfg.fov, cfg.fov, cfg.fov, 0.2f);
  ml::Tensor4 logits;
  for (auto _ : state) {
    model.forward(input, logits);
    benchmark::DoNotOptimize(logits.data());
  }
  state.counters["MFLOP/s"] = benchmark::Counter(
      2.0 * model.forward_macs() * static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FfnForward)->Arg(4)->Arg(8)->Arg(16);

static void BM_FfnTrainStep(benchmark::State& state) {
  ml::IvtFieldParams p;
  p.nx = 48;
  p.ny = 32;
  p.nt = 16;
  auto field = ml::generate_ivt(p);
  ml::FfnConfig cfg;
  cfg.channels = 8;
  cfg.modules = 2;
  cfg.fov = 9;
  ml::FfnModel model(cfg);
  ml::FfnTrainer::Options opts;
  opts.steps = 1;
  ml::FfnTrainer trainer(model, field.ivt, field.truth, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FfnTrainStep);

static void BM_SynthGeneration(benchmark::State& state) {
  ml::IvtFieldParams p;
  p.nx = 96;
  p.ny = 64;
  p.nt = 24;
  for (auto _ : state) {
    p.seed++;
    auto field = ml::generate_ivt(p);
    benchmark::DoNotOptimize(field.ivt.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(96 * 64 * 24));
}
BENCHMARK(BM_SynthGeneration);

BENCHMARK_MAIN();
