/// \file federation.cpp
/// Workload `federation`: 4 sites x 512 FIONA8 nodes, one KubeCluster per
/// site behind a FederationController, every image pulled across the WAN
/// from a site-0 registry (bench_core_throughput's `federation` rung). On
/// top run `fedchurn`'s faults: seeded drain/uncordon waves on every site, a
/// 25% node-crash wave on site 1 and a full partition of the last site. One
/// op is one round: a fresh federation places and runs a seeded stream of
/// 64 jobs x 200 pods to completion while the faults force rescheduling;
/// a run covers the rung's 1e5-pod volume every eight rounds. Each round
/// draws its jobs and faults from (seed, round).

#include <cmath>
#include <deque>
#include <memory>

#include "chaos/chaos.hpp"
#include "checks.hpp"
#include "cluster/machine.hpp"
#include "kube/cluster.hpp"
#include "kube/federation.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace chasebench {

namespace {

namespace ck = chase::kube;
namespace cc = chase::cluster;
namespace ch = chase::chaos;
using chase::net::NodeId;

struct FedShape {
  int sites = 4;
  int nodes_per_site = 512;
  int jobs = 64;
  int completions = 200;  // pods per job
  int parallelism = 8;
  int drains = 64;
  double crash_fraction = 0.25;
};

struct Drain {
  int site = 0;
  cc::MachineId victim = -1;
  double at = 0.0, heal = 0.0;
};

/// Everything one round needs. Members are destroyed in reverse order, so
/// the injector and clusters go before the network and the simulation.
struct Federation {
  std::unique_ptr<chase::sim::Simulation> sim;
  std::unique_ptr<chase::net::Network> net;
  std::unique_ptr<cc::Inventory> inventory;
  std::vector<std::unique_ptr<ck::KubeCluster>> clusters;
  std::unique_ptr<ck::FederationController> fed;
  std::vector<ck::JobSpec> jobs;
  std::vector<std::string> datasets;  // per job
  std::unique_ptr<ch::ChaosInjector> injector;
  std::vector<Drain> drains;
  int expected_crashes = 0;
};

Federation build(const FedShape& shape, std::uint64_t seed) {
  Federation f;
  f.sim = std::make_unique<chase::sim::Simulation>();
  f.net = std::make_unique<chase::net::Network>(*f.sim);
  f.inventory = std::make_unique<cc::Inventory>(*f.net);
  std::vector<NodeId> cores;
  for (int s = 0; s < shape.sites; ++s) {
    const std::string site = "site-" + std::to_string(s);
    cores.push_back(f.net->add_node(site + "-core", s));
    for (int i = 0; i < shape.nodes_per_site; ++i) {
      const std::string name = site + "-n" + std::to_string(i);
      const NodeId leaf = f.net->add_node(name, s);
      f.net->add_link(leaf, cores.back(), chase::util::gbit_per_s(10.0), 0.5e-3);
      f.inventory->add(cc::fiona8(name, site), leaf);
    }
  }
  for (int a = 0; a < shape.sites; ++a) {
    for (int b = a + 1; b < shape.sites; ++b) {
      f.net->add_link(cores[static_cast<std::size_t>(a)], cores[static_cast<std::size_t>(b)],
                      chase::util::gbit_per_s(100.0), 30e-3);
    }
  }
  ck::KubeCluster::Options opt;
  opt.registry_node = cores[0];
  f.fed = std::make_unique<ck::FederationController>();
  for (int s = 0; s < shape.sites; ++s) {
    const std::string site = "site-" + std::to_string(s);
    f.clusters.push_back(
        std::make_unique<ck::KubeCluster>(*f.sim, *f.net, *f.inventory, nullptr, opt));
    for (cc::MachineId m : f.inventory->at_site(site)) f.clusters.back()->register_node(m);
    f.fed->add_site(site, *f.clusters.back(), {"ds-" + std::to_string(s)});
  }

  // GPU jobs, each biased to a home dataset so placement mixes locality
  // hits with headroom picks.
  chase::util::Rng rng(chase::util::hash_combine(seed, 0xFEDu));
  for (int j = 0; j < shape.jobs; ++j) {
    ck::JobSpec job;
    job.ns = "default";
    job.name = "fedjob-" + std::to_string(j);
    ck::ContainerSpec c;
    c.requests = {2.0, chase::util::gb(2.0), 1};
    const double run_s = rng.uniform(0.5, 2.0);
    c.program = [run_s](ck::PodContext& ctx) -> chase::sim::Task {
      co_await ctx.sim().sleep(run_s);
    };
    job.pod_template.containers.push_back(std::move(c));
    job.completions = shape.completions;
    job.parallelism = shape.parallelism;
    job.backoff_limit = 1 << 20;  // disruptions don't count; real failures none
    f.jobs.push_back(std::move(job));
    f.datasets.push_back("ds-" + std::to_string(j % shape.sites));
  }

  const auto crash_pool = f.inventory->at_site("site-1");
  f.expected_crashes =
      static_cast<int>(std::ceil(shape.crash_fraction * static_cast<double>(crash_pool.size())));
  ch::ChaosPlan plan(seed);
  plan.crash_fraction(/*at=*/30.0, crash_pool, shape.crash_fraction, /*down_for=*/60.0);
  plan.partition_site(/*at=*/60.0, /*site=*/shape.sites - 1, /*down_for=*/45.0);
  f.injector = std::make_unique<ch::ChaosInjector>(*f.sim, *f.net, *f.inventory, plan);

  chase::util::Rng drains(chase::util::hash_combine(seed, 0xD7A1Du));
  for (int k = 0; k < shape.drains; ++k) {
    Drain d;
    d.site = static_cast<int>(drains.uniform_u64(static_cast<std::uint64_t>(shape.sites)));
    const auto pool = f.inventory->at_site("site-" + std::to_string(d.site));
    d.victim = pool[drains.uniform_u64(pool.size())];
    d.at = drains.uniform(10.0, 90.0);
    d.heal = drains.uniform(5.0, 15.0);
    f.drains.push_back(d);
  }
  return f;
}

/// Observations of one round. In a traced round the simulation's trace hook
/// names each event's layer from what changed while it ran.
struct RoundWatch {
  int drains = 0;
  int crash_victims = 0;
  int site_partitions = 0;
  bool chaos_ran = false;
  bool bench_ran = false;
  std::vector<PodWatch> pods;                 // per cluster
  std::vector<std::deque<ck::PodPtr>> unbound;  // per cluster, creation order
};

}  // namespace

RunResult run_federation(const RunConfig& c) {
  RunResult r;
  FedShape shape;
  if (c.reduced) {
    shape.nodes_per_site = 32;
    shape.jobs = 8;
    shape.completions = 12;
    shape.drains = 8;
  }
  std::vector<double> setup_s, op_s, traced_op_s;
  std::vector<double> events_per_s, sim_per_wall;
  Tracer tracer;
  LayerStats stats;

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(c.seconds);
  const std::uint64_t min_ops = c.trace ? 2 : 1;
  for (std::uint64_t op = 0; op < min_ops || Clock::now() < deadline; ++op) {
    const bool traced = c.trace && op % 2 == 1;
    Tracer* tr = traced ? &tracer : nullptr;
    Tracer::Scope op_span(tr, "bench.op", op);
    const auto s0 = Clock::now();
    Federation f;
    {
      Tracer::Scope setup(tr, "setup", op);
      f = build(shape, chase::util::hash_combine(c.seed, op));
    }
    const auto s1 = Clock::now();

    auto watch = std::make_shared<RoundWatch>();
    watch->pods.resize(f.clusters.size());
    watch->unbound.resize(f.clusters.size());
    f.injector->set_fault_hook([watch](ch::FaultKind kind, double, int victims) {
      watch->chaos_ran = true;
      if (kind == ch::FaultKind::NodeCrash) watch->crash_victims += victims;
      if (kind == ch::FaultKind::SitePartition) ++watch->site_partitions;
    });
    if (traced) {
      for (std::size_t s = 0; s < f.clusters.size(); ++s) {
        f.clusters[s]->watch_pods([watch, s](const ck::PodPtr& pod) {
          watch->pods[s].observe(*pod);
          if (pod->phase == ck::PodPhase::Pending && pod->node < 0) {
            watch->unbound[s].push_back(pod);
          }
        });
      }
    }

    // Submit the job stream, arm the faults, schedule the drain waves.
    std::vector<ck::JobPtr> jobs;
    Problems problems;
    for (std::size_t j = 0; j < f.jobs.size(); ++j) {
      const auto t0 = Clock::now();
      ck::Result<ck::JobPtr> res;
      {
        Tracer::Scope span(tr, "kube.submit", op);
        res = f.fed->submit_job(std::move(f.jobs[j]), f.datasets[j]);
      }
      if (traced) stats.submit_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      if (!res.ok()) {
        problems.push_back("federation: submit failed: " + res.error);
      } else {
        jobs.push_back(res.value);
      }
    }
    f.injector->arm();
    for (const Drain& d : f.drains) {
      ck::KubeCluster* cluster = f.clusters[static_cast<std::size_t>(d.site)].get();
      const cc::MachineId victim = d.victim;
      LayerStats* st = traced ? &stats : nullptr;
      f.sim->schedule(d.at, [cluster, victim, watch, tr, op, st] {
        watch->bench_ran = true;
        ++watch->drains;
        const auto t0 = Clock::now();
        {
          Tracer::Scope span(tr, "kube.drain", op);
          cluster->drain(victim);
        }
        if (st != nullptr) st->drain_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      });
      f.sim->schedule(d.at + d.heal, [cluster, victim, watch] {
        watch->bench_ran = true;
        cluster->uncordon(victim);
      });
    }

    if (traced) {
      // Priority: a chaos fault, then kube work (a pod changed phase or a
      // pod the benchmark saw created got bound), then a change of the
      // network's flow set, then benchmark code, else dispatch.
      EventSplitter splitter(tracer, op);
      std::size_t flows = 0;
      const char* layer = "sim";
      auto classify = [&] {
        bool kube = false;
        for (std::size_t s = 0; s < watch->pods.size(); ++s) {
          kube = kube || watch->pods[s].fired;
          watch->pods[s].fired = false;
          auto& q = watch->unbound[s];
          while (!q.empty() && (q.front()->node >= 0 || q.front()->terminal())) {
            q.pop_front();
            kube = true;
          }
        }
        const std::size_t now_flows = f.net->active_flows();
        layer = watch->chaos_ran ? "chaos"
                : kube           ? "kube"
                : now_flows != flows ? "net"
                : watch->bench_ran   ? "bench"
                                     : "sim";
        flows = now_flows;
        watch->chaos_ran = false;
        watch->bench_ran = false;
      };
      f.sim->set_trace_hook([&](double, std::uint64_t) {
        classify();
        splitter.boundary(layer);
        stats.sample_flows(static_cast<double>(flows));
      });
      const auto t0 = Clock::now();
      {
        Tracer::Scope run(tr, "sim.run", op);
        classify();
        splitter.start();
        f.sim->run();
        classify();
        splitter.finish(layer);
      }
      stats.run_s.push_back(seconds_between(t0, Clock::now()));
      f.sim->set_trace_hook({});
      stats.events.push_back(static_cast<double>(f.sim->events_processed()));
      stats.add_event_gaps(splitter.gaps_us());
    } else {
      f.sim->run();
    }
    const auto s2 = Clock::now();
    setup_s.push_back(seconds_between(s0, s1));
    if (traced) {
      traced_op_s.push_back(seconds_between(s1, s2));
      stats.bytes_delivered = f.net->total_bytes_delivered();
      stats.pods_scheduled = 0;
      stats.evictions = 0;
      stats.pending_sim_s.clear();
      for (const PodWatch& w : watch->pods) {
        stats.pods_scheduled += w.scheduled;
        stats.evictions += w.evictions;
        stats.pending_sim_s.insert(stats.pending_sim_s.end(), w.pending_sim_s.begin(),
                                   w.pending_sim_s.end());
      }
      stats.node_crashes = watch->crash_victims;
      stats.site_partitions = watch->site_partitions;
    } else {
      op_s.push_back(seconds_between(s1, s2));
      events_per_s.push_back(static_cast<double>(f.sim->events_processed()) /
                             op_s.back());
      sim_per_wall.push_back(f.sim->now() / op_s.back());
    }

    FederationOutcome o;
    o.completions = shape.completions;
    for (const auto& job : jobs) {
      o.succeeded.push_back(job->succeeded);
      o.complete.push_back(job->complete);
    }
    o.node_crashes = watch->crash_victims;
    o.expected_node_crashes = f.expected_crashes;
    o.site_partitions = watch->site_partitions;
    o.expected_site_partitions = 1;
    o.drains = watch->drains;
    o.expected_drains = static_cast<int>(f.drains.size());
    for (auto& p : check_federation(o)) problems.push_back(std::move(p));
    r.record_ops(1, problems);
  }
  const double wall_s = seconds_between(start, Clock::now());

  add_common_metrics(r, setup_s, op_s, events_per_s, wall_s);
  r.add("events_per_s", median(events_per_s), "1/s");
  r.add("sim_per_wall", median(sim_per_wall), "ratio");
  if (c.trace) {
    add_layer_metrics(r, stats, tracer, op_s, traced_op_s);
    r.self_time_table = tracer.self_time_table();
    if (!c.trace_path.empty()) tracer.write_json(c.trace_path);
  }
  return r;
}

}  // namespace chasebench
