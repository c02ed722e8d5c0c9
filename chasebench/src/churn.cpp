/// \file churn.cpp
/// Workload `churn`: bench_core_throughput's churn shape with the benchmark
/// issuing every `Network::transfer` itself. 128 leaves hang off one core
/// switch by 10 GbE links; each leaf runs 8 streams of short uncapped
/// transfers to seeded random peers with a 1 ms mean think time, so flow
/// arrivals and completions dominate and every one re-runs the max-min
/// fill. One op is one round: a fresh fabric runs a whole seeded plan. Each
/// round draws its own plan from (seed, round), so a run's median spans
/// many plans rather than timing one plan's particular fill pattern.

#include <memory>

#include "checks.hpp"
#include "net/network.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace chasebench {

namespace {

using chase::net::NodeId;

struct ChurnShape {
  int leaves = 128;
  int streams = 8;     // per leaf
  int transfers = 10;  // per stream, per round
};

struct Planned {
  NodeId dst = 0;
  chase::util::Bytes bytes = 0;
  double think_s = 0.0;
};

/// A built fabric plus its seeded transfer plan. Declaration order is
/// destruction order in reverse: the network goes before its simulation.
struct Fabric {
  std::unique_ptr<chase::sim::Simulation> sim;
  std::unique_ptr<chase::net::Network> net;
  std::vector<NodeId> leaves;
  std::vector<Planned> plan;  // [leaf][stream][transfer]
  double bytes_requested = 0.0;
};

Fabric build(const ChurnShape& shape, std::uint64_t seed) {
  Fabric f;
  f.sim = std::make_unique<chase::sim::Simulation>();
  f.net = std::make_unique<chase::net::Network>(*f.sim);
  const NodeId core = f.net->add_node("core");
  for (int i = 0; i < shape.leaves; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    const NodeId n = f.net->add_node(std::move(name));
    f.net->add_link(n, core, chase::util::gbit_per_s(10.0), 0.5e-3);
    f.leaves.push_back(n);
  }
  chase::util::Rng rng(chase::util::hash_combine(seed, 0xC4u));
  f.plan.resize(static_cast<std::size_t>(shape.leaves) * shape.streams * shape.transfers);
  std::size_t k = 0;
  for (int leaf = 0; leaf < shape.leaves; ++leaf) {
    for (int s = 0; s < shape.streams * shape.transfers; ++s, ++k) {
      auto dst = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(shape.leaves)));
      if (dst == leaf) dst = (dst + 1) % shape.leaves;
      Planned& p = f.plan[k];
      p.dst = f.leaves[static_cast<std::size_t>(dst)];
      p.bytes = static_cast<chase::util::Bytes>(rng.uniform(2e5, 2e6));
      p.think_s = rng.exponential(1e-3);
      f.bytes_requested += static_cast<double>(p.bytes);
    }
  }
  return f;
}

struct Tally {
  std::uint64_t issued = 0, completed = 0, failed = 0;
  /// Set when benchmark code ran inside the current event.
  bool bench_ran = false;
};

struct StreamArgs {
  chase::sim::Simulation* sim;
  chase::net::Network* net;
  NodeId self;
  const Planned* plan;
  int count;
  Tally* tally;
  Tracer* tracer;  // null when untraced
  std::uint64_t op;
  LayerStats* stats;
};

chase::sim::Task stream(StreamArgs a) {
  for (int i = 0; i < a.count; ++i) {
    const Planned& p = a.plan[i];
    a.tally->bench_ran = true;
    chase::net::TransferPtr t;
    if (a.tracer != nullptr) {
      const auto t0 = Clock::now();
      {
        Tracer::Scope span(a.tracer, "net.transfer", a.op);
        t = a.net->transfer(a.self, p.dst, p.bytes);
      }
      a.stats->transfer_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    } else {
      t = a.net->transfer(a.self, p.dst, p.bytes);
    }
    ++a.tally->issued;
    co_await t->done->wait(*a.sim);
    a.tally->bench_ran = true;
    if (t->failed) {
      ++a.tally->failed;
    } else {
      ++a.tally->completed;
    }
    co_await a.sim->sleep(p.think_s);
  }
}

void spawn_streams(Fabric& f, const ChurnShape& shape, Tally& tally, Tracer* tracer,
                   std::uint64_t op, LayerStats& stats) {
  for (int leaf = 0; leaf < shape.leaves; ++leaf) {
    for (int s = 0; s < shape.streams; ++s) {
      const std::size_t base =
          (static_cast<std::size_t>(leaf) * shape.streams + s) * shape.transfers;
      f.sim->spawn(stream({f.sim.get(), f.net.get(), f.leaves[static_cast<std::size_t>(leaf)],
                           f.plan.data() + base, shape.transfers, &tally, tracer, op, &stats}));
    }
  }
}

}  // namespace

RunResult run_churn(const RunConfig& c) {
  RunResult r;
  ChurnShape shape;
  if (c.reduced) shape = {16, 2, 3};
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
    Fabric f;
    {
      Tracer::Scope setup(tr, "setup", op);
      f = build(shape, chase::util::hash_combine(c.seed, op));
    }
    const auto s1 = Clock::now();
    Tally tally;
    spawn_streams(f, shape, tally, tr, op, stats);
    if (traced) {
      // An event that changed the flow set did net work; one that only
      // resumed a stream ran benchmark code; anything else is dispatch.
      EventSplitter splitter(tracer, op);
      std::size_t flows = 0;
      const char* layer = "sim";
      auto classify = [&] {
        const std::size_t now_flows = f.net->active_flows();
        layer = now_flows != flows ? "net" : tally.bench_ran ? "bench" : "sim";
        flows = now_flows;
        tally.bench_ran = false;
      };
      f.sim->set_trace_hook([&](double, std::uint64_t) {
        classify();
        splitter.boundary(layer);
        stats.sample_flows(static_cast<double>(flows));
      });
      const auto t0 = Clock::now();
      {
        Tracer::Scope run(tr, "sim.run", op);
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
      stats.transfers = static_cast<double>(tally.issued);
      stats.failed_transfers = static_cast<double>(tally.failed);
      stats.bytes_delivered = f.net->total_bytes_delivered();
    } else {
      op_s.push_back(seconds_between(s1, s2));
      events_per_s.push_back(static_cast<double>(f.sim->events_processed()) /
                             op_s.back());
      sim_per_wall.push_back(f.sim->now() / op_s.back());
    }
    ChurnOutcome o;
    o.planned = f.plan.size();
    o.issued = tally.issued;
    o.completed = tally.completed;
    o.failed = tally.failed;
    o.bytes_requested = f.bytes_requested;
    o.bytes_delivered = f.net->total_bytes_delivered();
    r.record_ops(1, check_churn(o));
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
