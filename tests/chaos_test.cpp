#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "core/connect_workflow.hpp"
#include "core/nautilus.hpp"
#include "kube/cluster.hpp"
#include "sim/event.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cc = chase::cluster;
namespace ch = chase::chaos;
namespace cn = chase::net;
namespace co = chase::core;
namespace cs = chase::sim;
namespace cu = chase::util;

TEST(ChaosInjector, PartitionAndHealLink) {
  co::Nautilus bed;
  const cn::LinkId uplink = bed.net.find_link(bed.thredds->node(), bed.site_switch(0));
  ASSERT_GE(uplink, 0);

  ch::ChaosPlan plan;
  plan.partition_link(/*at=*/10.0, uplink, /*down_for=*/20.0);
  ch::ChaosInjector injector(bed.sim, bed.net, bed.inventory, plan);
  injector.arm();

  bed.sim.run(15.0);
  EXPECT_FALSE(bed.net.link_up(uplink));
  bed.sim.run(40.0);
  EXPECT_TRUE(bed.net.link_up(uplink));
  EXPECT_EQ(injector.report().link_partitions, 1);
  EXPECT_EQ(injector.report().link_heals, 1);
}

TEST(ChaosInjector, DegradeScalesBandwidthAndRestores) {
  co::Nautilus bed;
  const cn::LinkId uplink = bed.net.find_link(bed.thredds->node(), bed.site_switch(0));
  ch::ChaosPlan plan;
  plan.degrade_link(5.0, uplink, /*factor=*/0.25, /*degraded_for=*/10.0);
  ch::ChaosInjector injector(bed.sim, bed.net, bed.inventory, plan);
  injector.arm();

  bed.sim.run(7.0);
  EXPECT_DOUBLE_EQ(bed.net.link_bandwidth_factor(uplink), 0.25);
  bed.sim.run(20.0);
  EXPECT_DOUBLE_EQ(bed.net.link_bandwidth_factor(uplink), 1.0);
  EXPECT_EQ(injector.report().link_degradations, 1);
  EXPECT_EQ(injector.report().link_restores, 1);
}

TEST(ChaosInjector, NodeDegradeScalesEveryLinkAndRestores) {
  // A straggler node, not a dead one: every link at the machine's endpoint
  // drops to 10% of built bandwidth, then restores.
  co::Nautilus bed;
  const cc::MachineId victim = bed.gpu_machines().front();
  const cn::NodeId node = bed.inventory.machine(victim).net_node;
  const int links = static_cast<int>(bed.net.links_at(node).size());
  ASSERT_GE(links, 1);

  ch::ChaosPlan plan;
  plan.degrade_node(5.0, victim, /*factor=*/0.1, /*degraded_for=*/10.0);
  ch::ChaosInjector injector(bed.sim, bed.net, bed.inventory, plan);
  injector.arm();

  bed.sim.run(7.0);
  for (cn::LinkId l : bed.net.links_at(node)) {
    EXPECT_DOUBLE_EQ(bed.net.link_bandwidth_factor(l), 0.1);
  }
  bed.sim.run(20.0);
  for (cn::LinkId l : bed.net.links_at(node)) {
    EXPECT_DOUBLE_EQ(bed.net.link_bandwidth_factor(l), 1.0);
  }
  EXPECT_EQ(injector.report().node_degradations, links);
  EXPECT_EQ(injector.report().node_restores, links);
  EXPECT_EQ(injector.report().events_executed, 2);
}

TEST(ChaosInjector, NodeCrashFractionIsDeterministicPerSeed) {
  // Same plan + seed => same victims, different seed => (almost surely)
  // different ones. Victims must be distinct and come from the pool.
  auto victims_for = [](std::uint64_t seed) {
    co::Nautilus bed;
    ch::ChaosPlan plan(seed);
    plan.crash_fraction(1.0, bed.gpu_machines(), 0.25);
    ch::ChaosInjector injector(bed.sim, bed.net, bed.inventory, plan);
    injector.arm();
    bed.sim.run(2.0);
    std::vector<cc::MachineId> down;
    for (cc::MachineId m : bed.gpu_machines()) {
      if (!bed.inventory.up(m)) down.push_back(m);
    }
    return down;
  };
  const auto a = victims_for(7);
  const auto b = victims_for(7);
  const auto c = victims_for(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 4u);  // ceil(0.25 * 16 machines)
}

TEST(ChaosInjector, NodeCrashRecoversAfterDuration) {
  co::Nautilus bed;
  const cc::MachineId victim = bed.gpu_machines().front();
  ch::ChaosPlan plan;
  plan.crash_node(5.0, victim, /*down_for=*/10.0);
  ch::ChaosInjector injector(bed.sim, bed.net, bed.inventory, plan, bed.kube.get(),
                             bed.ceph.get(), &bed.metrics);
  injector.arm();
  bed.sim.run(7.0);
  EXPECT_FALSE(bed.inventory.up(victim));
  bed.sim.run(20.0);
  EXPECT_TRUE(bed.inventory.up(victim));
  EXPECT_EQ(injector.report().node_crashes, 1);
  EXPECT_EQ(injector.report().node_recoveries, 1);
}

TEST(ChaosInjector, OsdFailureRemapsAndRecovers) {
  co::Nautilus bed;
  ch::ChaosPlan plan;
  plan.fail_osd(2.0, /*osd=*/0, /*down_for=*/30.0);
  ch::ChaosInjector injector(bed.sim, bed.net, bed.inventory, plan, bed.kube.get(),
                             bed.ceph.get(), &bed.metrics);
  injector.arm();
  bed.sim.run(100.0);  // fail, remap, recover, re-remap
  EXPECT_EQ(injector.report().osd_failures, 1);
  EXPECT_EQ(injector.report().osd_recoveries, 1);
  bed.ceph->check_invariants();  // replica placement clean after the churn
}

namespace {

/// One CONNECT run's fingerprint: the FNV-1a hash of every event's
/// (time, seq) in dispatch order, and the counts the pods' fault paths
/// decide.
struct ConnectTrace {
  std::uint64_t events = 0;
  std::uint64_t hash = cu::kFnvOffset;
  std::uint64_t end_bits = 0;
  int step1_retries = 0;
  std::uint64_t files_fetched = 0;
};

void trace_events(cs::Simulation& sim, ConnectTrace* trace) {
  sim.set_trace_hook([trace](double time, std::uint64_t seq) {
    trace->hash = cu::fnv1a(cu::fnv1a(trace->hash, cu::bits_of(time)), seq);
    ++trace->events;
  });
}

/// Crashes whichever machine hosts Redis at `at`, for 30 s: every Redis
/// round trip fails until the ReplicaSet has re-hosted the server elsewhere.
void crash_redis_host(co::Nautilus& bed, double at) {
  bed.sim.schedule(at, [&bed] {
    for (std::size_t m = 0; m < bed.inventory.size(); ++m) {
      const auto id = static_cast<cc::MachineId>(m);
      if (bed.inventory.machine(id).net_node != bed.redis->node()) continue;
      bed.inventory.set_up(id, false);
      bed.sim.schedule(30.0, [&bed, id] { bed.inventory.set_up(id, true); });
    }
  });
}

/// tools/determinism_check's CONNECT run at its default scale (seed 1). With
/// `chaos`, its --chaos plan runs too: a THREDDS uplink partition at
/// `partition_at`, a Redis pod kill at `redis_kill_at`, an OSD failure and a
/// crash of 20% of the GPU machines. The machine that hosts Redis crashes at
/// each of `redis_host_crashes`.
ConnectTrace run_connect(bool chaos, double partition_at = 120.0,
                         double redis_kill_at = 400.0,
                         const std::vector<double>& redis_host_crashes = {}) {
  co::Nautilus bed;
  ConnectTrace trace;
  trace_events(bed.sim, &trace);
  co::ConnectWorkflowParams params;
  params.data_fraction = 0.005;
  params.inference_gpus = 16;
  params.straggler_seed = 1;
  co::ConnectWorkflow cwf(bed, params);

  std::unique_ptr<ch::ChaosInjector> injector;
  if (chaos) {
    ch::ChaosPlan plan(/*seed=*/2029);
    const cn::LinkId uplink = bed.net.find_link(bed.thredds->node(), bed.site_switch(0));
    plan.partition_link(partition_at, uplink, /*down_for=*/180.0);
    plan.kill_pods(redis_kill_at, params.ns, {{"app", "redis"}});
    plan.fail_osd(/*at=*/300.0, /*osd=*/3, /*down_for=*/300.0);
    plan.crash_fraction(/*at=*/900.0, bed.gpu_machines(), /*fraction=*/0.20,
                        /*down_for=*/600.0);
    injector = std::make_unique<ch::ChaosInjector>(bed.sim, bed.net, bed.inventory, plan,
                                                   bed.kube.get(), bed.ceph.get(),
                                                   &bed.metrics);
    injector->arm();
  }

  for (double at : redis_host_crashes) crash_redis_host(bed, at);

  auto done = cwf.workflow().start(bed.sim);
  EXPECT_TRUE(cs::run_until(bed.sim, done));
  EXPECT_EQ(cwf.workflow().reports().size(), 4u);
  trace.end_bits = cu::bits_of(bed.sim.now());
  trace.step1_retries = cwf.workflow().reports().at(0).retries;
  trace.files_fetched = cwf.files_fetched();
  return trace;
}

}  // namespace

TEST(ChaosInjector, ConnectStep1SurvivesWorkerNodeCrashes) {
  // End-to-end: the download step completes with every file accounted for
  // even when machines crash mid-download (pods rescheduled, queue leases
  // redelivered, slabs refetched).
  co::Nautilus bed;
  ConnectTrace trace;
  trace_events(bed.sim, &trace);
  co::ConnectWorkflowParams params;
  params.data_fraction = 0.01;
  params.steps = {1};
  params.queue_lease_ttl = 60.0;
  co::ConnectWorkflow cwf(bed, params);

  ch::ChaosPlan plan(/*seed=*/11);
  plan.crash_fraction(/*at=*/20.0, bed.gpu_machines(), 0.25, /*down_for=*/120.0);
  ch::ChaosInjector injector(bed.sim, bed.net, bed.inventory, plan, bed.kube.get(),
                             bed.ceph.get(), &bed.metrics);
  injector.arm();

  auto done = cwf.workflow().start(bed.sim);
  ASSERT_TRUE(cs::run_until(bed.sim, done));
  EXPECT_TRUE(cwf.workflow().finished());
  EXPECT_EQ(cwf.files_fetched(), cwf.scaled_file_count());
  EXPECT_GT(injector.report().node_crashes, 0);
  // The recovery itself is pinned: which leases redeliver, when the
  // replacement pods run and how often they back off.
  EXPECT_EQ(trace.events, 45941u);
  EXPECT_EQ(trace.hash, 0xaa5174e61f763529ULL);
  EXPECT_EQ(cwf.workflow().reports().at(0).retries, 40);
}

// The CONNECT pods' event traces and fault paths, pinned across commits
// (DeterminismCheck.* only compares two runs of one binary). A rewrite of
// the pod programs that reorders, adds or drops a single event or retry
// moves the hash.
TEST(ConnectWorkflow, TracesPinned) {
  const ConnectTrace clean = run_connect(/*chaos=*/false);
  EXPECT_EQ(clean.events, 45791u);
  EXPECT_EQ(clean.hash, 0x9526fc750e694651ULL);
  EXPECT_EQ(clean.end_bits, 0x4095e5e7a33dac86ULL);
  EXPECT_EQ(clean.step1_retries, 0);
  EXPECT_EQ(clean.files_fetched, 561u);

  const ConnectTrace chaos = run_connect(/*chaos=*/true);
  EXPECT_EQ(chaos.events, 47122u);
  EXPECT_EQ(chaos.hash, 0x1160e324e5313755ULL);
  EXPECT_EQ(chaos.end_bits, 0x40a13338e4f0f04dULL);
  EXPECT_EQ(chaos.step1_retries, 0);
  EXPECT_EQ(chaos.files_fetched, 561u);

  // Step 1 ends at 34 s at this scale, before the --chaos plan partitions
  // the uplink or kills Redis, and no Redis round trip fails in either run.
  // Here Redis's host crashes five times while the coordinator seeds and the
  // pods download, and the partition and pod kill land inside Step 1: the
  // pods' Redis retries, lease redeliveries and THREDDS refetches all run.
  const ConnectTrace step1 =
      run_connect(/*chaos=*/true, /*partition_at=*/40.0, /*redis_kill_at=*/20.0,
                  /*redis_host_crashes=*/{3.0, 8.0, 14.0, 22.0, 31.0});
  EXPECT_EQ(step1.events, 50841u);
  EXPECT_EQ(step1.hash, 0xa89d4da56ff41e2ULL);
  EXPECT_EQ(step1.end_bits, 0x40a0f747370e617cULL);
  EXPECT_EQ(step1.step1_retries, 129);
  EXPECT_EQ(step1.files_fetched, 561u);
}

// --- site faults and index consistency under churn ---------------------------

namespace {

namespace ck = chase::kube;

/// Two-site kube bed over one shared cluster: per-site star fabrics joined
/// by a WAN link, every machine registered with a per-site label.
struct TwoSiteBed {
  cs::Simulation sim;
  cn::Network net{sim};
  cc::Inventory inventory{net};
  std::unique_ptr<ck::KubeCluster> kube;
  std::vector<cn::NodeId> switches;
  std::vector<cc::MachineId> machines;

  explicit TwoSiteBed(int nodes_per_site = 4) {
    kube = std::make_unique<ck::KubeCluster>(sim, net, inventory, nullptr);
    for (int s = 0; s < 2; ++s) {
      const std::string site = "site-" + std::to_string(s);
      switches.push_back(net.add_node(site + "-sw", s));
      for (int i = 0; i < nodes_per_site; ++i) {
        const std::string name = site + "-n" + std::to_string(i);
        const cn::NodeId nn = net.add_node(name, s);
        net.add_link(nn, switches.back(), cu::gbit_per_s(20), 1e-4);
        const cc::MachineId m = inventory.add(cc::fiona8(name, site), nn);
        kube->register_node(m, {{"pool", i % 2 == 0 ? "even" : "odd"}});
        machines.push_back(m);
      }
    }
    net.add_link(switches[0], switches[1], cu::gbit_per_s(100), 30e-3);
  }
};

/// Ground truth for nodes_matching: full scan over every registered node.
std::vector<cc::MachineId> rescan_matching(const TwoSiteBed& bed,
                                           const ck::Labels& selector) {
  std::vector<cc::MachineId> out;
  for (cc::MachineId m : bed.machines) {
    if (ck::selector_matches(selector, bed.kube->node(m).labels)) out.push_back(m);
  }
  return out;
}

}  // namespace

TEST(ChaosInjector, SitePartitionIslandsAndHealsOneSite) {
  TwoSiteBed bed;
  ch::ChaosPlan plan;
  plan.partition_site(/*at=*/5.0, /*site=*/1, /*down_for=*/20.0);
  ch::ChaosInjector injector(bed.sim, bed.net, bed.inventory, plan);
  injector.arm();

  const cn::LinkId wan = bed.net.find_link(bed.switches[0], bed.switches[1]);
  bed.sim.run(10.0);
  EXPECT_FALSE(bed.net.link_up(wan));  // islanded
  // Intra-site links on both sides stay up.
  for (cn::LinkId l : bed.net.links_at(bed.switches[1])) {
    if (!bed.net.link_is_wan(l)) {
      EXPECT_TRUE(bed.net.link_up(l));
    }
  }
  bed.sim.run(40.0);
  EXPECT_TRUE(bed.net.link_up(wan));  // healed
  EXPECT_EQ(injector.report().site_partitions, 1);
  EXPECT_EQ(injector.report().site_heals, 1);
}

TEST(ChaosIndexes, StayConsistentUnderSeededDrainTaintCrashChurn) {
  // Property-style: a seeded stream of drains, taints, crashes, site
  // partitions, and re-registrations runs against a live scheduling
  // workload; at every step the feasibility + label indexes must agree with
  // a from-scratch rescan (check_invariants audits the index internals at
  // level 2; rescan_matching cross-checks the selector answers).
  const int prev_audit = cu::set_audit_level(2);
  TwoSiteBed bed;
  cu::Rng rng(0xC0FFEE);

  // Background workload: a replace-on-failure job stream per site keeps the
  // scheduler busy while the faults land.
  for (int s = 0; s < 2; ++s) {
    ck::JobSpec job;
    job.ns = "default";
    job.name = "churn-" + std::to_string(s);
    ck::ContainerSpec c;
    c.requests = {2, cu::gb(2), 1};
    c.program = [](ck::PodContext& ctx) -> cs::Task {
      co_await ctx.sim().sleep(3.0);
    };
    job.pod_template.containers.push_back(std::move(c));
    job.pod_template.node_selector["site"] = "site-" + std::to_string(s);
    job.completions = 40;
    job.parallelism = 4;
    job.backoff_limit = 1000;
    ASSERT_TRUE(bed.kube->create_job(job).ok());
  }

  ch::ChaosPlan plan(/*seed=*/7);
  plan.crash_fraction(/*at=*/10.0, bed.machines, 0.25, /*down_for=*/15.0);
  plan.partition_site(/*at=*/20.0, /*site=*/1, /*down_for=*/10.0);
  ch::ChaosInjector injector(bed.sim, bed.net, bed.inventory, plan, bed.kube.get());
  injector.arm();

  const std::vector<ck::Labels> probes = {
      {{"pool", "even"}},
      {{"site", "site-0"}},
      {{"site", "site-1"}, {"pool", "odd"}},
      {{"gpu-model", "GTX 1080ti"}},
      {},
  };
  const auto check_indexes = [&] {
    bed.kube->check_invariants();
    for (const auto& selector : probes) {
      EXPECT_EQ(bed.kube->nodes_matching(selector), rescan_matching(bed, selector));
    }
  };

  double t = 1.0;
  for (int step = 0; step < 30; ++step, t += rng.uniform(1.0, 3.0)) {
    const cc::MachineId victim =
        bed.machines[rng.uniform_u64(bed.machines.size())];
    switch (rng.uniform_u64(5)) {
      case 0:
        bed.sim.schedule(t, [&, victim] { bed.kube->drain(victim); });
        bed.sim.schedule(t + 4.0, [&, victim] { bed.kube->uncordon(victim); });
        break;
      case 1:
        bed.sim.schedule(t, [&, victim] {
          bed.kube->add_taint(victim,
                              ck::Taint{"chaos", "x", ck::TaintEffect::NoExecute});
        });
        bed.sim.schedule(t + 3.0,
                         [&, victim] { bed.kube->remove_taint(victim, "chaos"); });
        break;
      case 2:
        bed.sim.schedule(t, [&, victim] { bed.inventory.set_up(victim, false); });
        bed.sim.schedule(t + 5.0, [&, victim] { bed.inventory.set_up(victim, true); });
        break;
      case 3:  // relabel mid-flight: the index must drop the old posting
        bed.sim.schedule(t, [&, victim, step] {
          bed.kube->register_node(
              victim, {{"pool", step % 2 == 0 ? "relabel-a" : "relabel-b"}});
        });
        break;
      default:
        bed.sim.schedule(t, check_indexes);
        break;
    }
  }
  bed.sim.run(t + 30.0);
  check_indexes();
  bed.sim.run();
  check_indexes();

  // The workload survived the churn: both job streams completed.
  EXPECT_TRUE(bed.kube->get_job("default", "churn-0")->complete);
  EXPECT_TRUE(bed.kube->get_job("default", "churn-1")->complete);
  cu::set_audit_level(prev_audit);
}
