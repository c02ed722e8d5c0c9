/// Tests for the advanced orchestrator features: taints/tolerations,
/// cordon/drain, priority + preemption, CronJobs.

#include <gtest/gtest.h>

#include <memory>

#include "kube/cluster.hpp"

namespace ck = chase::kube;
namespace cc = chase::cluster;
namespace cn = chase::net;
namespace cs = chase::sim;
namespace cu = chase::util;

namespace {

struct Testbed {
  cs::Simulation sim;
  cn::Network net{sim};
  cc::Inventory inventory{net};
  std::unique_ptr<ck::KubeCluster> kube;
  cn::NodeId switch_node;
  std::vector<cc::MachineId> machines;

  explicit Testbed(int nodes = 2) {
    switch_node = net.add_node("switch");
    kube = std::make_unique<ck::KubeCluster>(sim, net, inventory, nullptr);
    for (int i = 0; i < nodes; ++i) {
      auto name = "fiona8-" + std::to_string(i);
      auto nn = net.add_node(name);
      net.add_link(nn, switch_node, cu::gbit_per_s(20), 1e-4);
      machines.push_back(inventory.add(cc::fiona8(name, "UCSD"), nn));
      kube->register_node(machines.back());
    }
  }
};

ck::PodSpec pod_spec(double run_seconds, ck::ResourceList requests = {1, cu::gb(1), 0}) {
  ck::PodSpec spec;
  ck::ContainerSpec c;
  c.requests = requests;
  c.program = [run_seconds](ck::PodContext& ctx) -> cs::Task {
    co_await ctx.sim().sleep(run_seconds);
  };
  spec.containers.push_back(std::move(c));
  return spec;
}

}  // namespace

// --- taints / tolerations --------------------------------------------------------

TEST(Taints, NoScheduleKeepsPodsAway) {
  Testbed tb(2);
  tb.kube->add_taint(tb.machines[0], {"dedicated", "viz", ck::TaintEffect::NoSchedule});
  for (int i = 0; i < 4; ++i) {
    tb.kube->create_pod("default", "p" + std::to_string(i), pod_spec(1e6));
  }
  tb.sim.run(30.0);
  for (const auto& pod : tb.kube->list_pods("default")) {
    EXPECT_EQ(pod->node, tb.machines[1]) << pod->meta.name;
  }
}

TEST(Taints, TolerationAllowsScheduling) {
  Testbed tb(1);
  tb.kube->add_taint(tb.machines[0], {"dedicated", "viz", ck::TaintEffect::NoSchedule});
  auto plain = tb.kube->create_pod("default", "plain", pod_spec(1e6)).value;
  auto spec = pod_spec(1e6);
  spec.tolerations.push_back({"dedicated", "viz"});
  auto tolerant = tb.kube->create_pod("default", "tolerant", spec).value;
  tb.sim.run(30.0);
  EXPECT_EQ(plain->phase, ck::PodPhase::Pending);
  EXPECT_EQ(tolerant->phase, ck::PodPhase::Running);
}

TEST(Taints, WildcardTolerationMatchesAnyValue) {
  Testbed tb(1);
  tb.kube->add_taint(tb.machines[0], {"team", "alpha", ck::TaintEffect::NoSchedule});
  auto spec = pod_spec(1e6);
  spec.tolerations.push_back({"team", ""});  // any value
  auto pod = tb.kube->create_pod("default", "p", spec).value;
  tb.sim.run(30.0);
  EXPECT_EQ(pod->phase, ck::PodPhase::Running);
}

TEST(Taints, NoExecuteEvictsRunningPods) {
  Testbed tb(1);
  auto victim = tb.kube->create_pod("default", "victim", pod_spec(1e6)).value;
  auto spec = pod_spec(1e6);
  spec.tolerations.push_back({"maintenance", ""});
  auto survivor = tb.kube->create_pod("default", "survivor", spec).value;
  tb.sim.run(30.0);
  ASSERT_EQ(victim->phase, ck::PodPhase::Running);

  tb.kube->add_taint(tb.machines[0], {"maintenance", "on", ck::TaintEffect::NoExecute});
  tb.sim.run(60.0);
  EXPECT_EQ(victim->phase, ck::PodPhase::Failed);
  EXPECT_EQ(victim->reason, "TaintNoExecute");
  EXPECT_EQ(survivor->phase, ck::PodPhase::Running);
}

TEST(Taints, RemoveTaintRestoresScheduling) {
  Testbed tb(1);
  tb.kube->add_taint(tb.machines[0], {"hold", "1", ck::TaintEffect::NoSchedule});
  auto pod = tb.kube->create_pod("default", "p", pod_spec(5.0)).value;
  tb.sim.run(30.0);
  EXPECT_EQ(pod->phase, ck::PodPhase::Pending);
  tb.kube->remove_taint(tb.machines[0], "hold");
  tb.sim.run();
  EXPECT_EQ(pod->phase, ck::PodPhase::Succeeded);
}

// --- cordon / drain -----------------------------------------------------------------

TEST(Cordon, StopsNewSchedulingKeepsRunning) {
  Testbed tb(1);
  auto running = tb.kube->create_pod("default", "running", pod_spec(1e6)).value;
  tb.sim.run(30.0);
  ASSERT_EQ(running->phase, ck::PodPhase::Running);

  tb.kube->cordon(tb.machines[0]);
  auto blocked = tb.kube->create_pod("default", "blocked", pod_spec(5.0)).value;
  tb.sim.run(tb.sim.now() + 60.0);
  EXPECT_EQ(running->phase, ck::PodPhase::Running);  // not evicted
  EXPECT_EQ(blocked->phase, ck::PodPhase::Pending);

  tb.kube->uncordon(tb.machines[0]);
  tb.sim.run(tb.sim.now() + 60.0);
  EXPECT_EQ(blocked->phase, ck::PodPhase::Succeeded);
}

TEST(Drain, EvictsAndReschedulesJobPodsWithoutFailures) {
  Testbed tb(2);
  ck::JobSpec spec;
  spec.ns = "default";
  spec.name = "work";
  spec.completions = 2;
  spec.parallelism = 2;
  spec.pod_template = pod_spec(120.0, {20, cu::gb(16), 0});  // one per node
  auto job = tb.kube->create_job(spec).value;
  tb.sim.run(30.0);
  ASSERT_EQ(job->active, 2);

  tb.kube->drain(tb.machines[0]);
  tb.sim.run(tb.sim.now() + 10.0);
  // Drained pod failed with reason Drained; replacement cannot fit on the
  // cordoned node, so it waits for node 1.
  int drained = 0;
  for (const auto& pod : tb.kube->list_pods("default", {{"job", "work"}})) {
    drained += pod->reason == "Drained";
  }
  EXPECT_EQ(drained, 1);
  EXPECT_EQ(job->failed, 0);  // drains don't count
  tb.sim.run();
  EXPECT_TRUE(job->complete);
}

// --- priority & preemption --------------------------------------------------------------

TEST(Preemption, HighPriorityEvictsLowPriority) {
  Testbed tb(1);
  // Fill the node's 8 GPUs with two low-priority pods.
  auto low1 = tb.kube->create_pod("default", "low1", pod_spec(1e6, {1, cu::gb(4), 4})).value;
  auto low2 = tb.kube->create_pod("default", "low2", pod_spec(1e6, {1, cu::gb(4), 4})).value;
  tb.sim.run(30.0);
  ASSERT_EQ(low1->phase, ck::PodPhase::Running);
  ASSERT_EQ(low2->phase, ck::PodPhase::Running);

  auto spec = pod_spec(60.0, {1, cu::gb(4), 4});
  spec.priority = 10;
  auto high = tb.kube->create_pod("default", "high", spec).value;
  tb.sim.run(tb.sim.now() + 30.0);
  EXPECT_EQ(high->phase, ck::PodPhase::Running);
  const bool one_evicted = (low1->reason == "Preempted") ^ (low2->reason == "Preempted");
  EXPECT_TRUE(one_evicted);
}

TEST(Preemption, EqualPriorityDoesNotPreempt) {
  Testbed tb(1);
  auto low = tb.kube->create_pod("default", "a", pod_spec(1e6, {1, cu::gb(4), 8})).value;
  tb.sim.run(30.0);
  auto spec = pod_spec(10.0, {1, cu::gb(4), 8});
  spec.priority = 0;
  auto peer = tb.kube->create_pod("default", "b", spec).value;
  tb.sim.run(tb.sim.now() + 60.0);
  EXPECT_EQ(low->phase, ck::PodPhase::Running);
  EXPECT_EQ(peer->phase, ck::PodPhase::Pending);
}

TEST(Preemption, EvictsCheapestSufficientSet) {
  Testbed tb(1);
  // Three low-priority pods: 2+2+4 GPUs. A high pod needing 2 GPUs should
  // evict exactly one of the 2-GPU pods (lowest priority first).
  auto spec2a = pod_spec(1e6, {1, cu::gb(4), 2});
  spec2a.priority = 1;
  auto spec2b = pod_spec(1e6, {1, cu::gb(4), 2});
  spec2b.priority = 2;
  auto spec4 = pod_spec(1e6, {1, cu::gb(4), 4});
  spec4.priority = 3;
  auto a = tb.kube->create_pod("default", "a", spec2a).value;
  auto b = tb.kube->create_pod("default", "b", spec2b).value;
  auto c = tb.kube->create_pod("default", "c", spec4).value;
  tb.sim.run(30.0);

  auto high = pod_spec(60.0, {1, cu::gb(4), 2});
  high.priority = 10;
  auto h = tb.kube->create_pod("default", "h", high).value;
  tb.sim.run(tb.sim.now() + 30.0);
  EXPECT_EQ(h->phase, ck::PodPhase::Running);
  EXPECT_EQ(a->reason, "Preempted");  // the lowest priority victim
  EXPECT_EQ(b->phase, ck::PodPhase::Running);
  EXPECT_EQ(c->phase, ck::PodPhase::Running);
}

// --- CronJobs ---------------------------------------------------------------------------------

TEST(CronJob, FiresPeriodically) {
  Testbed tb(2);
  ck::CronJobSpec spec;
  spec.ns = "default";
  spec.name = "ingest";
  spec.period = 100.0;
  spec.job_template.pod_template = pod_spec(10.0);
  spec.job_template.completions = 1;
  auto cron = tb.kube->create_cron_job(spec);
  ASSERT_TRUE(cron.ok()) << cron.error;
  tb.sim.run(350.0);
  EXPECT_EQ(cron.value->fired, 3u);  // t=100, 200, 300
  int jobs = 0;
  for (const auto& pod : tb.kube->list_pods("default", {{"cronjob", "ingest"}})) {
    jobs += pod->phase == ck::PodPhase::Succeeded;
  }
  EXPECT_GE(jobs, 2);
  tb.kube->delete_cron_job("default", "ingest");
  tb.sim.run(1000.0);
  EXPECT_EQ(cron.value->fired, 3u);  // no more firings after delete
}

TEST(CronJob, ForbidSkipsWhileRunning) {
  Testbed tb(2);
  ck::CronJobSpec spec;
  spec.ns = "default";
  spec.name = "slow";
  spec.period = 50.0;
  spec.forbid_concurrent = true;
  spec.job_template.pod_template = pod_spec(175.0);  // outlives 3 periods
  auto cron = tb.kube->create_cron_job(spec).value;
  // Fires at t=50 (job busy until ~226), skips t=100/150/200, fires at 250.
  tb.sim.run(260.0);
  EXPECT_EQ(cron->fired, 2u);
  EXPECT_EQ(cron->skipped, 3u);
  tb.kube->delete_cron_job("default", "slow");
  tb.sim.run(2000.0);
}

TEST(CronJob, AllowConcurrentRunsInParallel) {
  Testbed tb(2);
  ck::CronJobSpec spec;
  spec.ns = "default";
  spec.name = "burst";
  spec.period = 50.0;
  spec.forbid_concurrent = false;
  spec.job_template.pod_template = pod_spec(175.0);
  auto cron = tb.kube->create_cron_job(spec).value;
  tb.sim.run(260.0);
  EXPECT_EQ(cron->fired, 5u);
  EXPECT_EQ(cron->skipped, 0u);
  tb.kube->delete_cron_job("default", "burst");
  tb.sim.run(2000.0);
}

TEST(CronJob, RejectsBadSpecs) {
  Testbed tb(1);
  ck::CronJobSpec spec;
  spec.ns = "default";
  spec.name = "bad";
  spec.period = -5.0;
  EXPECT_FALSE(tb.kube->create_cron_job(spec).ok());
  spec.period = 10.0;
  spec.ns = "ghost";
  EXPECT_FALSE(tb.kube->create_cron_job(spec).ok());
}
