/// \file audit_test.cpp
/// The invariant-audit framework (util/check.hpp) and each subsystem's
/// check_invariants(): the check macros and their level gating, the
/// Simulation checkpoint machinery, and one dedicated audit scenario per
/// subsystem (sim, net, redis, ceph, kube) that runs busy state at audit
/// level 2 and demands a clean bill of health — plus detection tests showing
/// a violated invariant actually reaches the failure handler.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ceph/ceph.hpp"
#include "core/connect_workflow.hpp"
#include "core/nautilus.hpp"
#include "kube/cluster.hpp"
#include "net/network.hpp"
#include "redis/redis.hpp"
#include "sim/event.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace ck = chase::kube;
namespace cc = chase::cluster;
namespace ce = chase::ceph;
namespace cn = chase::net;
namespace cr = chase::redis;
namespace cs = chase::sim;
namespace cu = chase::util;

namespace {

/// Capture check failures instead of aborting; restores the previous handler
/// (and failure-count-visible state) on destruction.
struct CaptureFailures {
  std::vector<cu::CheckContext> failures;
  cu::CheckFailureHandler prev;
  CaptureFailures() {
    prev = cu::set_check_failure_handler(
        [this](const cu::CheckContext& ctx) { failures.push_back(ctx); });
  }
  ~CaptureFailures() { cu::set_check_failure_handler(std::move(prev)); }
};

struct ScopedAuditLevel {
  int prev;
  explicit ScopedAuditLevel(int level) : prev(cu::set_audit_level(level)) {}
  ~ScopedAuditLevel() { cu::set_audit_level(prev); }
};

// --- the macros and level gating ------------------------------------------------

TEST(CheckFramework, AssertFiresRegardlessOfLevel) {
  CaptureFailures cap;
  ScopedAuditLevel lvl(0);
  CHASE_ASSERT(1 + 1 == 2);
  EXPECT_TRUE(cap.failures.empty());
  CHASE_ASSERT(false, "forced");
  ASSERT_EQ(cap.failures.size(), 1u);
  EXPECT_STREQ(cap.failures[0].kind, "CHASE_ASSERT");
  EXPECT_EQ(cap.failures[0].message, "forced");
  EXPECT_NE(cap.failures[0].line, 0);
}

TEST(CheckFramework, InvariantGatedByLevel) {
  CaptureFailures cap;
  {
    ScopedAuditLevel off(0);
    CHASE_INVARIANT(false, "must be skipped at level 0");
    EXPECT_TRUE(cap.failures.empty());
  }
  {
    ScopedAuditLevel on(1);
    CHASE_INVARIANT(false, "caught at level 1");
    EXPECT_EQ(cap.failures.size(), 1u);
  }
}

TEST(CheckFramework, AuditRequiresLevelTwo) {
  CaptureFailures cap;
  {
    ScopedAuditLevel one(1);
    CHASE_AUDIT(false, "expensive check skipped at level 1");
    EXPECT_TRUE(cap.failures.empty());
  }
  {
    ScopedAuditLevel two(2);
    CHASE_AUDIT(false, "expensive check runs at level 2");
    ASSERT_EQ(cap.failures.size(), 1u);
    EXPECT_STREQ(cap.failures[0].kind, "CHASE_AUDIT");
  }
}

TEST(CheckFramework, FailureCountIncrements) {
  CaptureFailures cap;
  const auto before = cu::check_failure_count();
  CHASE_ASSERT(false);
  CHASE_ASSERT(false);
  EXPECT_EQ(cu::check_failure_count(), before + 2);
}

// --- Simulation: checkpoint machinery + heap invariants -------------------------

TEST(SimAudit, HooksFireDuringRunAndOnDemand) {
  cs::Simulation sim;
  int fired = 0;
  const auto id = sim.add_audit_hook([&fired] { ++fired; });
  EXPECT_EQ(sim.audit_hook_count(), 1u);

  sim.set_audit_interval(8);
  for (int i = 0; i < 100; ++i) sim.schedule(i * 0.1, [] {});
  sim.run();
  // 100 events at interval 8, plus the final quiescent checkpoint.
  EXPECT_GE(fired, 12);

  const int after_run = fired;
  sim.audit_now();
  EXPECT_EQ(fired, after_run + 1);

  sim.remove_audit_hook(id);
  EXPECT_EQ(sim.audit_hook_count(), 0u);
  sim.audit_now();
  EXPECT_EQ(fired, after_run + 1);
}

TEST(SimAudit, CheckInvariantsCleanOnBusyHeap) {
  CaptureFailures cap;
  ScopedAuditLevel lvl(2);
  cs::Simulation sim;
  for (int i = 0; i < 50; ++i) sim.schedule(i * 0.5, [] {});
  sim.check_invariants();
  sim.run(10.0);
  sim.check_invariants();
  EXPECT_TRUE(cap.failures.empty());
}

TEST(SimAudit, FailingHookIsReportedAtCheckpoints) {
  CaptureFailures cap;
  ScopedAuditLevel lvl(1);
  cs::Simulation sim;
  // A subsystem whose invariant is broken: the checkpoint sweep must surface
  // it through the handler rather than silently continuing.
  sim.add_audit_hook([] { CHASE_INVARIANT(false, "corrupted subsystem state"); });
  sim.set_audit_interval(4);
  for (int i = 0; i < 16; ++i) sim.schedule(i * 1.0, [] {});
  sim.run();
  ASSERT_FALSE(cap.failures.empty());
  EXPECT_EQ(cap.failures[0].message, "corrupted subsystem state");
}

// --- Network ------------------------------------------------------------------

TEST(NetAudit, ConservationHoldsMidFlightAndAfterNodeFailure) {
  CaptureFailures cap;
  ScopedAuditLevel lvl(2);
  cs::Simulation sim;
  cn::Network net(sim);
  auto sw = net.add_node("switch");
  std::vector<cn::NodeId> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(net.add_node(std::string("h").append(std::to_string(i))));
    net.add_link(hosts.back(), sw, cu::gbit_per_s(10), 1e-4);
  }
  std::vector<cn::TransferPtr> transfers;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      transfers.push_back(net.transfer(hosts[static_cast<std::size_t>(i)],
                                       hosts[static_cast<std::size_t>(j)], cu::gb(1)));
    }
  }
  sim.run(0.05);
  net.check_invariants();  // mid-flight: flows active, rates assigned
  net.set_node_up(hosts[3], false);
  net.check_invariants();  // failed node: its flows must be torn down cleanly
  sim.run();
  net.check_invariants();
  EXPECT_TRUE(cap.failures.empty());
}

// --- Redis --------------------------------------------------------------------

TEST(RedisAudit, BlpopDisciplineAndExpiryGenerationsHold) {
  CaptureFailures cap;
  ScopedAuditLevel lvl(2);
  cs::Simulation sim;
  cn::Network net(sim);
  cr::RedisServer server(sim);
  auto sw = net.add_node("switch");
  auto server_node = net.add_node("redis");
  auto client_node = net.add_node("worker");
  net.add_link(server_node, sw, cu::gbit_per_s(10), 1e-4);
  net.add_link(client_node, sw, cu::gbit_per_s(10), 1e-4);
  server.host_on(server_node);
  cr::RedisClient client(sim, net, server, client_node);

  // Park BLPOP waiters, then feed them; handoff must never leave a value
  // queued while a waiter is parked (the invariant check_invariants guards).
  static std::string out[4];
  static bool got[4];
  auto waiter = [](cr::RedisClient* c, int w) -> cs::Task {
    co_await c->blpop("queue", &out[w], &got[w]);
  };
  for (int w = 0; w < 4; ++w) sim.spawn(waiter(&client, w));
  sim.schedule(1.0, [&server] {
    for (int i = 0; i < 4; ++i) server.rpush("queue", "job-" + std::to_string(i));
  });
  sim.set_audit_interval(1);  // audit at every event while waiters are parked
  sim.run();
  server.check_invariants();
  for (bool g : got) EXPECT_TRUE(g);
  EXPECT_TRUE(cap.failures.empty());
}

// --- Ceph ---------------------------------------------------------------------

TEST(CephAudit, PlacementAndAccountingHoldAcrossMachineFailure) {
  CaptureFailures cap;
  ScopedAuditLevel lvl(2);
  cs::Simulation sim;
  cn::Network net(sim);
  cc::Inventory inventory(net);
  auto sw = net.add_node("switch");
  auto client = net.add_node("client");
  net.add_link(client, sw, cu::gbit_per_s(40), 1e-4);
  ce::CephCluster::Options opts;
  auto ceph = std::make_unique<ce::CephCluster>(sim, net, inventory, nullptr, opts);
  std::vector<cc::MachineId> machines;
  for (int i = 0; i < 4; ++i) {
    auto name = "stor-" + std::to_string(i);
    auto nn = net.add_node(name);
    net.add_link(nn, sw, cu::gbit_per_s(40), 1e-4);
    machines.push_back(inventory.add(cc::storage_fiona(name, "UCSD", cu::tb(100)), nn));
    ceph->add_osd(machines.back());
  }
  ceph->create_pool("data");
  std::vector<ce::IoPtr> puts;
  for (int i = 0; i < 8; ++i) {
    puts.push_back(ceph->put_async(client, "data", "obj-" + std::to_string(i), cu::gb(2)));
  }
  sim.set_audit_interval(16);
  sim.run();
  for (const auto& p : puts) EXPECT_TRUE(p->ok);
  ceph->check_invariants();

  // Kill a machine mid-recovery churn: replicas must stay on distinct live
  // machines and used-bytes within capacity throughout.
  inventory.set_up(machines[0], false);
  sim.run(sim.now() + 50.0);
  ceph->check_invariants();
  inventory.set_up(machines[0], true);
  sim.run();
  ceph->check_invariants();
  EXPECT_TRUE(cap.failures.empty());
}

// --- Kube ---------------------------------------------------------------------

TEST(KubeAudit, SchedulingQuotaAndOwnerCountsHold) {
  CaptureFailures cap;
  ScopedAuditLevel lvl(2);
  cs::Simulation sim;
  cn::Network net(sim);
  cc::Inventory inventory(net);
  chase::mon::Registry metrics;
  auto sw = net.add_node("switch");
  auto kube = std::make_unique<ck::KubeCluster>(sim, net, inventory, &metrics);
  for (int i = 0; i < 3; ++i) {
    auto name = "fiona8-" + std::to_string(i);
    auto nn = net.add_node(name);
    net.add_link(nn, sw, cu::gbit_per_s(20), 1e-4);
    kube->register_node(inventory.add(cc::fiona8(name, "UCSD"), nn));
  }

  auto sleeper = [](double seconds) -> ck::Program {
    return [seconds](ck::PodContext& ctx) -> cs::Task {
      co_await ctx.sim().sleep(seconds);
    };
  };
  ck::PodSpec spec;
  ck::ContainerSpec c;
  c.requests = {2, cu::gb(4), 1};
  c.program = sleeper(20.0);
  spec.containers.push_back(std::move(c));

  for (int i = 0; i < 12; ++i) {
    auto r = kube->create_pod("default", std::string("p").append(std::to_string(i)), spec);
    ASSERT_TRUE(r.ok()) << r.error;
  }
  sim.set_audit_interval(8);
  sim.run(5.0);
  kube->check_invariants();  // mid-run: some bound, some pending
  sim.run();
  kube->check_invariants();  // quiescent: all terminal, counters drained
  EXPECT_TRUE(cap.failures.empty());
}

// --- end to end: the paper workflow under full audits ---------------------------

TEST(WorkflowAudit, ConnectWorkflowRunsCleanAtLevelTwo) {
  CaptureFailures cap;
  ScopedAuditLevel lvl(2);
  chase::core::Nautilus bed;
  chase::core::ConnectWorkflowParams params;
  params.data_fraction = 0.002;
  params.inference_gpus = 8;
  chase::core::ConnectWorkflow cwf(bed, params);
  auto done = cwf.workflow().start(bed.sim);
  EXPECT_TRUE(chase::sim::run_until(bed.sim, done));
  bed.sim.audit_now();
  EXPECT_TRUE(cap.failures.empty());
}

}  // namespace
