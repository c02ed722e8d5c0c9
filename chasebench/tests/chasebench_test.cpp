/// \file chasebench_test.cpp
/// The benchmark's own tests: every output check rejects a deliberately
/// wrong result, and a reduced-size run of every workload is correct and
/// reports every named metric with a unit, untraced and traced.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checks.hpp"
#include "workloads.hpp"

namespace cb = chasebench;

namespace {

cb::ConnectOutcome good_connect() {
  cb::ConnectOutcome o;
  o.finished = true;
  o.steps = 4;
  o.files_expected = o.files_fetched = 112249;
  o.result_shards = 50;
  o.inference_gpus = 50;
  const double sim_s[4] = {36.7 * 60, 306 * 60, 1182 * 60, 157};
  for (int i = 0; i < 4; ++i) o.step_sim_s[i] = sim_s[i];
  return o;
}

cb::ChurnOutcome good_churn() {
  cb::ChurnOutcome o;
  o.planned = o.issued = o.completed = 100;
  o.bytes_requested = o.bytes_delivered = 1e8;
  return o;
}

cb::FederationOutcome good_federation() {
  cb::FederationOutcome o;
  o.completions = 10;
  o.succeeded = {10, 10, 10};
  o.complete = {true, true, true};
  o.node_crashes = o.expected_node_crashes = 8;
  o.site_partitions = o.expected_site_partitions = 1;
  o.drains = o.expected_drains = 4;
  return o;
}

}  // namespace

TEST(Checks, ConnectAcceptsPaperRun) { EXPECT_TRUE(cb::check_connect(good_connect()).empty()); }

TEST(Checks, ConnectRejectsDroppedFile) {
  auto o = good_connect();
  o.files_fetched -= 1;
  EXPECT_FALSE(cb::check_connect(o).empty());
}

TEST(Checks, ConnectRejectsMissingShard) {
  auto o = good_connect();
  o.result_shards = 49;
  EXPECT_FALSE(cb::check_connect(o).empty());
}

TEST(Checks, ConnectRejectsStepOutsideTable1Band) {
  auto o = good_connect();
  o.step_sim_s[0] = 80 * 60;  // Step 1 at 80 minutes, paper 37
  EXPECT_FALSE(cb::check_connect(o).empty());
}

TEST(Checks, ConnectRejectsUnfinishedWorkflow) {
  auto o = good_connect();
  o.finished = false;
  o.steps = 2;
  EXPECT_FALSE(cb::check_connect(o).empty());
}

TEST(Checks, ReplayRejectsDifferentHash) {
  EXPECT_TRUE(cb::check_replay(42, 42).empty());
  EXPECT_FALSE(cb::check_replay(42, 43).empty());
}

TEST(Checks, FfnRejectsLossAboveFloor) {
  const cb::FfnFloors floors;
  EXPECT_TRUE(cb::check_ffn({0.1, 0.8}, floors).empty());
  EXPECT_FALSE(cb::check_ffn({floors.max_final_loss * 1.5, 0.8}, floors).empty());
}

TEST(Checks, FfnRejectsIouBelowFloor) {
  const cb::FfnFloors floors;
  EXPECT_FALSE(cb::check_ffn({0.1, floors.min_iou / 2}, floors).empty());
  EXPECT_FALSE(cb::check_ffn({0.1, 0.0 / 0.0}, floors).empty());  // NaN never passes
}

TEST(Checks, ChurnAcceptsCleanRound) { EXPECT_TRUE(cb::check_churn(good_churn()).empty()); }

TEST(Checks, ChurnRejectsFailedTransfer) {
  auto o = good_churn();
  o.completed -= 1;
  o.failed = 1;
  EXPECT_FALSE(cb::check_churn(o).empty());
}

TEST(Checks, ChurnRejectsLostBytes) {
  auto o = good_churn();
  o.bytes_delivered -= 2e5;
  EXPECT_FALSE(cb::check_churn(o).empty());
}

TEST(Checks, FederationAcceptsCleanRound) {
  EXPECT_TRUE(cb::check_federation(good_federation()).empty());
}

TEST(Checks, FederationRejectsMissedCompletion) {
  auto o = good_federation();
  o.succeeded[1] = 9;
  EXPECT_FALSE(cb::check_federation(o).empty());
  o = good_federation();
  o.complete[2] = false;
  EXPECT_FALSE(cb::check_federation(o).empty());
}

TEST(Checks, FederationRejectsFaultsThatDidNotFire) {
  auto o = good_federation();
  o.node_crashes = 0;
  EXPECT_FALSE(cb::check_federation(o).empty());
  o = good_federation();
  o.site_partitions = 0;
  EXPECT_FALSE(cb::check_federation(o).empty());
  o = good_federation();
  o.drains = 3;
  EXPECT_FALSE(cb::check_federation(o).empty());
}

// --- reduced-size runs ----------------------------------------------------------

namespace {

const std::vector<std::string> kCommon = {"setup_s",    "wall_s",      "error_rate",
                                          "peak_rss_mb", "op_ms",      "work_per_s"};
const std::vector<std::string> kSimulation = {"events_per_s", "sim_per_wall"};
const std::vector<std::string> kFfn = {"train_examples_per_s", "train_step_s.p50",
                                       "train_step_s.p90",     "infer_voxels_per_s",
                                       "final_loss",           "iou"};
const std::vector<std::string> kLayers = {
    "sim.events",           "sim.run_s",           "sim.event_us.p50",
    "sim.event_us.p99",     "net.transfers",       "net.failed_transfers",
    "net.transfer_us.p50",  "net.transfer_us.p99", "net.bytes_delivered",
    "net.active_flows.mean", "net.active_flows.max", "kube.submit_us.p50",
    "kube.drain_us.p50",    "kube.pods_scheduled", "kube.evictions",
    "kube.pending_sim_s.p50", "kube.pending_sim_s.p90", "thredds.requests",
    "thredds.bytes_served", "thredds.queue.max",   "redis.redeliveries",
    "redis.requeues",       "ceph.bytes_written",  "ceph.bytes_read",
    "wf.step1.wall_s",      "wf.step2.wall_s",     "wf.step3.wall_s",
    "wf.step4.wall_s",      "wf.step1.sim_s",      "wf.step2.sim_s",
    "wf.step3.sim_s",       "wf.step4.sim_s",      "ml.example_ms.p50",
    "ml.forward_ms.p50",    "ml.forward_ms.p90",   "ml.loss_ms.p50",
    "ml.backward_ms.p50",   "ml.backward_ms.p90",  "ml.optimizer_ms.p50",
    "ml.forward_gflops",    "ml.infer_s",          "ml.infer_fov_moves",
    "ml.connect_label_ms",  "chaos.node_crashes",  "chaos.site_partitions",
    "trace.overhead",       "self_share.sim",      "self_share.net",
    "self_share.kube",      "self_share.ml",       "self_share.wf.step1"};

using RunFn = cb::RunResult (*)(const cb::RunConfig&);

struct Case {
  const char* name;
  RunFn run;
  bool simulation;
};

const Case kCases[] = {
    {"connect_paper", cb::run_connect_paper, true},
    {"ffn", cb::run_ffn, false},
    {"churn", cb::run_churn, true},
    {"federation", cb::run_federation, true},
};

void expect_metrics(const cb::RunResult& r, const std::vector<std::string>& names,
                    const char* workload) {
  for (const auto& name : names) {
    const cb::Metric* m = r.find(name);
    ASSERT_NE(m, nullptr) << workload << " lacks " << name;
    EXPECT_FALSE(m->unit.empty()) << workload << " " << name;
  }
}

}  // namespace

class ReducedRun : public ::testing::TestWithParam<Case> {};

TEST_P(ReducedRun, CorrectWithEveryMetric) {
  const Case& c = GetParam();
  for (bool trace : {false, true}) {
    cb::RunConfig config;
    config.seed = 7;
    config.seconds = 0.01;  // minimum op count
    config.reduced = true;
    config.trace = trace;
    const cb::RunResult r = c.run(config);
    EXPECT_GT(r.attempted, 0u) << c.name;
    EXPECT_EQ(r.failed, 0u) << c.name << ": "
                            << (r.failures.empty() ? std::string() : r.failures.front());
    ASSERT_NE(r.find("error_rate"), nullptr);
    EXPECT_EQ(r.find("error_rate")->value, 0.0) << c.name;
    expect_metrics(r, kCommon, c.name);
    expect_metrics(r, c.simulation ? kSimulation : kFfn, c.name);
    if (trace) {
      expect_metrics(r, kLayers, c.name);
      EXPECT_FALSE(r.self_time_table.empty()) << c.name;
      EXPECT_GT(r.find("trace.overhead")->value, 0.0) << c.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ReducedRun, ::testing::ValuesIn(kCases),
                         [](const auto& info) { return std::string(info.param.name); });
