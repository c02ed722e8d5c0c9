/// Cross-module integration tests: the full workflow under failure
/// injection, concurrent multi-tenant load, scheduler policies, and the
/// Kepler export.

#include <gtest/gtest.h>

#include "core/connect_workflow.hpp"
#include "core/nautilus.hpp"

namespace co = chase::core;
namespace cw = chase::wf;
namespace ck = chase::kube;
namespace cs = chase::sim;
namespace cu = chase::util;

TEST(Integration, WorkflowSurvivesNodeFailuresMidRun) {
  co::Nautilus bed;
  co::ConnectWorkflowParams params;
  params.data_fraction = 5e-4;
  params.download_workers = 4;
  params.merge_pods = 1;
  params.url_lists = 8;
  params.inference_gpus = 8;
  params.viz_render_seconds = 5.0;
  co::ConnectWorkflow cwf(bed, params);

  // Kill a GPU node during step 1 and another during step 3; bring the
  // first one back later. Every controller must converge regardless.
  bed.sim.schedule(120.0, [&] { bed.inventory.set_up(bed.gpu_machines()[0], false); });
  bed.sim.schedule(2000.0, [&] { bed.inventory.set_up(bed.gpu_machines()[1], false); });
  bed.sim.schedule(4000.0, [&] { bed.inventory.set_up(bed.gpu_machines()[0], true); });

  auto done = cwf.workflow().start(bed.sim);
  ASSERT_TRUE(cs::run_until(bed.sim, done));
  ASSERT_EQ(cwf.workflow().reports().size(), 4u);
  for (const auto& report : cwf.workflow().reports()) {
    EXPECT_GT(report.duration(), 0.0) << report.name;
  }
  // The results made it to storage despite the churn.
  EXPECT_TRUE(bed.fs->exists("/models/ffn-ckpt"));
  EXPECT_EQ(bed.fs->list("/results/").size(),
            static_cast<std::size_t>(params.inference_gpus));
}

TEST(Integration, WorkflowAndTenantsShareTheCluster) {
  co::Nautilus bed;
  // A competing tenant occupies GPUs while the workflow runs.
  bed.kube->create_namespace("carl-uci");
  ck::JobSpec other;
  other.ns = "carl-uci";
  other.name = "rl-training";
  other.completions = 6;
  other.parallelism = 6;
  ck::ContainerSpec c;
  c.requests = {2, cu::gb(16), 4};
  c.program = [](ck::PodContext& ctx) -> cs::Task {
    co_await ctx.gpu_compute(4 * 1200.0);
  };
  other.pod_template.containers.push_back(std::move(c));
  auto other_job = bed.kube->create_job(other).value;

  co::ConnectWorkflowParams params;
  params.data_fraction = 5e-4;
  params.download_workers = 4;
  params.merge_pods = 1;
  params.url_lists = 8;
  params.inference_gpus = 20;
  params.viz_render_seconds = 5.0;
  co::ConnectWorkflow cwf(bed, params);
  auto done = cwf.workflow().start(bed.sim);
  ASSERT_TRUE(cs::run_until(bed.sim, done));
  bed.sim.run();
  EXPECT_TRUE(other_job->complete);
  EXPECT_EQ(cwf.workflow().reports().size(), 4u);
}

TEST(Integration, BinPackPolicyConsolidates) {
  auto count_busy_nodes = [](ck::KubeCluster::SchedulingPolicy policy) {
    co::NautilusOptions nopts;
    nopts.kube_options.policy = policy;
    co::Nautilus bed(nopts);
    for (int i = 0; i < 8; ++i) {
      ck::PodSpec spec;
      ck::ContainerSpec c;
      c.requests = {2, cu::gb(8), 1};
      c.program = [](ck::PodContext& ctx) -> cs::Task {
        co_await ctx.sim().sleep(1e5);
      };
      spec.containers.push_back(std::move(c));
      bed.kube->create_pod("default", std::string("p").append(std::to_string(i)),
                           std::move(spec));
    }
    bed.sim.run(60.0);
    int busy = 0;
    std::size_t bound = 0;
    for (auto machine : bed.gpu_machines()) {
      const auto& pods = bed.kube->node(machine).pods;
      busy += !pods.empty();
      bound += pods.size();
    }
    EXPECT_EQ(bound, 8u) << "every pod binds under either policy";
    return busy;
  };
  const int spread = count_busy_nodes(ck::KubeCluster::SchedulingPolicy::Spread);
  const int packed = count_busy_nodes(ck::KubeCluster::SchedulingPolicy::BinPack);
  EXPECT_EQ(spread, 8);  // one pod per node
  EXPECT_EQ(packed, 1);  // 8 pods x (2 CPU, 8 GB, 1 GPU) fill one FIONA8
}

TEST(Integration, KeplerExportDescribesExecutedWorkflow) {
  co::Nautilus bed;
  co::ConnectWorkflowParams params;
  params.data_fraction = 1e-4;
  params.download_workers = 2;
  params.merge_pods = 1;
  params.url_lists = 4;
  params.inference_gpus = 2;
  params.viz_render_seconds = 2.0;
  co::ConnectWorkflow cwf(bed, params);
  auto done = cwf.workflow().start(bed.sim);
  ASSERT_TRUE(cs::run_until(bed.sim, done));
  const std::string moml = cwf.workflow().export_kepler();
  EXPECT_NE(moml.find("<?xml"), std::string::npos);
  EXPECT_NE(moml.find("Step 1: THREDDS download"), std::string::npos);
  EXPECT_NE(moml.find("Step 4: JupyterLab visualization"), std::string::npos);
  EXPECT_NE(moml.find("measured.duration"), std::string::npos);
  // Sequential chain: 3 relations for 4 steps.
  std::size_t relations = 0, pos = 0;
  while ((pos = moml.find("<relation", pos)) != std::string::npos) {
    ++relations;
    ++pos;
  }
  EXPECT_EQ(relations, 3u);
}

TEST(Integration, DeterministicAcrossRuns) {
  auto run_once = [] {
    co::Nautilus bed;
    co::ConnectWorkflowParams params;
    params.data_fraction = 2e-4;
    params.download_workers = 3;
    params.merge_pods = 1;
    params.url_lists = 5;
    params.inference_gpus = 4;
    params.viz_render_seconds = 3.0;
    co::ConnectWorkflow cwf(bed, params);
    auto done = cwf.workflow().start(bed.sim);
    cs::run_until(bed.sim, done);
    std::vector<double> durations;
    for (const auto& r : cwf.workflow().reports()) durations.push_back(r.duration());
    return durations;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "step " << i;
  }
}
