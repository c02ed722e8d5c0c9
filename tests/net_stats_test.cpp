/// \file net_stats_test.cpp
/// Exact pins on Network::Stats, the net layer's deterministic work counts
/// (DESIGN.md "Fast admission of capped flows").
///
/// Every rate, deadline and event is pinned elsewhere, bit for bit; these
/// counts pin the *work* behind them. A change that keeps every output bit
/// yet fills more (a recompute widened to its whole component, or capped
/// starts sent back through the full fill) moves at least one of them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/connect_workflow.hpp"
#include "core/nautilus.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace co = chase::core;
namespace cn = chase::net;
namespace cs = chase::sim;
namespace cu = chase::util;

// A fixed schedule of 40 rightward transfers on a six-node line. Most carry
// a cap; whether it fits under the path's slack depends on what else is
// running, so both admission paths run (17 of the 37 capped starts skip
// the fill). Flows overlap on shared hops, so a component spans more
// links than one scope does.
TEST(NetStats, CappedLinePinned) {
  cs::Simulation sim;
  cn::Network net(sim);
  std::vector<cn::NodeId> n;
  for (int i = 0; i < 6; ++i) {
    n.push_back(net.add_node(std::string("n").append(std::to_string(i))));
  }
  const double bw[5] = {1000.0, 600.0, 800.0, 500.0, 900.0};
  for (std::size_t i = 0; i < 5; ++i) net.add_link(n[i], n[i + 1], bw[i], 0.0);

  cu::Rng rng(0x57A75ULL);
  std::vector<cn::TransferPtr> handles;
  for (int k = 0; k < 40; ++k) {
    const std::size_t a = rng.uniform_u64(5);
    const std::size_t b = a + 1 + rng.uniform_u64(5 - a);
    cn::TransferOptions opts;
    const double roll = rng.uniform();
    if (roll < 0.7) {
      opts.rate_cap = rng.uniform(10.0, 80.0);
    } else if (roll < 0.9) {
      opts.rate_cap = rng.uniform(300.0, 900.0);
    }
    const auto bytes = static_cast<cu::Bytes>(rng.uniform(500.0, 5000.0));
    sim.schedule(2.0 * k, [&net, &handles, src = n[a], dst = n[b], bytes, opts] {
      handles.push_back(net.transfer(src, dst, bytes, opts));
    });
  }
  sim.run();
  ASSERT_EQ(handles.size(), 40u);
  for (const auto& h : handles) ASSERT_FALSE(h->failed);

  const cn::Network::Stats& s = net.stats();
  EXPECT_EQ(s.capped_starts, 37u);
  EXPECT_EQ(s.fast_admissions, 17u);
  EXPECT_EQ(s.recomputes, 62u);
  EXPECT_EQ(s.fills, 81u);
  EXPECT_EQ(s.fill_links, 392u);
}

// The CONNECT workflow at the integration tests' reduced scale: Step 1's
// THREDDS downloads are capped Aria2 connections, and at this scale every
// one of them starts without a fill.
TEST(NetStats, ConnectWorkflowPinned) {
  co::Nautilus bed;
  co::ConnectWorkflowParams params;
  params.data_fraction = 5e-4;
  params.download_workers = 4;
  params.merge_pods = 1;
  params.url_lists = 8;
  params.inference_gpus = 8;
  params.viz_render_seconds = 5.0;
  co::ConnectWorkflow cwf(bed, params);
  auto done = cwf.workflow().start(bed.sim);
  ASSERT_TRUE(cs::run_until(bed.sim, done));
  ASSERT_EQ(cwf.workflow().reports().size(), 4u);

  const cn::Network::Stats& s = bed.net.stats();
  EXPECT_EQ(s.capped_starts, 56u);
  EXPECT_EQ(s.fast_admissions, 56u);
  EXPECT_EQ(s.recomputes, 278u);
  EXPECT_EQ(s.fills, 340u);
  EXPECT_EQ(s.fill_links, 1675u);
}
