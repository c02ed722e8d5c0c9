/// \file net_scaling_test.cpp
/// Property tests for the scoped max-min recompute and lazy settlement
/// (DESIGN.md "Incremental max-min rate updates").
///
/// The incremental formulation is only allowed to be *faster* than the
/// all-components recompute — never different. These tests drive the two
/// implementations against each other over randomized topologies and churn
/// sequences, and pin down the observable contracts the optimization must
/// preserve:
///
///   * bit-identical rates vs. a from-scratch progressive filling after
///     every mutation (rates_match_full_recompute), across >= 100 random
///     topology/churn schedules including link flaps and degradations,
///     with uncapped and with rate-capped arrivals;
///   * exact byte conservation under lazy per-flow settlement;
///   * bit-identical event traces across replays, including chaos-style
///     link flap schedules (the determinism contract that bench_compare
///     and tools/determinism_check rely on);
///   * scoped recompute leaves disjoint components' live rates untouched.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cn = chase::net;
namespace cs = chase::sim;
namespace cu = chase::util;

namespace {

// FNV-1a over the event trace: the same fingerprint scheme as
// tools/determinism_check, reimplemented locally so the test stays a
// plain gtest binary.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// A random connected topology: a spanning chain (guarantees one
/// component) plus a few chords, with mixed bandwidths so bottlenecks land
/// on different links per seed.
struct RandomTopo {
  cs::Simulation sim;
  cn::Network net{sim};
  std::vector<cn::NodeId> nodes;
  std::vector<cn::LinkId> links;

  explicit RandomTopo(cu::Rng& rng, int n) {
    nodes.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      nodes.push_back(net.add_node(std::string("n").append(std::to_string(i))));
    }
    for (int i = 1; i < n; ++i) {
      links.push_back(net.add_link(nodes[static_cast<std::size_t>(i - 1)],
                                   nodes[static_cast<std::size_t>(i)],
                                   rng.uniform(50.0, 400.0), 0.0));
    }
    const int chords = static_cast<int>(rng.uniform_u64(3));
    for (int c = 0; c < chords && n > 2; ++c) {
      const auto a = rng.uniform_u64(static_cast<std::uint64_t>(n));
      auto b = rng.uniform_u64(static_cast<std::uint64_t>(n));
      if (a == b) b = (b + 1) % static_cast<std::uint64_t>(n);
      if (net.find_link(nodes[a], nodes[b]) >= 0) continue;
      links.push_back(net.add_link(nodes[a], nodes[b], rng.uniform(50.0, 400.0), 0.0));
    }
  }

  cn::NodeId pick_node(cu::Rng& rng) const {
    return nodes[rng.uniform_u64(nodes.size())];
  }
  cn::LinkId pick_link(cu::Rng& rng) const {
    return links[rng.uniform_u64(links.size())];
  }
};

/// One pass of the churn property: 120 seeded schedules (seed_base + i) of
/// ~30 mutations each. `capped_share` of arrivals carry a finite rate_cap
/// of 5-150 B/s, below most link capacities, so the fill mixes real caps
/// with boundary twins; 0 keeps every arrival uncapped and draws nothing
/// extra from the schedule's Rng.
void churn_matches_full_recompute(std::uint64_t seed_base, double capped_share) {
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    cu::Rng rng(seed_base + seed);
    const int n = 3 + static_cast<int>(rng.uniform_u64(8));
    RandomTopo w(rng, n);

    std::vector<cn::TransferPtr> handles;
    const int steps = 25 + static_cast<int>(rng.uniform_u64(15));
    for (int step = 0; step < steps; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.55) {
        // Arrival: a fresh flow between random endpoints.
        auto src = w.pick_node(rng);
        auto dst = w.pick_node(rng);
        if (src == dst) dst = w.nodes[(static_cast<std::size_t>(dst) + 1) % w.nodes.size()];
        const auto bytes = static_cast<cu::Bytes>(rng.uniform(1e3, 5e4));
        cn::TransferOptions opts;
        if (capped_share > 0.0 && rng.uniform() < capped_share) {
          opts.rate_cap = rng.uniform(5.0, 150.0);
        }
        handles.push_back(w.net.transfer(src, dst, bytes, opts));
      } else if (roll < 0.75) {
        // Completion churn: run the event loop a little so some flows
        // finish and their removal re-runs the scoped recompute.
        for (int k = 0; k < 8 && w.sim.step(); ++k) {
        }
      } else if (roll < 0.9) {
        // Chaos-style flap: both the fail path and the heal path re-rate.
        const auto l = w.pick_link(rng);
        w.net.set_link_up(l, false);
        ASSERT_TRUE(w.net.rates_match_full_recompute())
            << "seed " << seed << " step " << step << " (link down)";
        w.net.set_link_up(l, true);
      } else {
        // Degradation: shrink or restore capacity under live flows.
        w.net.set_link_bandwidth_factor(w.pick_link(rng), rng.uniform(0.1, 1.0));
      }
      ASSERT_TRUE(w.net.rates_match_full_recompute())
          << "seed " << seed << " step " << step;
      w.net.check_invariants();
    }

    // Drain: every completion exercises the removal path one more time.
    while (w.sim.step()) {
    }
    ASSERT_TRUE(w.net.rates_match_full_recompute()) << "seed " << seed << " (drained)";
    ASSERT_EQ(w.net.active_flows(), 0u) << "seed " << seed;
    w.net.check_invariants();
  }
}

}  // namespace

// The core property: after EVERY mutation the incremental rates are
// bit-identical to a from-scratch progressive filling over all components,
// across flow arrivals (the scoped recompute's add path), drained
// completions (the remove path), link flaps (fail + re-rate), and
// bandwidth degradation (re-rate in place). Uncapped arrivals take the
// lean-twin cap-run fill; the capped pass puts real rate caps in most
// fills, which routes boundary twins through the monolithic sorted path.
TEST(NetScaling, RandomChurnMatchesFullRecompute) {
  {
    SCOPED_TRACE("uncapped arrivals");
    ASSERT_NO_FATAL_FAILURE(churn_matches_full_recompute(0xABCD0000ULL, 0.0));
  }
  {
    SCOPED_TRACE("40% capped arrivals");
    ASSERT_NO_FATAL_FAILURE(churn_matches_full_recompute(0xCA900000ULL, 0.4));
  }
}

// Lazy settlement must not lose or invent bytes: once the sim drains,
// cumulative delivered bytes equal the sum of successfully completed
// transfer sizes exactly (every flow's final settle runs at completion),
// and mid-run the on-the-fly accrual in total_bytes_delivered() is
// monotone non-decreasing.
TEST(NetScaling, LazySettlementConservesBytes) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    cu::Rng rng(0xBEEF0000ULL + seed);
    RandomTopo w(rng, 6);

    double expected = 0.0;
    std::vector<cn::TransferPtr> handles;
    for (int i = 0; i < 40; ++i) {
      auto src = w.pick_node(rng);
      auto dst = w.pick_node(rng);
      if (src == dst) dst = w.nodes[(static_cast<std::size_t>(dst) + 1) % w.nodes.size()];
      const auto bytes = static_cast<cu::Bytes>(rng.uniform(1e3, 1e5));
      handles.push_back(w.net.transfer(src, dst, bytes));
    }

    double last = 0.0;
    while (w.sim.step()) {
      const double d = w.net.total_bytes_delivered();
      ASSERT_GE(d, last) << "seed " << seed;
      last = d;
    }
    for (const auto& h : handles) {
      ASSERT_FALSE(h->failed) << "seed " << seed;
      expected += static_cast<double>(h->bytes);
    }
    EXPECT_NEAR(w.net.total_bytes_delivered(), expected, expected * 1e-9)
        << "seed " << seed;
    w.net.check_invariants();
  }
}

namespace {

/// One fixed churn-plus-chaos schedule; returns the FNV-1a fingerprint of
/// the full (time, seq) event trace — the replay-determinism observable.
std::uint64_t traced_run(bool with_flaps) {
  cu::Rng rng(0x5EED5EEDULL);
  RandomTopo w(rng, 8);

  std::uint64_t h = kFnvOffset;
  w.sim.set_trace_hook([&h](double t, std::uint64_t seq) {
    h = fnv1a(fnv1a(h, bits(t)), seq);
  });

  for (int i = 0; i < 60; ++i) {
    auto src = w.pick_node(rng);
    auto dst = w.pick_node(rng);
    if (src == dst) dst = w.nodes[(static_cast<std::size_t>(dst) + 1) % w.nodes.size()];
    w.net.transfer(src, dst, static_cast<cu::Bytes>(rng.uniform(1e3, 1e5)));
    if (with_flaps && i % 12 == 7) {
      // Chaos-style mid-run flap: fail a random link, then heal it a few
      // events later so surviving flows are re-rated twice.
      const auto l = w.pick_link(rng);
      w.net.set_link_up(l, false);
      for (int k = 0; k < 4 && w.sim.step(); ++k) {
      }
      w.net.set_link_up(l, true);
    }
    for (int k = 0; k < 6 && w.sim.step(); ++k) {
    }
  }
  while (w.sim.step()) {
  }
  EXPECT_TRUE(w.net.rates_match_full_recompute());
  return fnv1a(h, w.sim.events_processed());
}

}  // namespace

// Replaying the same seeded schedule must reproduce the event trace
// bit-for-bit — the incremental recompute introduces no iteration-order or
// accumulation-order dependence. Covered both with and without the chaos
// flap schedule (the fail/heal paths take different recompute scopes).
TEST(NetScaling, DeterminismHashReplays) {
  EXPECT_EQ(traced_run(false), traced_run(false));
  EXPECT_EQ(traced_run(true), traced_run(true));
  EXPECT_NE(traced_run(false), traced_run(true));  // flaps do change the trace
}

// Churn in one component must not even touch flows in another: a
// disconnected pair's rate stays bit-identical (no settle, no re-rate)
// while an unrelated component churns through arrivals and completions.
TEST(NetScaling, ScopedRecomputeLeavesOtherComponentsUntouched) {
  cs::Simulation sim;
  cn::Network net(sim);
  // Component A: one long-lived flow at full bandwidth.
  const auto a1 = net.add_node("a1");
  const auto a2 = net.add_node("a2");
  net.add_link(a1, a2, 100.0, 0.0);
  // Component B: disjoint churn factory.
  const auto b1 = net.add_node("b1");
  const auto b2 = net.add_node("b2");
  net.add_link(b1, b2, 250.0, 0.0);

  auto longhaul = net.transfer(a1, a2, 1'000'000);
  // The flow starts via a scheduled event; step until its rate is live.
  while (net.node_tx_rate(a1) == 0.0 && sim.step()) {
  }
  const double rate_before = net.node_tx_rate(a1);
  EXPECT_DOUBLE_EQ(rate_before, 100.0);

  cu::Rng rng(0x0FF5CALL);
  for (int i = 0; i < 30; ++i) {
    auto churn = net.transfer(b1, b2, static_cast<cu::Bytes>(rng.uniform(1e2, 1e4)));
    // Step exactly until this churn flow completes — no further, or the
    // next popped event would be the longhaul's own (far-future)
    // completion.
    while (churn->finish_time < 0.0 && sim.step()) {
    }
    // Bit-identical, not just close: A was never in B's recompute scope.
    ASSERT_EQ(bits(net.node_tx_rate(a1)), bits(rate_before)) << "iter " << i;
    ASSERT_TRUE(net.rates_match_full_recompute()) << "iter " << i;
  }
  sim.run();
  EXPECT_FALSE(longhaul->failed);
  EXPECT_DOUBLE_EQ(longhaul->finish_time, 10000.0);  // 1e6 B at 100 B/s
}
