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
///   * scoped recompute leaves disjoint components' live rates untouched;
///   * a capped flow admitted without a fill gets exactly the rates the full
///     fill would give, including caps within a few margins of a link's
///     slack (FastAdmissionMatchesFullFill; the proof it checks is DESIGN.md
///     "Fast admission of capped flows": a link whose slack exceeds the cap
///     cannot become the bottleneck before the cap fires, because every
///     unfrozen flow on it ends at or above the current share, so the
///     bottleneck sequence and every other flow's subtractions are
///     unchanged and the new flow freezes at exactly its cap).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cn = chase::net;
namespace cs = chase::sim;
namespace cu = chase::util;

namespace {

using cu::bits_of;
using cu::fnv1a;

// The replay hash starts from FNV-1a's offset basis with its last decimal
// digit dropped (14695981039346656037 is cu::kFnvOffset).
constexpr std::uint64_t kHashStart = 1469598103934665603ULL;

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
  std::uint64_t fast_admissions = 0;
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
    fast_admissions += w.net.stats().fast_admissions;
  }
  // Capped arrivals that fit their path's slack skip the fill.
  if (capped_share > 0.0) {
    EXPECT_GT(fast_admissions, 0u);
  } else {
    EXPECT_EQ(fast_admissions, 0u);
  }
}

/// A random tree: node i > 0 hangs off a uniformly drawn earlier node, so
/// every pair of nodes has exactly one route and the test can name its
/// links (and so each link's slack) without reaching into the router.
struct RandomTree {
  cs::Simulation sim;
  cn::Network net{sim};
  std::vector<cn::NodeId> parent;
  std::vector<int> depth;
  std::vector<double> capacity;  // per directed link id

  explicit RandomTree(cu::Rng& rng, int n) {
    for (int i = 0; i < n; ++i) {
      const cn::NodeId id = net.add_node(std::string("t").append(std::to_string(i)));
      if (i == 0) {
        parent.push_back(-1);
        depth.push_back(0);
        continue;
      }
      const auto p = static_cast<cn::NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(i)));
      parent.push_back(p);
      depth.push_back(depth[static_cast<std::size_t>(p)] + 1);
      const double bw = rng.uniform(50.0, 400.0);
      net.add_link(p, id, bw, 0.0);
      capacity.push_back(bw);
      capacity.push_back(bw);
    }
  }

  std::vector<cn::LinkId> path(cn::NodeId a, cn::NodeId b) const {
    std::vector<cn::LinkId> up;
    std::vector<cn::LinkId> down;
    while (a != b) {
      if (depth[static_cast<std::size_t>(a)] >= depth[static_cast<std::size_t>(b)]) {
        const cn::NodeId p = parent[static_cast<std::size_t>(a)];
        up.push_back(net.find_link(a, p));
        a = p;
      } else {
        const cn::NodeId p = parent[static_cast<std::size_t>(b)];
        down.push_back(net.find_link(p, b));
        b = p;
      }
    }
    up.insert(up.end(), down.rbegin(), down.rend());
    return up;
  }

  /// Capacity minus the sum of the link's current rates.
  double slack(cn::LinkId l) const {
    const double c = capacity[static_cast<std::size_t>(l)];
    return c - net.link_utilization(l) * c;
  }
};

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

// Fast admission must be invisible: after every capped arrival the live
// rates equal a from-scratch fill bit for bit and every invariant holds,
// including the bound between each link's load and its registry's
// rate sum. Half the arrivals draw their cap within +-2 margins (1e-9 of
// the capacity) of the tightest path link's slack, so both sides of the
// guard's threshold are hit; uncapped arrivals hold links at saturation,
// where capped starts must take the full fill.
TEST(NetScaling, FastAdmissionMatchesFullFill) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::uint64_t fast = 0;
  std::uint64_t full = 0;
  std::uint64_t near_fast = 0;
  std::uint64_t near_full = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    cu::Rng rng(0xFA57AD00ULL + seed);
    RandomTree w(rng, 4 + static_cast<int>(rng.uniform_u64(9)));
    const auto n = static_cast<std::uint64_t>(w.parent.size());
    for (int step = 0; step < 40; ++step) {
      w.sim.run(w.sim.now());  // nothing else due now: slack is current
      const auto src = static_cast<cn::NodeId>(rng.uniform_u64(n));
      auto dst = static_cast<cn::NodeId>(rng.uniform_u64(n));
      if (src == dst) dst = static_cast<cn::NodeId>((static_cast<std::uint64_t>(dst) + 1) % n);
      // The guard's threshold is the path's least (slack - margin).
      double slack = kInf;
      double margin = 0.0;
      for (cn::LinkId l : w.path(src, dst)) {
        const double s = w.slack(l);
        const double m = 1e-9 * w.capacity[static_cast<std::size_t>(l)];
        if (s - m < slack - margin) {
          slack = s;
          margin = m;
        }
      }
      cn::TransferOptions opts;
      const double roll = rng.uniform();
      const bool near = roll >= 0.5;
      if (roll < 0.2) {
        // uncapped: takes every link it crosses to saturation
      } else if (!near) {
        opts.rate_cap = rng.uniform(0.05, 0.6) * std::max(slack, 10.0);
      } else {
        opts.rate_cap = slack + rng.uniform(-2.0, 2.0) * margin;
        if (opts.rate_cap <= 0.0) opts.rate_cap = margin;
      }
      const auto bytes = static_cast<cu::Bytes>(rng.uniform(2e3, 4e4));
      const std::uint64_t fast_before = w.net.stats().fast_admissions;
      const std::uint64_t capped_before = w.net.stats().capped_starts;
      w.net.transfer(src, dst, bytes, opts);
      w.sim.run(w.sim.now());  // the flow starts now (zero latency)
      const bool took_fast = w.net.stats().fast_admissions > fast_before;
      const bool capped = w.net.stats().capped_starts > capped_before;
      fast += took_fast ? 1 : 0;
      full += capped && !took_fast ? 1 : 0;
      if (near && capped) (took_fast ? near_fast : near_full) += 1;
      ASSERT_TRUE(w.net.rates_match_full_recompute())
          << "seed " << seed << " step " << step << (took_fast ? " (fast)" : " (fill)");
      w.net.check_invariants();
      // Let some flows finish so registries drain and loads reset.
      w.sim.run(w.sim.now() + rng.uniform(0.0, 40.0));
      ASSERT_TRUE(w.net.rates_match_full_recompute()) << "seed " << seed << " step " << step;
    }
    w.sim.run();
    ASSERT_EQ(w.net.active_flows(), 0u) << "seed " << seed;
    w.net.check_invariants();
  }
  // Both admission paths ran, on both sides of the threshold.
  EXPECT_GT(fast, 0u);
  EXPECT_GT(full, 0u);
  EXPECT_GT(near_fast, 0u);
  EXPECT_GT(near_full, 0u);
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

  std::uint64_t h = kHashStart;
  w.sim.set_trace_hook([&h](double t, std::uint64_t seq) {
    h = fnv1a(fnv1a(h, bits_of(t)), seq);
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
    ASSERT_EQ(bits_of(net.node_tx_rate(a1)), bits_of(rate_before)) << "iter " << i;
    ASSERT_TRUE(net.rates_match_full_recompute()) << "iter " << i;
  }
  sim.run();
  EXPECT_FALSE(longhaul->failed);
  EXPECT_DOUBLE_EQ(longhaul->finish_time, 10000.0);  // 1e6 B at 100 B/s
}
