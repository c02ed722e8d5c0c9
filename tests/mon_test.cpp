#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <type_traits>

#include "mon/metrics.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace cm = chase::mon;
namespace cs = chase::sim;

TEST(TimeSeries, Stats) {
  cm::TimeSeries ts;
  ts.append(0, 1);
  ts.append(10, 5);
  ts.append(20, 3);
  EXPECT_DOUBLE_EQ(ts.max_over_time(), 5);
  EXPECT_DOUBLE_EQ(ts.last(), 3);
}

TEST(TimeSeries, ValueAtStepInterpolation) {
  cm::TimeSeries ts;
  ts.append(10, 1);
  ts.append(20, 2);
  EXPECT_DOUBLE_EQ(ts.value_at(5), 0);
  EXPECT_DOUBLE_EQ(ts.value_at(10), 1);
  EXPECT_DOUBLE_EQ(ts.value_at(15), 1);
  EXPECT_DOUBLE_EQ(ts.value_at(25), 2);
}

TEST(TimeSeries, EmptySeriesSafe) {
  cm::TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.max_over_time(), 0);
  EXPECT_DOUBLE_EQ(ts.last(), 0);
  EXPECT_DOUBLE_EQ(ts.value_at(100), 0);
}

TEST(Registry, ProbeSampling) {
  cs::Simulation sim;
  cm::Registry reg;
  double cpu = 0.0;
  reg.register_probe("cpu", {{"pod", "w1"}}, [&] { return cpu; });
  auto stop = cs::make_event();
  reg.start_sampler(sim, 10.0, stop);
  sim.schedule(15.0, [&] { cpu = 4.0; });
  sim.schedule(35.0, [&] { stop->trigger(sim); });
  sim.run(60.0);
  const auto* ts = reg.find("cpu", {{"pod", "w1"}});
  ASSERT_NE(ts, nullptr);
  // Samples at t=0,10,20,30,40 (final sample after stop fired).
  ASSERT_GE(ts->samples().size(), 4u);
  EXPECT_DOUBLE_EQ(ts->value_at(10), 0.0);
  EXPECT_DOUBLE_EQ(ts->value_at(20), 4.0);
}

TEST(Registry, SamplerStopsAfterEvent) {
  cs::Simulation sim;
  cm::Registry reg;
  reg.register_probe("g", {}, [] { return 1.0; });
  auto stop = cs::make_event();
  reg.start_sampler(sim, 5.0, stop);
  sim.schedule(12.0, [&] { stop->trigger(sim); });
  sim.run(1000.0);
  // The queue must drain: no endless sampler.
  EXPECT_TRUE(sim.empty());
}

TEST(Registry, SelectByLabelSubset) {
  cm::Registry reg;
  reg.record("mem", {{"pod", "a"}, {"step", "1"}}, 0, 10);
  reg.record("mem", {{"pod", "b"}, {"step", "1"}}, 0, 20);
  reg.record("mem", {{"pod", "c"}, {"step", "2"}}, 0, 40);
  EXPECT_EQ(reg.select("mem").size(), 3u);
  EXPECT_EQ(reg.select("mem", {{"step", "1"}}).size(), 2u);
  EXPECT_EQ(reg.select("mem", {{"step", "2"}}).size(), 1u);
  EXPECT_EQ(reg.select("other").size(), 0u);
}

TEST(Registry, SumAtAndMaxSum) {
  cm::Registry reg;
  reg.record("mem", {{"pod", "a"}}, 0, 10);
  reg.record("mem", {{"pod", "a"}}, 10, 30);
  reg.record("mem", {{"pod", "b"}}, 0, 5);
  reg.record("mem", {{"pod", "b"}}, 10, 1);
  EXPECT_DOUBLE_EQ(reg.sum_at("mem", {}, 0), 15);
  EXPECT_DOUBLE_EQ(reg.sum_at("mem", {}, 10), 31);
  EXPECT_DOUBLE_EQ(reg.max_sum("mem", {}), 31);
  reg.record("dup", {{"pod", "a"}}, 0, 5);
  reg.record("dup", {{"pod", "a"}}, 0, 2);  // the later sample at t=0 counts
  reg.record("dup", {{"pod", "b"}}, 1, 1);
  EXPECT_DOUBLE_EQ(reg.max_sum("dup", {}), 3.0);  // t=1: 2 + 1, not 5 + 1
  EXPECT_DOUBLE_EQ(reg.max_sum("none", {}), 0.0);
}

TEST(Registry, UnregisterProbeStopsSampling) {
  cs::Simulation sim;
  cm::Registry reg;
  reg.register_probe("x", {{"i", "1"}}, [] { return 1.0; });
  reg.sample_now(0);
  reg.unregister_probe("x", {{"i", "1"}});
  reg.sample_now(1);
  EXPECT_EQ(reg.find("x", {{"i", "1"}})->samples().size(), 1u);
}

TEST(Registry, ChartContainsSeriesName) {
  cm::Registry reg;
  for (int i = 0; i < 10; ++i) reg.record("gpu", {{"pod", "inf-0"}}, i, i % 3);
  std::string chart = reg.chart("GPU usage", "gpus", "gpu");
  EXPECT_NE(chart.find("inf-0"), std::string::npos);
  EXPECT_NE(chart.find("GPU usage"), std::string::npos);
}

TEST(Registry, KeyToString) {
  EXPECT_EQ(cm::key_to_string({"cpu", {}}), "cpu");
  EXPECT_EQ(cm::key_to_string({"cpu", {{"pod", "a"}}}), "cpu{pod=a}");
}

namespace {

/// Registry::max_sum as it was before the sweep: a std::set grid of every
/// selected sample time, and sum_at (a binary search per series) at each.
double grid_max_sum(const cm::Registry& reg, const std::string& name,
                    const cm::Labels& selector) {
  std::set<double> grid;
  for (const auto& [key, ts] : reg.select(name, selector)) {
    for (auto [t, v] : ts->samples()) grid.insert(t);
  }
  double best = 0.0;
  for (double t : grid) best = std::max(best, reg.sum_at(name, selector, t));
  return best;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

TEST(Registry, MaxSumMatchesGridReference) {
  // The sweep must make exactly sum_at's additions at exactly the grid's
  // times, so its result is compared bit for bit. Values mix magnitudes so a
  // reordered sum would round differently.
  chase::util::Rng rng(0x5EEDu);
  const double kValues[] = {-0.0, 0.0, 1.0, -1.0, 0.1, -0.3, 1e16, -1e16, 3.5, 1e-300};
  int nonzero = 0;
  for (int c = 0; c < 400; ++c) {
    cm::Registry reg;
    const int series = 1 + static_cast<int>(rng.uniform_u64(6));
    for (int i = 0; i < series; ++i) {
      const cm::Labels labels = {{"pod", std::string("p").append(std::to_string(i))},
                                 {"grp", std::to_string(i % 2)}};
      if (rng.chance(0.1)) {
        reg.series("m", labels);  // selected but never sampled
        continue;
      }
      // Late starts, early ends, shared integer times, disjoint fractional
      // ones, and repeated times within the series.
      double t = static_cast<double>(rng.uniform_u64(8));
      const double end = t + static_cast<double>(rng.uniform_u64(16));
      while (t <= end) {
        const double v = rng.chance(0.7) ? kValues[rng.uniform_u64(10)]
                                         : rng.normal(0.0, 100.0);
        reg.record("m", labels, t, v);
        if (rng.chance(0.15)) continue;  // same time again
        t += rng.chance(0.7) ? 1.0 : 0.25 + 0.5 * rng.uniform();
      }
    }
    reg.record("other", {{"pod", "p0"}, {"grp", "0"}}, 1.0, 1e300);  // never selected
    for (const cm::Labels& selector :
         {cm::Labels{}, cm::Labels{{"grp", "0"}}, cm::Labels{{"grp", "1"}},
          cm::Labels{{"pod", "p1"}}, cm::Labels{{"grp", "9"}}}) {
      const double want = grid_max_sum(reg, "m", selector);
      const double got = reg.max_sum("m", selector);
      EXPECT_TRUE(same_bits(got, want))
          << "case " << c << ": sweep " << got << " vs grid " << want;
      nonzero += want != 0.0;
    }
  }
  EXPECT_GT(nonzero, 1000);  // the cases exercise real sums, not empty sets
}

TEST(Registry, ProbeHandles) {
  cm::Registry reg;
  // Registered and dropped before any sample: no series is created.
  reg.register_probe("ghost", {{"i", "1"}}, [] { return 7.0; });
  reg.unregister_probe("ghost", {{"i", "1"}});

  // Re-registering a key after unregistering it appends to the same series.
  reg.register_probe("x", {{"i", "1"}}, [] { return 1.0; });
  // Two live probes on one key both sample into one series.
  reg.register_probe("y", {}, [] { return 10.0; });
  reg.register_probe("y", {}, [] { return 20.0; });
  reg.register_probe("z", {}, [] { return 3.0; });
  reg.sample_now(0);
  reg.unregister_probe("x", {{"i", "1"}});  // shifts later probes down
  reg.sample_now(1);
  reg.register_probe("x", {{"i", "1"}}, [] { return 2.0; });
  reg.sample_now(2);

  EXPECT_EQ(reg.find("ghost", {{"i", "1"}}), nullptr);
  EXPECT_TRUE(reg.select("ghost").empty());
  const auto* x = reg.find("x", {{"i", "1"}});
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(reg.select("x").size(), 1u);
  EXPECT_EQ(x->samples(), (std::vector<std::pair<double, double>>{{0, 1}, {2, 2}}));
  const auto* y = reg.find("y");
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->samples(), (std::vector<std::pair<double, double>>{
                              {0, 10}, {0, 20}, {1, 10}, {1, 20}, {2, 10}, {2, 20}}));
  const auto* z = reg.find("z");
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->samples(),
            (std::vector<std::pair<double, double>>{{0, 3}, {1, 3}, {2, 3}}));
  EXPECT_EQ(reg.select("y").size(), 1u);
  static_assert(!std::is_copy_constructible_v<cm::Registry> &&
                    !std::is_copy_assignable_v<cm::Registry>,
                "a copied registry's probes would append to the original's series");
}
