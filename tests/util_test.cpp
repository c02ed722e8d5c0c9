#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "util/chart.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace cu = chase::util;

TEST(Units, ByteFormatting) {
  EXPECT_EQ(cu::format_bytes(0), "0B");
  EXPECT_EQ(cu::format_bytes(17), "17B");
  EXPECT_EQ(cu::format_bytes(cu::kGB * 246), "246GB");
  EXPECT_EQ(cu::format_bytes(381e6), "381MB");
  EXPECT_EQ(cu::format_bytes(5.8e9), "5.80GB");
  EXPECT_EQ(cu::format_bytes(1.2e15), "1.20PB");
}

TEST(Units, RateFormatting) {
  EXPECT_EQ(cu::format_rate(593e6), "593MB/s");
  EXPECT_EQ(cu::format_rate(2.64e9), "2.64GB/s");
}

TEST(Units, DurationFormatting) {
  EXPECT_EQ(cu::format_duration(37 * 60), "37m");
  EXPECT_EQ(cu::format_duration(1133 * 60), "18h53m");
  EXPECT_EQ(cu::format_duration(306 * 60), "5h06m");
  EXPECT_EQ(cu::format_duration(4.2), "4.2s");
  EXPECT_EQ(cu::format_duration(0.05), "50ms");
}

TEST(Units, LinkSpeeds) {
  EXPECT_DOUBLE_EQ(cu::gbit_per_s(10), 1.25e9);
  EXPECT_DOUBLE_EQ(cu::gbit_per_s(100), 12.5e9);
}

TEST(Units, ByteLiterals) {
  EXPECT_EQ(cu::gb(1), 1'000'000'000u);
  EXPECT_EQ(cu::mb(381), 381'000'000u);
}

TEST(Rng, Deterministic) {
  cu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  cu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  cu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64Unbiased) {
  cu::Rng rng(9);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_u64(7)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 7.0, 5 * std::sqrt(n / 7.0));
  }
}

TEST(Rng, NormalMoments) {
  cu::Rng rng(11);
  const int n = 50000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal(3.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ExponentialMean) {
  cu::Rng rng(13);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

// Every committed event count and replay hash rests on the platform libm
// rounding log and cos exactly as the machine that pinned them did:
// Rng::normal calls log, cos and sqrt, Rng::exponential calls log, and CRUSH
// straw2 takes log(u) of u = (h >> 11) + 1 over 2^53, u in (0, 1]. Their bits
// are pinned here, so a libm that rounds differently fails this test by name
// instead of moving an event count somewhere downstream.
TEST(Rng, LibmCanary) {
  const auto expect_bits = [](double got, double want, const char* what, int i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << what << " #" << i << ": got " << std::hexfloat << got << ", want " << want;
  };
  cu::Rng normal_rng(1);
  const double normals[] = {-0x1.aa5d15d61bbdep-1, -0x1.a277e54872b51p-1,
                            0x1.0d9c8553273ep-1,   -0x1.b02898a315caap+0,
                            -0x1.0311d513a4fb3p-1, 0x1.70e173aebb381p-2};
  for (int i = 0; i < 6; ++i) expect_bits(normal_rng.normal(), normals[i], "normal", i);

  cu::Rng exp_rng(2);
  const double exponentials[] = {0x1.23f8b9aceedcbp+1, 0x1.48923e806df68p-2,
                                 0x1.b169ff599404cp+0, 0x1.2985e806e79c6p-2,
                                 0x1.81b300cd5f105p-2, 0x1.71a8a196266d8p+0};
  for (int i = 0; i < 6; ++i) {
    expect_bits(exp_rng.exponential(1.0), exponentials[i], "exponential", i);
  }

  const auto straw_u = [](std::uint64_t h) {
    return (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
  };
  const double straw_logs[] = {-0x1.ff041c60e5c14p-1, -0x1.1ed185fb17f82p+1,
                               -0x1.0715047c2274dp+0, -0x1.3fa3f670f58ebp+0,
                               -0x1.4614c40356f5cp+1, -0x1.11535193f61c2p+0};
  for (int i = 0; i < 6; ++i) {
    const double u = straw_u(cu::hash_combine(3, static_cast<std::uint64_t>(i)));
    expect_bits(std::log(u), straw_logs[i], "straw2 log", i);
  }
  // The ends of the range: h = 0 draws u = 2^-53 and h = ~0 draws u = 1.
  // volatile keeps the compiler from folding these two logs at build time.
  volatile std::uint64_t h_min = 0;
  volatile std::uint64_t h_max = ~std::uint64_t{0};
  expect_bits(std::log(straw_u(h_min)), -0x1.25e4f7b2737fap+5, "straw2 log(2^-53)", 0);
  expect_bits(std::log(straw_u(h_max)), 0.0, "straw2 log(1)", 0);
}

TEST(Rng, HashMixAvalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  int total = 0;
  for (int bit = 0; bit < 64; ++bit) {
    std::uint64_t a = cu::hash_mix(0x1234567890abcdefULL);
    std::uint64_t b = cu::hash_mix(0x1234567890abcdefULL ^ (1ULL << bit));
    total += __builtin_popcountll(a ^ b);
  }
  EXPECT_NEAR(total / 64.0, 32.0, 6.0);
}

TEST(Rng, ForkIndependence) {
  cu::Rng parent(5);
  cu::Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Table, RendersAllCells) {
  cu::Table t({"Step", "Time"});
  t.add_row({"Step 1", "37m"});
  t.add_row({"Step 3", "1133m"});
  std::string s = t.render("TABLE I");
  EXPECT_NE(s.find("TABLE I"), std::string::npos);
  EXPECT_NE(s.find("Step 1"), std::string::npos);
  EXPECT_NE(s.find("1133m"), std::string::npos);
  EXPECT_NE(s.find("Time"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  cu::Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NO_THROW(t.render());
}

TEST(Chart, RendersSeriesAndLegend) {
  cu::AsciiChart chart(40, 8);
  cu::Series s;
  s.name = "cpu";
  for (int i = 0; i < 20; ++i) s.points.emplace_back(i * 10.0, std::sin(i * 0.3) + 1.0);
  chart.add_series(std::move(s));
  std::string out = chart.render("usage", "cores");
  EXPECT_NE(out.find("cpu"), std::string::npos);
  EXPECT_NE(out.find("usage"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(Chart, EmptyChartDoesNotCrash) {
  cu::AsciiChart chart;
  std::string out = chart.render("empty", "x");
  EXPECT_NE(out.find("no data"), std::string::npos);
}
