#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>

#include "ml/connect.hpp"
#include "ml/cost.hpp"
#include "ml/eval.hpp"
#include "ml/ffn.hpp"
#include "ml/ffn_infer.hpp"
#include "ml/synth.hpp"
#include "ml/volume.hpp"
#include "util/check.hpp"

namespace ml = chase::ml;
namespace cc = chase::cluster;

// --- Volume / Tensor -----------------------------------------------------------

TEST(Volume, IndexingRoundTrip) {
  ml::Volume<float> v(4, 5, 6);
  int counter = 0;
  for (int z = 0; z < 6; ++z) {
    for (int y = 0; y < 5; ++y) {
      for (int x = 0; x < 4; ++x) v.at(x, y, z) = static_cast<float>(counter++);
    }
  }
  EXPECT_EQ(v.size(), 120u);
  EXPECT_FLOAT_EQ(v.at(0, 0, 0), 0.f);
  EXPECT_FLOAT_EQ(v.at(3, 4, 5), 119.f);
  EXPECT_FLOAT_EQ(v.get_or(-1, 0, 0, -7.f), -7.f);
  EXPECT_FLOAT_EQ(v.get_or(1, 0, 0, -7.f), 1.f);
}

TEST(Tensor4, ChannelLayout) {
  ml::Tensor4 t(3, 2, 2, 2);
  t.at(2, 1, 1, 1) = 5.f;
  EXPECT_FLOAT_EQ(t.channel(2)[t.index(0, 1, 1, 1)], 5.f);
  EXPECT_EQ(t.voxels(), 8u);
  EXPECT_EQ(t.size(), 24u);
}

// --- synthetic IVT ----------------------------------------------------------------

TEST(Synth, DeterministicForSeed) {
  ml::IvtFieldParams p;
  p.nx = 32;
  p.ny = 24;
  p.nt = 10;
  auto a = ml::generate_ivt(p);
  auto b = ml::generate_ivt(p);
  for (std::size_t i = 0; i < a.ivt.size(); ++i) {
    ASSERT_FLOAT_EQ(a.ivt.data()[i], b.ivt.data()[i]);
  }
  p.seed = 43;
  auto c = ml::generate_ivt(p);
  int diffs = 0;
  for (std::size_t i = 0; i < a.ivt.size(); ++i) diffs += a.ivt.data()[i] != c.ivt.data()[i];
  EXPECT_GT(diffs, 1000);
}

TEST(Synth, EventsCreateLabeledVoxels) {
  ml::IvtFieldParams p;
  p.nx = 64;
  p.ny = 48;
  p.nt = 24;
  p.events = 4;
  auto field = ml::generate_ivt(p);
  std::size_t labeled = 0;
  for (std::size_t i = 0; i < field.truth.size(); ++i) labeled += field.truth.data()[i];
  EXPECT_GT(labeled, 100u);
  EXPECT_LT(labeled, field.truth.size() / 4);  // events are sparse
  EXPECT_EQ(field.events.size(), 4u);
}

TEST(Synth, LabeledVoxelsHaveHighIvt) {
  ml::IvtFieldParams p;
  p.nx = 48;
  p.ny = 32;
  p.nt = 16;
  auto field = ml::generate_ivt(p);
  double labeled_sum = 0, unlabeled_sum = 0;
  std::size_t nl = 0, nu = 0;
  for (int t = 0; t < p.nt; ++t) {
    for (int y = 0; y < p.ny; ++y) {
      for (int x = 0; x < p.nx; ++x) {
        if (field.truth.at(x, y, t)) {
          labeled_sum += field.ivt.at(x, y, t);
          ++nl;
        } else {
          unlabeled_sum += field.ivt.at(x, y, t);
          ++nu;
        }
      }
    }
  }
  ASSERT_GT(nl, 0u);
  EXPECT_GT(labeled_sum / nl, 2.5 * (unlabeled_sum / nu));
}

TEST(Synth, BackgroundNearConfiguredMean) {
  ml::IvtFieldParams p;
  p.nx = 48;
  p.ny = 32;
  p.nt = 8;
  p.events = 0;
  auto field = ml::generate_ivt(p);
  double sum = 0;
  for (std::size_t i = 0; i < field.ivt.size(); ++i) sum += field.ivt.data()[i];
  EXPECT_NEAR(sum / static_cast<double>(field.ivt.size()), p.background, 15.0);
}

// --- CONNECT ----------------------------------------------------------------------

namespace {

/// Brute-force flood fill reference for correctness checking.
ml::Volume<std::int32_t> reference_label(const ml::Volume<float>& ivt, double thr,
                                         bool diagonal) {
  ml::Volume<std::int32_t> labels(ivt.nx(), ivt.ny(), ivt.nz(), 0);
  int next = 1;
  for (int t = 0; t < ivt.nz(); ++t) {
    for (int y = 0; y < ivt.ny(); ++y) {
      for (int x = 0; x < ivt.nx(); ++x) {
        if (ivt.at(x, y, t) <= thr || labels.at(x, y, t) != 0) continue;
        std::vector<std::array<int, 3>> stack{{x, y, t}};
        labels.at(x, y, t) = next;
        while (!stack.empty()) {
          auto [cx, cy, ct] = stack.back();
          stack.pop_back();
          for (int dt = -1; dt <= 1; ++dt) {
            for (int dy = -1; dy <= 1; ++dy) {
              for (int dx = -1; dx <= 1; ++dx) {
                if (dx == 0 && dy == 0 && dt == 0) continue;
                if (!diagonal && std::abs(dx) + std::abs(dy) + std::abs(dt) > 1) continue;
                const int nx = cx + dx, ny = cy + dy, nt = ct + dt;
                if (!ivt.inside(nx, ny, nt)) continue;
                if (ivt.at(nx, ny, nt) <= thr || labels.at(nx, ny, nt) != 0) continue;
                labels.at(nx, ny, nt) = next;
                stack.push_back({nx, ny, nt});
              }
            }
          }
        }
        ++next;
      }
    }
  }
  return labels;
}

/// Do two labelings partition the foreground identically (up to renaming)?
bool same_partition(const ml::Volume<std::int32_t>& a, const ml::Volume<std::int32_t>& b) {
  std::map<std::int32_t, std::int32_t> a2b, b2a;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto va = a.data()[i], vb = b.data()[i];
    if ((va == 0) != (vb == 0)) return false;
    if (va == 0) continue;
    if (auto it = a2b.find(va); it != a2b.end()) {
      if (it->second != vb) return false;
    } else {
      a2b[va] = vb;
    }
    if (auto it = b2a.find(vb); it != b2a.end()) {
      if (it->second != va) return false;
    } else {
      b2a[vb] = va;
    }
  }
  return true;
}

}  // namespace

TEST(Connect, MatchesBruteForceOnRandomVolumes) {
  for (std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    ml::IvtFieldParams p;
    p.nx = 24;
    p.ny = 20;
    p.nt = 12;
    p.events = 3;
    p.seed = seed;
    auto field = ml::generate_ivt(p);
    ml::ConnectParams cp;
    cp.threshold = 250.0;
    cp.min_voxels = 1;  // keep everything for exact comparison
    auto result = ml::connect_label(field.ivt, cp);
    auto reference = reference_label(field.ivt, cp.threshold, true);
    EXPECT_TRUE(same_partition(result.labels, reference)) << "seed " << seed;
  }
}

TEST(Connect, SixConnectivityMatchesBruteForce) {
  ml::IvtFieldParams p;
  p.nx = 20;
  p.ny = 16;
  p.nt = 10;
  p.seed = 5;
  auto field = ml::generate_ivt(p);
  ml::ConnectParams cp;
  cp.threshold = 250.0;
  cp.min_voxels = 1;
  cp.diagonal_connectivity = false;
  auto result = ml::connect_label(field.ivt, cp);
  auto reference = reference_label(field.ivt, cp.threshold, false);
  EXPECT_TRUE(same_partition(result.labels, reference));
}

TEST(Connect, TracksObjectLifeCycle) {
  // One hand-built moving blob: a 3x3 square moving +2x per step for t=2..5.
  ml::Volume<float> ivt(32, 16, 10, 0.f);
  for (int t = 2; t <= 5; ++t) {
    const int cx = 4 + 2 * (t - 2);
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) ivt.at(cx + dx, 8 + dy, t) = 500.f;
    }
  }
  ml::ConnectParams cp;
  cp.min_voxels = 4;
  auto result = ml::connect_label(ivt, cp);
  ASSERT_EQ(result.objects.size(), 1u);
  const auto& obj = result.objects[0];
  EXPECT_EQ(obj.t_start, 2);
  EXPECT_EQ(obj.t_end, 5);
  EXPECT_EQ(obj.duration(), 4);
  EXPECT_EQ(obj.voxels, 36u);
  ASSERT_EQ(obj.track.size(), 4u);
  EXPECT_NEAR(obj.track[0].first, 4.0, 1e-9);
  EXPECT_NEAR(obj.track[3].first, 10.0, 1e-9);
  // Pathway length: 3 hops of 2 grid units.
  auto stats = ml::summarize(result);
  EXPECT_NEAR(stats.mean_track_length, 6.0, 1e-9);
  EXPECT_EQ(stats.object_count, 1u);
}

TEST(Connect, SeparateObjectsGetSeparateIds) {
  ml::Volume<float> ivt(20, 20, 6, 0.f);
  for (int t = 0; t < 3; ++t) {
    ivt.at(3, 3, t) = 400.f;
    ivt.at(4, 3, t) = 400.f;
    ivt.at(15, 15, t) = 400.f;
    ivt.at(16, 15, t) = 400.f;
  }
  ml::ConnectParams cp;
  cp.min_voxels = 2;
  auto result = ml::connect_label(ivt, cp);
  EXPECT_EQ(result.objects.size(), 2u);
  EXPECT_NE(result.labels.at(3, 3, 0), result.labels.at(15, 15, 0));
}

TEST(Connect, MinVoxelsFiltersSpeckle) {
  ml::Volume<float> ivt(16, 16, 4, 0.f);
  ivt.at(2, 2, 1) = 400.f;  // single-voxel speckle
  for (int x = 8; x < 12; ++x) {
    for (int y = 8; y < 12; ++y) ivt.at(x, y, 2) = 400.f;  // 16-voxel object
  }
  ml::ConnectParams cp;
  cp.min_voxels = 8;
  auto result = ml::connect_label(ivt, cp);
  ASSERT_EQ(result.objects.size(), 1u);
  EXPECT_EQ(result.objects[0].voxels, 16u);
  EXPECT_EQ(result.labels.at(2, 2, 1), 0);
}

TEST(Connect, TemporalConnectionJoinsMovingObject) {
  // Blob at (5,5) for t=0, at (6,5) for t=1: spatially disjoint per-frame
  // but connected through time -> one object.
  ml::Volume<float> ivt(16, 16, 2, 0.f);
  ivt.at(5, 5, 0) = 400.f;
  ivt.at(6, 5, 1) = 400.f;
  ml::ConnectParams cp;
  cp.min_voxels = 1;
  auto result = ml::connect_label(ivt, cp);
  EXPECT_EQ(result.objects.size(), 1u);
  EXPECT_EQ(result.objects[0].duration(), 2);
}

TEST(Connect, FindsSyntheticEventsApproximately) {
  ml::IvtFieldParams p;
  p.nx = 96;
  p.ny = 64;
  p.nt = 48;
  p.events = 5;
  p.seed = 11;
  auto field = ml::generate_ivt(p);
  ml::ConnectParams cp;
  cp.threshold = p.label_threshold;
  cp.min_voxels = 20;
  auto result = ml::connect_label(field.ivt, cp);
  // Some events may merge/fragment, but the count must be in the ballpark.
  EXPECT_GE(result.objects.size(), 2u);
  EXPECT_LE(result.objects.size(), 12u);
  // Segmentation should overlap the truth mask substantially.
  auto metrics = ml::voxel_metrics(result.labels, field.truth);
  EXPECT_GT(metrics.recall(), 0.6);
}

// --- FFN model mechanics --------------------------------------------------------------

TEST(Conv3d, IdentityKernelPassesThrough) {
  chase::util::Rng rng(3);
  ml::Conv3d conv;
  conv.init(1, 1, rng);
  std::fill(conv.w.begin(), conv.w.end(), 0.f);
  conv.w[conv.weight_index(0, 0, 0, 0, 0)] = 1.f;  // center tap
  conv.b[0] = 0.f;
  ml::Tensor4 x(1, 5, 5, 5);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = static_cast<float>(i % 7);
  ml::Tensor4 y;
  conv.forward(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_FLOAT_EQ(y.data()[i], x.data()[i]);
}

TEST(Conv3d, GradientMatchesFiniteDifference) {
  chase::util::Rng rng(17);
  ml::Conv3d conv;
  conv.init(2, 2, rng);
  ml::Tensor4 x(2, 4, 4, 4);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0, 1));
  }
  // Loss: L = sum(y^2)/2; dL/dy = y.
  ml::Tensor4 y;
  conv.forward(x, y);
  std::vector<float> dw(conv.w.size(), 0.f), db(conv.b.size(), 0.f);
  ml::Tensor4 dx;
  conv.backward(x, y, &dx, dw, db);

  const float eps = 1e-3f;
  auto loss = [&](const ml::Tensor4& input) {
    ml::Tensor4 out;
    conv.forward(input, out);
    double total = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      total += 0.5 * out.data()[i] * out.data()[i];
    }
    return total;
  };
  // Check several input gradients.
  for (std::size_t i : {0ul, 13ul, 64ul, 100ul}) {
    ml::Tensor4 xp = x;
    xp.data()[i] += eps;
    ml::Tensor4 xm = x;
    xm.data()[i] -= eps;
    const double numeric = (loss(xp) - loss(xm)) / (2 * eps);
    EXPECT_NEAR(numeric, dx.data()[i], 2e-2) << "input grad " << i;
  }
  // Check several weight gradients.
  for (std::size_t i : {0ul, 30ul, 77ul}) {
    const float saved = conv.w[i];
    conv.w[i] = saved + eps;
    const double lp = loss(x);
    conv.w[i] = saved - eps;
    const double lm = loss(x);
    conv.w[i] = saved;
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(numeric, dw[i], 2e-2) << "weight grad " << i;
  }
}

namespace {

// The straightforward 7-deep scalar Conv3d loops, kept verbatim as the
// bitwise reference for the row kernels in ml/ffn.cpp: every accumulator
// there must add the same terms in the same order as here.
void reference_forward(const ml::Conv3d& conv, const ml::Tensor4& x, ml::Tensor4& y) {
  const int in_c = conv.in_c, out_c = conv.out_c;
  const std::vector<float>& w = conv.w;
  const std::vector<float>& b = conv.b;
  const auto weight_index = [&conv](int oc, int ic, int dz, int dy, int dx) {
    return conv.weight_index(oc, ic, dz, dy, dx);
  };
  const int nx = x.nx(), ny = x.ny(), nz = x.nz();
  y = ml::Tensor4(out_c, nx, ny, nz);
  for (int oc = 0; oc < out_c; ++oc) {
    for (int z = 0; z < nz; ++z) {
      for (int yy = 0; yy < ny; ++yy) {
        for (int xx = 0; xx < nx; ++xx) {
          float acc = b[static_cast<std::size_t>(oc)];
          for (int ic = 0; ic < in_c; ++ic) {
            for (int dz = -1; dz <= 1; ++dz) {
              const int sz = z + dz;
              if (sz < 0 || sz >= nz) continue;
              for (int dy = -1; dy <= 1; ++dy) {
                const int sy = yy + dy;
                if (sy < 0 || sy >= ny) continue;
                for (int dx = -1; dx <= 1; ++dx) {
                  const int sx = xx + dx;
                  if (sx < 0 || sx >= nx) continue;
                  acc += w[weight_index(oc, ic, dz, dy, dx)] * x.at(ic, sx, sy, sz);
                }
              }
            }
          }
          y.at(oc, xx, yy, z) = acc;
        }
      }
    }
  }
}

void reference_backward(const ml::Conv3d& conv, const ml::Tensor4& x, const ml::Tensor4& dy,
                        ml::Tensor4* dx, std::vector<float>& dw, std::vector<float>& db) {
  const int in_c = conv.in_c, out_c = conv.out_c;
  const std::vector<float>& w = conv.w;
  const auto weight_index = [&conv](int oc, int ic, int dz, int dy, int dx) {
    return conv.weight_index(oc, ic, dz, dy, dx);
  };
  const int nx = x.nx(), ny = x.ny(), nz = x.nz();
  if (dx != nullptr) *dx = ml::Tensor4(in_c, nx, ny, nz);
  for (int oc = 0; oc < out_c; ++oc) {
    for (int z = 0; z < nz; ++z) {
      for (int yy = 0; yy < ny; ++yy) {
        for (int xx = 0; xx < nx; ++xx) {
          const float g = dy.at(oc, xx, yy, z);
          if (g == 0.f) continue;
          db[static_cast<std::size_t>(oc)] += g;
          for (int ic = 0; ic < in_c; ++ic) {
            for (int dz = -1; dz <= 1; ++dz) {
              const int sz = z + dz;
              if (sz < 0 || sz >= nz) continue;
              for (int dy2 = -1; dy2 <= 1; ++dy2) {
                const int sy = yy + dy2;
                if (sy < 0 || sy >= ny) continue;
                for (int dx2 = -1; dx2 <= 1; ++dx2) {
                  const int sx = xx + dx2;
                  if (sx < 0 || sx >= nx) continue;
                  dw[weight_index(oc, ic, dz, dy2, dx2)] += g * x.at(ic, sx, sy, sz);
                  if (dx != nullptr) {
                    dx->at(ic, sx, sy, sz) += g * w[weight_index(oc, ic, dz, dy2, dx2)];
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool same_bits(const ml::Tensor4& a, const ml::Tensor4& b) {
  return a.channels() == b.channels() && a.nx() == b.nx() && a.ny() == b.ny() &&
         a.nz() == b.nz() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Records check failures instead of aborting, for the duration of a scope.
struct CaptureFailures {
  std::vector<chase::util::CheckContext> failures;
  chase::util::CheckFailureHandler prev;
  CaptureFailures() {
    prev = chase::util::set_check_failure_handler(
        [this](const chase::util::CheckContext& ctx) { failures.push_back(ctx); });
  }
  ~CaptureFailures() { chase::util::set_check_failure_handler(std::move(prev)); }
};

}  // namespace

TEST(Conv3d, MatchesReferenceBitwise) {
  chase::util::Rng rng(20261017);
  const auto draw = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  // A normal draw, or +0 / -0 with probability `zeros` (split evenly).
  const auto value = [&rng](double zeros) {
    const double u = rng.uniform();
    if (u < zeros / 2) return 0.f;
    if (u < zeros) return -0.f;
    return static_cast<float>(rng.normal(0.0, 1.0));
  };
  for (int c = 0; c < 500; ++c) {
    SCOPED_TRACE(c);
    // Sizes 1 and 2 put every voxel of a row on a peeled edge.
    const int nx = draw(1, 9), ny = draw(1, 9), nz = draw(1, 9);
    ml::Conv3d conv;
    conv.init(draw(1, 8), draw(1, 8), rng);
    for (float& bias : conv.b) bias = value(0.2);
    ml::Tensor4 x(conv.in_c, nx, ny, nz);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = value(0.25);
    // Every tenth case puts infinities into x: a g == 0 term there is
    // 0 * inf = NaN, which the backward pass must skip, not add.
    if (c % 10 == 9) {
      const float inf = std::numeric_limits<float>::infinity();
      for (int k = 0; k < 3; ++k) x.data()[rng.uniform_u64(x.size())] = k % 2 ? -inf : inf;
    }
    ml::Tensor4 g(conv.out_c, nx, ny, nz);
    for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] = value(0.4);
    // dw/db accumulate (+=); start them nonzero, with some -0 entries that
    // a +0 term would flip to +0 if a g == 0 term were added.
    std::vector<float> dw0(conv.w.size()), db0(conv.b.size());
    for (float& v : dw0) v = rng.uniform() < 0.1 ? -0.f : static_cast<float>(rng.normal(0.0, 1.0));
    for (float& v : db0) v = rng.uniform() < 0.1 ? -0.f : static_cast<float>(rng.normal(0.0, 1.0));
    // Every fifth case gives one output channel an all-zero gradient, as a
    // dead relu can, over a -0 bias gradient that must stay -0.
    if (c % 5 == 4) {
      const int oc = draw(0, conv.out_c - 1);
      float* channel = g.channel(oc);
      for (std::size_t i = 0; i < g.voxels(); ++i) channel[i] = i % 2 ? -0.f : 0.f;
      db0[static_cast<std::size_t>(oc)] = -0.f;
    }

    ml::Tensor4 y_ref, y;
    reference_forward(conv, x, y_ref);
    conv.forward(x, y);
    ASSERT_TRUE(same_bits(y, y_ref)) << "forward";

    const bool with_dx = c % 2 == 0;
    std::vector<float> dw_ref = dw0, dw = dw0, db_ref = db0, db = db0;
    ml::Tensor4 dx_ref, dx;
    reference_backward(conv, x, g, with_dx ? &dx_ref : nullptr, dw_ref, db_ref);
    conv.backward(x, g, with_dx ? &dx : nullptr, dw, db);
    ASSERT_TRUE(same_bits(dw, dw_ref)) << "dw";
    ASSERT_TRUE(same_bits(db, db_ref)) << "db";
    ASSERT_TRUE(same_bits(dx, dx_ref)) << "dx";
    if (!with_dx) {
      ASSERT_EQ(dx.size(), 0u);
    }
  }
}

TEST(Conv3d, RejectsMismatchedShapes) {
  chase::util::Rng rng(29);
  ml::Conv3d conv;
  conv.init(2, 3, rng);
  {
    CaptureFailures cap;
    ml::Tensor4 y(1, 1, 1, 1, 7.f);
    conv.forward(ml::Tensor4(3, 4, 4, 4, 1.f), y);
    EXPECT_EQ(cap.failures.size(), 1u);
    EXPECT_EQ(y.channels(), 1);
    EXPECT_EQ(y.at(0, 0, 0, 0), 7.f);
  }
  struct Case {
    const char* what;
    ml::Tensor4 x, dy;
    std::size_t dw, db;
    std::size_t reports;
  };
  const std::size_t nw = conv.w.size(), nb = conv.b.size();
  const Case cases[] = {
      {"matching", ml::Tensor4(2, 4, 4, 4, 1.f), ml::Tensor4(3, 4, 4, 4, 1.f), nw, nb, 0},
      {"x channels", ml::Tensor4(1, 4, 4, 4, 1.f), ml::Tensor4(3, 4, 4, 4, 1.f), nw, nb, 1},
      {"dy channels", ml::Tensor4(2, 4, 4, 4, 1.f), ml::Tensor4(4, 4, 4, 4, 1.f), nw, nb, 1},
      {"dy nx", ml::Tensor4(2, 4, 4, 4, 1.f), ml::Tensor4(3, 5, 4, 4, 1.f), nw, nb, 1},
      {"dy ny", ml::Tensor4(2, 4, 4, 4, 1.f), ml::Tensor4(3, 4, 3, 4, 1.f), nw, nb, 1},
      {"dy nz", ml::Tensor4(2, 4, 4, 4, 1.f), ml::Tensor4(3, 4, 4, 6, 1.f), nw, nb, 1},
      {"dw size", ml::Tensor4(2, 4, 4, 4, 1.f), ml::Tensor4(3, 4, 4, 4, 1.f), nw - 1, nb, 1},
      {"db size", ml::Tensor4(2, 4, 4, 4, 1.f), ml::Tensor4(3, 4, 4, 4, 1.f), nw, nb + 1, 1},
      {"everything", ml::Tensor4(3, 4, 4, 4, 1.f), ml::Tensor4(1, 2, 4, 4, 1.f), 0, 0, 5},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    CaptureFailures cap;
    ml::Tensor4 dx(1, 1, 1, 1, 7.f);
    std::vector<float> dw(c.dw, 5.f), db(c.db, 5.f);
    conv.backward(c.x, c.dy, &dx, dw, db);
    EXPECT_EQ(cap.failures.size(), c.reports);
    for (const auto& f : cap.failures) {
      EXPECT_STREQ(f.kind, "CHASE_ASSERT");
    }
    if (c.reports == 0) continue;
    EXPECT_EQ(dx.channels(), 1);
    EXPECT_EQ(dx.at(0, 0, 0, 0), 7.f);
    EXPECT_EQ(dw, std::vector<float>(c.dw, 5.f));
    EXPECT_EQ(db, std::vector<float>(c.db, 5.f));
  }
}

TEST(FfnModel, ForwardShapeAndDeterminism) {
  ml::FfnConfig cfg;
  cfg.channels = 4;
  cfg.modules = 1;
  cfg.fov = 7;
  ml::FfnModel model(cfg);
  ml::Tensor4 input(2, 7, 7, 7, 0.3f);
  ml::Tensor4 l1, l2;
  model.forward(input, l1);
  model.forward(input, l2);
  ASSERT_EQ(l1.channels(), 1);
  ASSERT_EQ(l1.nx(), 7);
  for (std::size_t i = 0; i < l1.size(); ++i) ASSERT_FLOAT_EQ(l1.data()[i], l2.data()[i]);
}

TEST(FfnModel, SerializeRoundTrip) {
  ml::FfnConfig cfg;
  cfg.channels = 4;
  cfg.modules = 1;
  cfg.fov = 7;
  ml::FfnModel a(cfg);
  auto blob = a.serialize();
  EXPECT_EQ(blob.size(), a.parameter_count());

  cfg.seed = 777;  // different init
  ml::FfnModel b(cfg);
  ASSERT_TRUE(b.deserialize(blob));
  ml::Tensor4 input(2, 7, 7, 7, 0.5f);
  ml::Tensor4 la, lb;
  a.forward(input, la);
  b.forward(input, lb);
  for (std::size_t i = 0; i < la.size(); ++i) ASSERT_FLOAT_EQ(la.data()[i], lb.data()[i]);

  EXPECT_FALSE(b.deserialize(std::vector<float>(3, 0.f)));
}

TEST(FfnModel, LogisticLossBehaves)
{
  ml::Tensor4 logits(1, 2, 1, 1);
  logits.at(0, 0, 0, 0) = 10.f;   // confident positive
  logits.at(0, 1, 0, 0) = -10.f;  // confident negative
  ml::Volume<std::uint8_t> target(2, 1, 1, 0);
  target.at(0, 0, 0) = 1;
  ml::Tensor4 dlogits;
  const float good = ml::FfnModel::logistic_loss(logits, target, dlogits);
  EXPECT_LT(good, 0.01f);

  logits.at(0, 0, 0, 0) = -10.f;
  logits.at(0, 1, 0, 0) = 10.f;
  const float bad = ml::FfnModel::logistic_loss(logits, target, dlogits);
  EXPECT_GT(bad, 5.f);
}

TEST(FfnModel, LogisticLossNormalizerSplitsGradientNotLoss) {
  ml::Tensor4 logits(1, 3, 2, 1);
  ml::Volume<std::uint8_t> target(3, 2, 1, 0);
  chase::util::Rng rng(5);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    logits.data()[i] = static_cast<float>(rng.normal(0, 2));
    target.data()[i] = rng.chance(0.5) ? 1 : 0;
  }
  ml::Tensor4 d1, d4;
  const float loss1 = ml::FfnModel::logistic_loss(logits, target, d1);
  const double shard_total = static_cast<double>(logits.voxels()) * 4;
  const float loss4 = ml::FfnModel::logistic_loss(logits, target, d4, shard_total);
  // The reported loss is the per-call mean regardless of the normalizer —
  // bit-identical to the single-trainer path.
  EXPECT_EQ(0, std::memcmp(&loss1, &loss4, sizeof(float)));
  // The gradient divides by the whole batch exactly once: scaling the
  // normalizer by 4 (a power of two) scales dlogits by exactly 1/4.
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1.data()[i], d4.data()[i] * 4.f) << "voxel " << i;
  }
}

TEST(FfnModel, ForwardWithWorkspaceMatchesPlainForward) {
  ml::FfnConfig cfg;
  cfg.channels = 4;
  cfg.modules = 2;
  cfg.fov = 7;
  ml::FfnModel model(cfg);
  ml::Tensor4 input(2, 7, 7, 7);
  chase::util::Rng rng(9);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = static_cast<float>(rng.normal(0, 1));
  }
  ml::Tensor4 plain, logged;
  ml::FfnModel::Workspace ws;
  model.forward(input, plain);
  model.forward(input, logged, &ws);
  ASSERT_EQ(plain.size(), logged.size());
  EXPECT_EQ(0, std::memcmp(plain.data(), logged.data(), plain.size() * sizeof(float)));
  // Activation log layout: [h0, (r1, t1, r2, h_m) per module, rout]; the
  // input itself is not logged.
  EXPECT_EQ(ws.activations.size(), static_cast<std::size_t>(2 + 4 * cfg.modules));
}

TEST(FfnModel, GradientsSumAcrossShardsMatchesLargeBatch) {
  ml::FfnConfig cfg;
  cfg.channels = 4;
  cfg.modules = 1;
  cfg.fov = 7;
  ml::FfnModel model(cfg);
  chase::util::Rng rng(31);
  std::vector<ml::Tensor4> inputs(2, ml::Tensor4(2, 7, 7, 7));
  ml::Volume<std::uint8_t> target(7, 7, 7, 0);
  for (auto& input : inputs) {
    for (std::size_t i = 0; i < input.size(); ++i) {
      input.data()[i] = static_cast<float>(rng.normal(0, 1));
    }
  }
  for (std::size_t i = 0; i < target.size(); ++i) target.data()[i] = rng.chance(0.3);

  const double normalizer = 2.0 * static_cast<double>(inputs[0].voxels());
  ml::Tensor4 logits, dlogits;
  ml::FfnModel::Workspace ws;

  // backward() accumulates (+=): both examples folded into one buffer agree
  // with per-example buffers summed by add() up to rounding. (Bit-identity
  // is NOT expected here — the two float-addition groupings differ, which is
  // exactly why DistTrainer and its reference both use the buffer-then-add
  // grouping on every path.)
  ml::FfnModel::Gradients batch = model.make_gradients();
  for (const auto& input : inputs) {
    model.forward(input, logits, &ws);
    ml::FfnModel::logistic_loss(logits, target, dlogits, normalizer);
    model.backward(input, dlogits, ws, batch);
  }

  // The distributed reduction contract: per-example gradients computed into
  // zeroed buffers and summed with add() in a fixed order are reproducible
  // bit for bit — this is the exact float-addition sequence DistTrainer's
  // inbox reduce and the single-trainer reference both execute.
  auto reduce = [&]() {
    ml::FfnModel::Gradients sum = model.make_gradients();
    for (const auto& input : inputs) {
      ml::FfnModel::Gradients g = model.make_gradients();
      model.forward(input, logits, &ws);
      ml::FfnModel::logistic_loss(logits, target, dlogits, normalizer);
      model.backward(input, dlogits, ws, g);
      sum.add(g);
    }
    return sum;
  };
  const ml::FfnModel::Gradients a = reduce();
  const ml::FfnModel::Gradients b = reduce();
  for (std::size_t l = 0; l < a.w.size(); ++l) {
    EXPECT_EQ(0, std::memcmp(a.w[l].data(), b.w[l].data(),
                             a.w[l].size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(a.b[l].data(), b.b[l].data(),
                             a.b[l].size() * sizeof(float)));
    for (std::size_t i = 0; i < a.w[l].size(); ++i) {
      ASSERT_NEAR(batch.w[l][i], a.w[l][i], 1e-5f + 1e-4f * std::abs(a.w[l][i]));
    }
    for (std::size_t i = 0; i < a.b[l].size(); ++i) {
      ASSERT_NEAR(batch.b[l][i], a.b[l][i], 1e-5f + 1e-4f * std::abs(a.b[l][i]));
    }
  }
}

TEST(FfnModel, OptimizerSwitchResetsMomentState) {
  ml::FfnConfig cfg;
  cfg.channels = 4;
  cfg.modules = 1;
  cfg.fov = 7;
  ml::FfnModel warmed(cfg);
  ml::FfnModel::Gradients g = warmed.make_gradients();
  for (auto& layer : g.w) {
    for (std::size_t i = 0; i < layer.size(); ++i) {
      layer[i] = 0.01f * static_cast<float>(static_cast<int>(i % 7) - 3);
    }
  }
  for (auto& layer : g.b) {
    for (std::size_t i = 0; i < layer.size(); ++i) layer[i] = 0.02f;
  }
  ml::FfnModel::OptimizerConfig sgd;  // defaults: SGD with momentum 0.9
  for (int i = 0; i < 3; ++i) warmed.apply_gradients(g, sgd);

  // A fresh model placed at the warmed model's weights has zero moments and
  // adam_steps 0 by construction. Switching kinds on the warmed model must
  // behave identically — momentum state crossing the switch is the aliasing
  // bug this guards against.
  ml::FfnModel fresh(cfg);
  ASSERT_TRUE(fresh.deserialize(warmed.serialize()));
  ml::FfnModel::OptimizerConfig adam;
  adam.kind = ml::FfnModel::OptimizerConfig::Kind::Adam;
  for (int i = 0; i < 2; ++i) {
    warmed.apply_gradients(g, adam);
    fresh.apply_gradients(g, adam);
  }
  const auto a = warmed.serialize();
  const auto b = fresh.serialize();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));

  // And back: Adam state must not leak into SGD momentum either.
  ml::FfnModel fresh2(cfg);
  ASSERT_TRUE(fresh2.deserialize(warmed.serialize()));
  warmed.apply_gradients(g, sgd);
  fresh2.apply_gradients(g, sgd);
  const auto a2 = warmed.serialize();
  const auto b2 = fresh2.serialize();
  EXPECT_EQ(0, std::memcmp(a2.data(), b2.data(), a2.size() * sizeof(float)));
}

TEST(FfnTrainer, LossDecreasesOnSyntheticData) {
  ml::IvtFieldParams p;
  p.nx = 48;
  p.ny = 32;
  p.nt = 16;
  p.events = 4;
  p.seed = 21;
  auto field = ml::generate_ivt(p);

  ml::FfnConfig cfg;
  cfg.channels = 4;
  cfg.modules = 1;
  cfg.fov = 7;
  ml::FfnModel model(cfg);
  ml::FfnTrainer::Options opts;
  opts.steps = 450;
  opts.recursion = 1;
  opts.learning_rate = 0.01f;
  ml::FfnTrainer trainer(model, field.ivt, field.truth, opts);
  trainer.train();
  const auto& losses = trainer.loss_history();
  ASSERT_EQ(losses.size(), 450u);
  const double head = std::accumulate(losses.begin(), losses.begin() + 30, 0.0) / 30;
  const double tail = std::accumulate(losses.end() - 30, losses.end(), 0.0) / 30;
  EXPECT_LT(tail, head * 0.6) << "head=" << head << " tail=" << tail;
}

// --- FFN inference ------------------------------------------------------------------

TEST(FindSeeds, LocatesLocalMaxima) {
  ml::Volume<float> image(16, 16, 4, 0.f);
  image.at(4, 4, 1) = 500.f;
  image.at(12, 10, 2) = 400.f;
  image.at(12, 11, 2) = 350.f;  // not a local max (neighbour is higher)
  auto seeds = ml::find_seeds(image, 300.f);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0], (std::array<int, 3>{4, 4, 1}));  // strongest first
  EXPECT_EQ(seeds[1], (std::array<int, 3>{12, 10, 2}));
}

TEST(FfnEndToEnd, TrainedModelSegmentsHeldOutData) {
  // Train on one synthetic volume, infer on a different seed (the paper's
  // "training volume is removed from the test data volume").
  ml::IvtFieldParams train_params;
  train_params.nx = 48;
  train_params.ny = 32;
  train_params.nt = 16;
  train_params.events = 4;
  train_params.seed = 31;
  auto train_field = ml::generate_ivt(train_params);

  ml::FfnConfig cfg;
  cfg.channels = 6;
  cfg.modules = 1;
  cfg.fov = 7;
  ml::FfnModel model(cfg);
  ml::FfnTrainer::Options topts;
  topts.steps = 500;
  topts.recursion = 1;
  topts.learning_rate = 0.01f;
  ml::FfnTrainer trainer(model, train_field.ivt, train_field.truth, topts);
  trainer.train();

  ml::IvtFieldParams test_params = train_params;
  test_params.seed = 77;
  auto test_field = ml::generate_ivt(test_params);

  ml::InferenceOptions iopts;
  iopts.seed_threshold = 300.f;
  iopts.move_threshold = 0.7f;
  iopts.segment_threshold = 0.5f;
  auto result = ml::ffn_inference(model, test_field.ivt, iopts);
  EXPECT_GT(result.objects, 0);
  EXPECT_GT(result.fov_moves, 0u);

  auto metrics = ml::voxel_metrics(result.segments, test_field.truth);
  EXPECT_GT(metrics.recall(), 0.35) << "recall=" << metrics.recall();
  EXPECT_GT(metrics.precision(), 0.35) << "precision=" << metrics.precision();
}

TEST(FfnInference, EmptyImageYieldsNoObjects) {
  ml::FfnConfig cfg;
  cfg.channels = 4;
  cfg.modules = 1;
  cfg.fov = 7;
  ml::FfnModel model(cfg);
  ml::Volume<float> image(24, 24, 8, 50.f);  // below seed threshold everywhere
  ml::InferenceOptions opts;
  auto result = ml::ffn_inference(model, image, opts);
  EXPECT_EQ(result.objects, 0);
  EXPECT_EQ(result.fov_moves, 0u);
}

// --- metrics ---------------------------------------------------------------------------

TEST(Eval, VoxelMetricsBasics) {
  ml::Volume<std::int32_t> pred(4, 1, 1, 0);
  ml::Volume<std::uint8_t> truth(4, 1, 1, 0);
  pred.at(0, 0, 0) = 1;  // TP
  truth.at(0, 0, 0) = 1;
  pred.at(1, 0, 0) = 2;  // FP
  truth.at(2, 0, 0) = 1;  // FN
  auto m = ml::voxel_metrics(pred, truth);
  EXPECT_EQ(m.true_positive, 1u);
  EXPECT_EQ(m.false_positive, 1u);
  EXPECT_EQ(m.false_negative, 1u);
  EXPECT_DOUBLE_EQ(m.precision(), 0.5);
  EXPECT_DOUBLE_EQ(m.recall(), 0.5);
  EXPECT_DOUBLE_EQ(m.iou(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.f1(), 0.5);
}

TEST(Eval, EmptyVolumesSafe) {
  ml::Volume<std::int32_t> pred(4, 4, 4, 0);
  ml::Volume<std::uint8_t> truth(4, 4, 4, 0);
  auto m = ml::voxel_metrics(pred, truth);
  EXPECT_DOUBLE_EQ(m.precision(), 0.0);
  EXPECT_DOUBLE_EQ(m.iou(), 0.0);
}

// --- cost model ---------------------------------------------------------------------------

TEST(CostModel, ReproducesPaperStepDurations) {
  ml::FfnCostModel cost;
  ml::PaperWorkload paper;
  // Training on one 1080ti should be most of the 306-minute step (the rest
  // is the serial data-prep phase).
  const double train_min = cost.training_seconds(cc::GpuModel::GTX1080Ti, 1) / 60.0;
  EXPECT_GT(train_min, 180);
  EXPECT_LT(train_min, 290);
  // Inference: 2.3e10 voxels on 50 GPUs -> about 1133 minutes.
  const double infer_min =
      cost.inference_seconds(paper.inference_voxels, cc::GpuModel::GTX1080Ti,
                             paper.inference_gpus) / 60.0;
  EXPECT_NEAR(infer_min, paper.step3_minutes, paper.step3_minutes * 0.15);
}

TEST(CostModel, InferenceScalesInverselyWithGpus) {
  ml::FfnCostModel cost;
  const double t50 = cost.inference_seconds(1e9, cc::GpuModel::GTX1080Ti, 50);
  const double t25 = cost.inference_seconds(1e9, cc::GpuModel::GTX1080Ti, 25);
  EXPECT_NEAR(t25 / t50, 2.0, 1e-9);
}

TEST(CostModel, ForwardFlopsMatchSmallModelCount) {
  // The analytic FLOP formula must agree with the real model's MAC count.
  ml::FfnCostModel cost;
  cost.fov = 9;
  cost.channels = 8;
  cost.modules = 2;
  ml::FfnConfig cfg;
  cfg.fov = 9;
  cfg.channels = 8;
  cfg.modules = 2;
  ml::FfnModel model(cfg);
  EXPECT_NEAR(cost.forward_flops(), 2.0 * model.forward_macs(),
              0.01 * cost.forward_flops());
}

TEST(CostModel, PaperWorkloadConstants) {
  ml::PaperWorkload paper;
  EXPECT_EQ(paper.file_count, 112249u);
  // 576 x 361 x 112249 ~ 2.3e10 voxels (paper's number).
  const double voxels = 576.0 * 361.0 * 112249.0;
  EXPECT_NEAR(voxels, paper.inference_voxels, 0.02 * voxels);
}
