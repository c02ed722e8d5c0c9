#include "ml/ffn.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/check.hpp"

namespace chase::ml {

namespace {

inline float relu(float v) { return v > 0.f ? v : 0.f; }

void relu_forward(const Tensor4& x, Tensor4& y) {
  y = x;
  float* d = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) d[i] = relu(d[i]);
}

/// dL/dx for y = relu(x): pass gradient where x > 0.
void relu_backward(const Tensor4& x, Tensor4& dy) {
  const float* xd = x.data();
  float* gd = dy.data();
  for (std::size_t i = 0; i < dy.size(); ++i) {
    if (xd[i] <= 0.f) gd[i] = 0.f;
  }
}

void add_into(Tensor4& dst, const Tensor4& src) {
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] += s[i];
}

// Conv3d runs as loops over x-contiguous rows of length n >= 1. The callers
// resolve the z and y bounds once per output row and hand over the R = 1..3
// source rows (consecutive in memory, stride n) whose dy is in range; these
// helpers peel the two x edges, so their inner loops test no bounds. Every
// accumulator keeps the order in which the straightforward per-voxel,
// per-tap loop adds its terms, which keeps the results bit-identical to it
// (DESIGN.md "FFN conv kernels"). The sums are spelled out left to right:
// without -ffast-math the compiler may not reassociate them.

/// One output row `acc` += R source rows of 3 taps each: for r ascending,
/// k[3r]*src_r[i-1], then k[3r+1]*src_r[i], then k[3r+2]*src_r[i+1],
/// skipping the terms whose index falls outside [0, n).
template <int R>
void add_row_taps(float* acc, const float* src, const float* k, int n) {
  // A local copy, so stores through acc cannot alias the taps and force
  // them to be reloaded.
  float kk[3 * R];
  for (int j = 0; j < 3 * R; ++j) kk[j] = k[j];
  if (n == 1) {
    float a = acc[0];
    for (int r = 0; r < R; ++r) a = a + kk[3 * r + 1] * src[r];
    acc[0] = a;
    return;
  }
  float a = acc[0];
  for (int r = 0; r < R; ++r) {
    const float* s = src + r * n;
    a = a + kk[3 * r + 1] * s[0] + kk[3 * r + 2] * s[1];
  }
  acc[0] = a;
  for (int i = 1; i < n - 1; ++i) {
    a = acc[i];
    for (int r = 0; r < R; ++r) {
      const float* s = src + r * n;
      a = a + kk[3 * r] * s[i - 1] + kk[3 * r + 1] * s[i] + kk[3 * r + 2] * s[i + 1];
    }
    acc[i] = a;
  }
  a = acc[n - 1];
  for (int r = 0; r < R; ++r) {
    const float* s = src + r * n;
    a = a + kk[3 * r] * s[n - 2] + kk[3 * r + 1] * s[n - 1];
  }
  acc[n - 1] = a;
}

/// out[o,v] += k[o][i][tap] * in[i, v+tap] over the taps in (i, dz, dy, dx)
/// order, skipping out-of-range taps. `k` is laid out like Conv3d::w, and
/// `out` is pre-initialised and shaped like `in` with k's output channels.
void add_conv(const Tensor4& in, const float* k, Tensor4& out) {
  const int nx = in.nx(), ny = in.ny(), nz = in.nz();
  const int in_c = in.channels();
  for (int o = 0; o < out.channels(); ++o) {
    for (int z = 0; z < nz; ++z) {
      for (int yy = 0; yy < ny; ++yy) {
        float* acc = out.data() + out.index(o, 0, yy, z);
        const int dy_lo = yy > 0 ? -1 : 0;
        const int dy_hi = yy + 1 < ny ? 1 : 0;
        for (int i = 0; i < in_c; ++i) {
          for (int dz = -1; dz <= 1; ++dz) {
            const int sz = z + dz;
            if (sz < 0 || sz >= nz) continue;
            const float* taps =
                k + ((static_cast<std::size_t>(o) * in_c + i) * 9 + (dz + 1) * 3 + (dy_lo + 1)) * 3;
            const float* src = in.data() + in.index(i, 0, yy + dy_lo, sz);
            switch (dy_hi - dy_lo + 1) {
              case 1: add_row_taps<1>(acc, src, taps, nx); break;
              case 2: add_row_taps<2>(acc, src, taps, nx); break;
              default: add_row_taps<3>(acc, src, taps, nx); break;
            }
          }
        }
      }
    }
  }
}

/// Weight gradients from one output row of g: for each of the R source rows
/// and each tap j, k[3r+j] += g[i]*src_r[i+j-1] over i ascending, skipping
/// every i with g[i] == 0 and the terms whose index falls outside [0, n).
/// The 3R accumulators stay in registers across the row.
template <int R>
void add_row_grads(float* k, const float* g, const float* src, int n) {
  float a[3 * R];
  for (int j = 0; j < 3 * R; ++j) a[j] = k[j];
  const float g0 = g[0];
  if (g0 != 0.f) {
    for (int r = 0; r < R; ++r) {
      const float* s = src + r * n;
      a[3 * r + 1] += g0 * s[0];
      if (n > 1) a[3 * r + 2] += g0 * s[1];
    }
  }
  for (int i = 1; i < n - 1; ++i) {
    const float gi = g[i];
    if (gi == 0.f) continue;
    for (int r = 0; r < R; ++r) {
      const float* s = src + r * n;
      a[3 * r] += gi * s[i - 1];
      a[3 * r + 1] += gi * s[i];
      a[3 * r + 2] += gi * s[i + 1];
    }
  }
  if (n > 1 && g[n - 1] != 0.f) {
    const float gl = g[n - 1];
    for (int r = 0; r < R; ++r) {
      const float* s = src + r * n;
      a[3 * r] += gl * s[n - 2];
      a[3 * r + 1] += gl * s[n - 1];
    }
  }
  for (int j = 0; j < 3 * R; ++j) k[j] = a[j];
}

}  // namespace

// --- Conv3d ---------------------------------------------------------------------

void Conv3d::init(int in_channels, int out_channels, util::Rng& rng) {
  in_c = in_channels;
  out_c = out_channels;
  w.resize(static_cast<std::size_t>(in_c) * out_c * 27);
  b.assign(static_cast<std::size_t>(out_c), 0.f);
  // He initialization for relu stacks.
  const double stddev = std::sqrt(2.0 / (in_c * 27.0));
  for (auto& weight : w) weight = static_cast<float>(rng.normal(0.0, stddev));
}

void Conv3d::forward(const Tensor4& x, Tensor4& y) const {
  const bool x_ok = x.channels() == in_c;
  CHASE_ASSERT(x_ok, "Conv3d::forward: x has the wrong channel count");
  if (!x_ok) return;
  y = Tensor4(out_c, x.nx(), x.ny(), x.nz());
  if (y.size() == 0) return;
  // y[oc,v] starts at b[oc], then adds w*x over the taps in (ic, dz, dy, dx)
  // order.
  for (int oc = 0; oc < out_c; ++oc) {
    std::fill_n(y.channel(oc), y.voxels(), b[static_cast<std::size_t>(oc)]);
  }
  add_conv(x, w.data(), y);
}

void Conv3d::backward(const Tensor4& x, const Tensor4& dy, Tensor4* dx,
                      std::vector<float>& dw, std::vector<float>& db) const {
  const bool x_ok = x.channels() == in_c;
  const bool dy_ok = dy.channels() == out_c;
  const bool dims_ok = dy.nx() == x.nx() && dy.ny() == x.ny() && dy.nz() == x.nz();
  const bool dw_ok = dw.size() == w.size();
  const bool db_ok = db.size() == b.size();
  CHASE_ASSERT(x_ok, "Conv3d::backward: x has the wrong channel count");
  CHASE_ASSERT(dy_ok, "Conv3d::backward: dy has the wrong channel count");
  CHASE_ASSERT(dims_ok, "Conv3d::backward: dy and x differ in shape");
  CHASE_ASSERT(dw_ok, "Conv3d::backward: dw is not sized like w");
  CHASE_ASSERT(db_ok, "Conv3d::backward: db is not sized like b");
  if (!(x_ok && dy_ok && dims_ok && dw_ok && db_ok)) return;
  const int nx = x.nx(), ny = x.ny(), nz = x.nz();
  if (dx != nullptr) *dx = Tensor4(in_c, nx, ny, nz);
  if (x.voxels() == 0) return;

  // dw and db: each accumulator adds its terms over output voxels in
  // (z, y, x) order, skipping g == 0 and out-of-range taps.
  for (int oc = 0; oc < out_c; ++oc) {
    float bias_grad = db[static_cast<std::size_t>(oc)];
    for (int z = 0; z < nz; ++z) {
      for (int yy = 0; yy < ny; ++yy) {
        const float* g = dy.data() + dy.index(oc, 0, yy, z);
        for (int i = 0; i < nx; ++i) {
          const float gi = g[i];
          if (gi != 0.f) bias_grad += gi;
        }
        const int dy_lo = yy > 0 ? -1 : 0;
        const int dy_hi = yy + 1 < ny ? 1 : 0;
        for (int ic = 0; ic < in_c; ++ic) {
          for (int dz = -1; dz <= 1; ++dz) {
            const int sz = z + dz;
            if (sz < 0 || sz >= nz) continue;
            float* k = &dw[weight_index(oc, ic, dz, dy_lo, -1)];
            const float* src = x.data() + x.index(ic, 0, yy + dy_lo, sz);
            switch (dy_hi - dy_lo + 1) {
              case 1: add_row_grads<1>(k, g, src, nx); break;
              case 2: add_row_grads<2>(k, g, src, nx); break;
              default: add_row_grads<3>(k, g, src, nx); break;
            }
          }
        }
      }
    }
    db[static_cast<std::size_t>(oc)] = bias_grad;
  }
  if (dx == nullptr) return;

  // dx is a transposed conv: dx[ic,s] adds g*w with oc ascending and, within
  // each oc, the taps in reverse (dz, dy, dx) order, the order in which a
  // loop over output voxels in (z, y, x) order reaches s. That is a forward
  // conv of dy with the kernel transposed in (oc, ic) and flipped in space.
  // Unlike dw, this pass adds the g == 0 terms. With finite weights each is
  // +-0, and adding +-0 to a round-to-nearest sum that starts at +0, as the
  // fresh dx does, never changes it: such a sum is never -0.
  std::vector<float> flipped(w.size());
  for (int oc = 0; oc < out_c; ++oc) {
    for (int ic = 0; ic < in_c; ++ic) {
      const float* from = &w[weight_index(oc, ic, -1, -1, -1)];
      float* to = &flipped[(static_cast<std::size_t>(ic) * out_c + oc) * 27];
      std::reverse_copy(from, from + 27, to);
    }
  }
  add_conv(dy, flipped.data(), *dx);
}

// --- FfnModel -------------------------------------------------------------------

FfnModel::FfnModel(const FfnConfig& config) : config_(config) {
  assert(config_.fov % 2 == 1);
  util::Rng rng(config_.seed);
  const int C = config_.channels;
  convs_.resize(static_cast<std::size_t>(2 + 2 * config_.modules));
  convs_[0].init(2, C, rng);
  for (int m = 0; m < config_.modules; ++m) {
    convs_[static_cast<std::size_t>(1 + 2 * m)].init(C, C, rng);
    convs_[static_cast<std::size_t>(2 + 2 * m)].init(C, C, rng);
  }
  convs_.back().init(C, 1, rng);
  vw_.resize(convs_.size());
  vb_.resize(convs_.size());
  sw_.resize(convs_.size());
  sb_.resize(convs_.size());
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    vw_[i].assign(convs_[i].w.size(), 0.f);
    vb_[i].assign(convs_[i].b.size(), 0.f);
    sw_[i].assign(convs_[i].w.size(), 0.f);
    sb_[i].assign(convs_[i].b.size(), 0.f);
  }
}

void FfnModel::forward(const Tensor4& input, Tensor4& logits, Workspace* ws) const {
  // Layout of computation:
  //   h = conv_in(input)
  //   for each module: h = h + conv2(relu(conv1(relu(h))))
  //   logits = conv_out(relu(h))
  //
  // When a workspace is supplied, intermediates are MOVED into the
  // activation log (layout in the Workspace doc) instead of deep-copied;
  // the log is reserved up front so moved-in entries never relocate and the
  // trunk state can be read back from the log by reference. backward() gets
  // the input tensor as a parameter, so it is not logged at all.
  if (ws == nullptr) {
    Tensor4 h;
    convs_[0].forward(input, h);
    for (int m = 0; m < config_.modules; ++m) {
      Tensor4 r1, t1, r2, t2;
      relu_forward(h, r1);
      convs_[static_cast<std::size_t>(1 + 2 * m)].forward(r1, t1);
      relu_forward(t1, r2);
      convs_[static_cast<std::size_t>(2 + 2 * m)].forward(r2, t2);
      add_into(t2, h);  // residual: h_{m+1} = h_m + conv2(relu(conv1(relu(h_m))))
      h = std::move(t2);
    }
    Tensor4 rout;
    relu_forward(h, rout);
    convs_.back().forward(rout, logits);
    return;
  }

  std::vector<Tensor4>& acts = ws->activations;
  acts.clear();
  acts.reserve(static_cast<std::size_t>(2 + 4 * config_.modules));
  {
    Tensor4 h0;
    convs_[0].forward(input, h0);
    acts.push_back(std::move(h0));  // pre-activation trunk state after conv_in
  }
  for (int m = 0; m < config_.modules; ++m) {
    const Tensor4& h = acts.back();  // trunk state h_m
    Tensor4 r1, t1, r2, t2;
    relu_forward(h, r1);
    convs_[static_cast<std::size_t>(1 + 2 * m)].forward(r1, t1);
    relu_forward(t1, r2);
    convs_[static_cast<std::size_t>(2 + 2 * m)].forward(r2, t2);
    add_into(t2, h);  // residual: h_{m+1} = h_m + conv2(relu(conv1(relu(h_m))))
    acts.push_back(std::move(r1));
    acts.push_back(std::move(t1));
    acts.push_back(std::move(r2));
    acts.push_back(std::move(t2));  // trunk state h_{m+1}
  }
  Tensor4 rout;
  relu_forward(acts.back(), rout);
  convs_.back().forward(rout, logits);
  acts.push_back(std::move(rout));
}

float FfnModel::logistic_loss(const Tensor4& logits, const Volume<std::uint8_t>& target,
                              Tensor4& dlogits, double normalizer) {
  dlogits = Tensor4(1, logits.nx(), logits.ny(), logits.nz());
  double total = 0.0;
  const std::size_t n = logits.voxels();
  const float divisor = static_cast<float>(normalizer);
  for (int z = 0; z < logits.nz(); ++z) {
    for (int y = 0; y < logits.ny(); ++y) {
      for (int x = 0; x < logits.nx(); ++x) {
        const float logit = logits.at(0, x, y, z);
        const float label = target.at(x, y, z) ? 1.f : 0.f;
        const float p = 1.f / (1.f + std::exp(-logit));
        // Numerically-stable BCE with logits.
        const float loss = std::max(logit, 0.f) - logit * label +
                           std::log1p(std::exp(-std::abs(logit)));
        total += loss;
        // Divided by the caller's batch-wide normalizer, NOT this call's
        // voxel count: shard gradients summed across workers then average
        // exactly once.
        dlogits.at(0, x, y, z) = (p - label) / divisor;
      }
    }
  }
  // The loss reported stays a per-call mean regardless of normalizer.
  return static_cast<float>(total / static_cast<double>(n));
}

float FfnModel::logistic_loss(const Tensor4& logits, const Volume<std::uint8_t>& target,
                              Tensor4& dlogits) {
  return logistic_loss(logits, target, dlogits,
                       static_cast<double>(logits.voxels()));
}

void FfnModel::Gradients::add(const Gradients& other) {
  assert(w.size() == other.w.size() && b.size() == other.b.size());
  for (std::size_t l = 0; l < w.size(); ++l) {
    std::vector<float>& wl = w[l];
    std::vector<float>& bl = b[l];
    const std::vector<float>& ow = other.w[l];
    const std::vector<float>& ob = other.b[l];
    assert(wl.size() == ow.size() && bl.size() == ob.size());
    for (std::size_t i = 0; i < wl.size(); ++i) wl[i] += ow[i];
    for (std::size_t i = 0; i < bl.size(); ++i) bl[i] += ob[i];
  }
}

void FfnModel::Gradients::reset() {
  for (auto& layer : w) std::fill(layer.begin(), layer.end(), 0.f);
  for (auto& layer : b) std::fill(layer.begin(), layer.end(), 0.f);
}

FfnModel::Gradients FfnModel::make_gradients() const {
  Gradients g;
  g.w.resize(convs_.size());
  g.b.resize(convs_.size());
  for (std::size_t l = 0; l < convs_.size(); ++l) {
    g.w[l].assign(convs_[l].w.size(), 0.f);
    g.b[l].assign(convs_[l].b.size(), 0.f);
  }
  return g;
}

void FfnModel::backward(const Tensor4& input, const Tensor4& dlogits, const Workspace& ws,
                        Gradients& grads) const {
  const auto& acts = ws.activations;
  // acts layout: [h0, (r1, t1, r2, h_m)*modules, rout]
  assert(acts.size() == static_cast<std::size_t>(2 + 4 * config_.modules));
  assert(grads.w.size() == convs_.size());

  // conv_out.
  const Tensor4& rout = acts.back();
  Tensor4 d_rout;
  convs_.back().backward(rout, dlogits, &d_rout, grads.w.back(), grads.b.back());
  // relu before conv_out; its input is the final trunk state h_M.
  const Tensor4& h_final = acts[acts.size() - 2];
  relu_backward(h_final, d_rout);
  Tensor4 dh = std::move(d_rout);

  for (int m = config_.modules - 1; m >= 0; --m) {
    const std::size_t base = 1 + static_cast<std::size_t>(m) * 4;
    const Tensor4& r1 = acts[base];      // relu(h_m)
    const Tensor4& t1 = acts[base + 1];  // conv1(r1)
    const Tensor4& r2 = acts[base + 2];  // relu(t1)
    // Trunk input to this module: h_m (h0 when m == 0, else previous h).
    const Tensor4& h_in = acts[base - 1];

    // Residual: dh flows both into the skip and the conv branch.
    Tensor4 d_r2;
    convs_[static_cast<std::size_t>(2 + 2 * m)].backward(
        r2, dh, &d_r2, grads.w[static_cast<std::size_t>(2 + 2 * m)],
        grads.b[static_cast<std::size_t>(2 + 2 * m)]);
    relu_backward(t1, d_r2);
    Tensor4 d_r1;
    convs_[static_cast<std::size_t>(1 + 2 * m)].backward(
        r1, d_r2, &d_r1, grads.w[static_cast<std::size_t>(1 + 2 * m)],
        grads.b[static_cast<std::size_t>(1 + 2 * m)]);
    relu_backward(h_in, d_r1);
    add_into(dh, d_r1);  // total gradient at h_m
  }

  // conv_in: gradient w.r.t. its input is not needed.
  convs_[0].backward(input, dh, nullptr, grads.w[0], grads.b[0]);
}

void FfnModel::apply_gradients(const Gradients& grads, const OptimizerConfig& optimizer) {
  assert(grads.w.size() == convs_.size());
  if (optimizer.kind != moments_kind_) {
    // The moment buffers carry the other optimizer's state (vw_/vb_ double
    // as SGD momentum and Adam first moment); a kind switch must start from
    // clean moments and a fresh bias-correction schedule.
    for (auto& layer : vw_) std::fill(layer.begin(), layer.end(), 0.f);
    for (auto& layer : vb_) std::fill(layer.begin(), layer.end(), 0.f);
    for (auto& layer : sw_) std::fill(layer.begin(), layer.end(), 0.f);
    for (auto& layer : sb_) std::fill(layer.begin(), layer.end(), 0.f);
    adam_steps_ = 0;
    moments_kind_ = optimizer.kind;
  }
  if (optimizer.kind == OptimizerConfig::Kind::Sgd) {
    for (std::size_t l = 0; l < convs_.size(); ++l) {
      Conv3d& conv = convs_[l];
      std::vector<float>& vw = vw_[l];
      std::vector<float>& vb = vb_[l];
      const std::vector<float>& dw = grads.w[l];
      const std::vector<float>& db = grads.b[l];
      for (std::size_t i = 0; i < conv.w.size(); ++i) {
        float& v = vw[i];
        v = optimizer.momentum * v - optimizer.learning_rate * dw[i];
        conv.w[i] += v;
      }
      for (std::size_t i = 0; i < conv.b.size(); ++i) {
        float& v = vb[i];
        v = optimizer.momentum * v - optimizer.learning_rate * db[i];
        conv.b[i] += v;
      }
    }
  } else {
    // Adam (Kingma & Ba) with bias correction.
    adam_steps_ += 1;
    const double t = static_cast<double>(adam_steps_);
    const double bias1 = 1.0 - std::pow(optimizer.beta1, t);
    const double bias2 = 1.0 - std::pow(optimizer.beta2, t);
    auto update = [&](std::vector<float>& param, std::vector<float>& m,
                      std::vector<float>& s, const std::vector<float>& grad) {
      for (std::size_t i = 0; i < param.size(); ++i) {
        const float g = grad[i];
        float& mi = m[i];
        float& si = s[i];
        mi = optimizer.beta1 * mi + (1.f - optimizer.beta1) * g;
        si = optimizer.beta2 * si + (1.f - optimizer.beta2) * g * g;
        const double mhat = mi / bias1;
        const double shat = si / bias2;
        param[i] -= static_cast<float>(optimizer.learning_rate * mhat /
                                       (std::sqrt(shat) + optimizer.epsilon));
      }
    };
    for (std::size_t l = 0; l < convs_.size(); ++l) {
      Conv3d& conv = convs_[l];
      update(conv.w, vw_[l], sw_[l], grads.w[l]);
      update(conv.b, vb_[l], sb_[l], grads.b[l]);
    }
  }
}

void FfnModel::train_step(const Tensor4& input, const Tensor4& dlogits,
                          const Workspace& ws, float learning_rate, float momentum) {
  OptimizerConfig config;
  config.kind = OptimizerConfig::Kind::Sgd;
  config.learning_rate = learning_rate;
  config.momentum = momentum;
  train_step(input, dlogits, ws, config);
}

void FfnModel::train_step(const Tensor4& input, const Tensor4& dlogits,
                          const Workspace& ws, const OptimizerConfig& optimizer) {
  if (grad_scratch_.empty()) {
    grad_scratch_ = make_gradients();
  } else {
    grad_scratch_.reset();
  }
  backward(input, dlogits, ws, grad_scratch_);
  apply_gradients(grad_scratch_, optimizer);
}

double FfnModel::forward_macs() const {
  const std::size_t fov3 = static_cast<std::size_t>(config_.fov) * config_.fov * config_.fov;
  double macs = 0.0;
  for (const auto& conv : convs_) macs += conv.macs(fov3);
  return macs;
}

std::size_t FfnModel::parameter_count() const {
  std::size_t n = 0;
  for (const auto& conv : convs_) n += conv.w.size() + conv.b.size();
  return n;
}

std::vector<float> FfnModel::serialize() const {
  std::vector<float> blob;
  serialize_into(blob);
  return blob;
}

void FfnModel::serialize_into(std::vector<float>& out) const {
  out.resize(parameter_count());
  std::size_t offset = 0;
  for (const auto& conv : convs_) {
    std::copy(conv.w.begin(), conv.w.end(), out.begin() + static_cast<std::ptrdiff_t>(offset));
    offset += conv.w.size();
    std::copy(conv.b.begin(), conv.b.end(), out.begin() + static_cast<std::ptrdiff_t>(offset));
    offset += conv.b.size();
  }
}

bool FfnModel::deserialize(const std::vector<float>& blob) {
  std::size_t offset = 0;
  for (auto& conv : convs_) {
    if (offset + conv.w.size() + conv.b.size() > blob.size()) return false;
    std::copy_n(blob.begin() + static_cast<std::ptrdiff_t>(offset), conv.w.size(),
                conv.w.begin());
    offset += conv.w.size();
    std::copy_n(blob.begin() + static_cast<std::ptrdiff_t>(offset), conv.b.size(),
                conv.b.begin());
    offset += conv.b.size();
  }
  return offset == blob.size();
}

// --- FfnTrainer ------------------------------------------------------------------

FfnTrainer::FfnTrainer(FfnModel& model, const Volume<float>& image,
                       const Volume<std::uint8_t>& labels, Options options)
    : model_(model), image_(image), labels_(labels), options_(options),
      rng_(options.seed) {
  const int half = model_.config().fov / 2;
  for (int z = half; z < labels_.nz() - half; ++z) {
    for (int y = half; y < labels_.ny() - half; ++y) {
      for (int x = half; x < labels_.nx() - half; ++x) {
        if (labels_.at(x, y, z)) positive_sites_.push_back(labels_.index(x, y, z));
      }
    }
  }
}

void FfnTrainer::sample_center(int& x, int& y, int& z) {
  const int half = model_.config().fov / 2;
  if (!positive_sites_.empty() && rng_.chance(0.9)) {
    const std::size_t flat =
        positive_sites_[rng_.uniform_u64(positive_sites_.size())];
    const int nx = labels_.nx(), ny = labels_.ny();
    x = static_cast<int>(flat % static_cast<std::size_t>(nx));
    y = static_cast<int>((flat / static_cast<std::size_t>(nx)) % static_cast<std::size_t>(ny));
    z = static_cast<int>(flat / (static_cast<std::size_t>(nx) * ny));
  } else {
    x = half + static_cast<int>(rng_.uniform_u64(
                   static_cast<std::uint64_t>(std::max(1, image_.nx() - 2 * half))));
    y = half + static_cast<int>(rng_.uniform_u64(
                   static_cast<std::uint64_t>(std::max(1, image_.ny() - 2 * half))));
    z = half + static_cast<int>(rng_.uniform_u64(
                   static_cast<std::uint64_t>(std::max(1, image_.nz() - 2 * half))));
  }
}

void FfnTrainer::extract_input(int cx, int cy, int cz, const Volume<float>& pom,
                               Tensor4& input) const {
  const int fov = model_.config().fov;
  const int half = fov / 2;
  input = Tensor4(2, fov, fov, fov);
  for (int z = 0; z < fov; ++z) {
    for (int y = 0; y < fov; ++y) {
      for (int x = 0; x < fov; ++x) {
        const int sx = cx + x - half, sy = cy + y - half, sz = cz + z - half;
        const float img = image_.get_or(sx, sy, sz, 0.f);
        input.at(0, x, y, z) = (img - options_.input_mean) / options_.input_scale;
        input.at(1, x, y, z) = pom.get_or(sx, sy, sz, model_.config().pom_init);
      }
    }
  }
}

float FfnTrainer::step() {
  const int fov = model_.config().fov;
  const int half = fov / 2;
  int cx, cy, cz;
  sample_center(cx, cy, cz);

  // Local POM initialized to background prior with an active seed center.
  Volume<float> pom(image_.nx(), image_.ny(), image_.nz(), model_.config().pom_init);
  pom.at(cx, cy, cz) = model_.config().pom_seed;

  // Label patch around the center.
  Volume<std::uint8_t> target(fov, fov, fov, 0);
  for (int z = 0; z < fov; ++z) {
    for (int y = 0; y < fov; ++y) {
      for (int x = 0; x < fov; ++x) {
        target.at(x, y, z) = labels_.get_or(cx + x - half, cy + y - half, cz + z - half,
                                            std::uint8_t{0});
      }
    }
  }

  float last_loss = 0.f;
  for (int r = 0; r < options_.recursion; ++r) {
    Tensor4 input;
    extract_input(cx, cy, cz, pom, input);
    Tensor4 logits;
    FfnModel::Workspace ws;
    model_.forward(input, logits, &ws);
    Tensor4 dlogits;
    last_loss = FfnModel::logistic_loss(logits, target, dlogits);
    FfnModel::OptimizerConfig opt;
    opt.kind = options_.optimizer;
    opt.learning_rate = options_.learning_rate;
    opt.momentum = options_.momentum;
    model_.train_step(input, dlogits, ws, opt);
    // Write back the refined POM for the next recursion step.
    for (int z = 0; z < fov; ++z) {
      for (int y = 0; y < fov; ++y) {
        for (int x = 0; x < fov; ++x) {
          const int sx = cx + x - half, sy = cy + y - half, sz = cz + z - half;
          if (pom.inside(sx, sy, sz)) {
            pom.at(sx, sy, sz) =
                1.f / (1.f + std::exp(-logits.at(0, x, y, z)));
          }
        }
      }
    }
  }
  losses_.push_back(last_loss);
  return last_loss;
}

float FfnTrainer::train() {
  for (int i = 0; i < options_.steps; ++i) step();
  const std::size_t tail = std::max<std::size_t>(1, losses_.size() / 10);
  double total = 0;
  for (std::size_t i = losses_.size() - tail; i < losses_.size(); ++i) total += losses_[i];
  return static_cast<float>(total / static_cast<double>(tail));
}

}  // namespace chase::ml
