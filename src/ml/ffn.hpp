#pragma once
/// \file ffn.hpp
/// A real (CPU) Flood-Filling Network, after Januszewski et al., "High-
/// precision automated reconstruction of neurons with flood-filling
/// networks" (Nature Methods 2018) [20] — the model the paper adapted "to do
/// segmentation of NASA data" (§III-B).
///
/// Architecture: a 3-D convolutional stack over a field-of-view (FOV) patch
/// with two input channels — the image and the current predicted object map
/// (POM) — and one output channel of POM logits:
///
///   conv_in(2→C) → [residual module: relu→conv(C→C)→relu→conv(C→C), +skip] × D
///           → conv_out(C→1)
///
/// Training runs R recursive steps per example, feeding the updated POM back
/// as input, with voxel-wise logistic loss against the object mask; SGD with
/// momentum. Inference (ffn_infer.hpp) grows objects from seeds by moving
/// the FOV where the POM crosses the move threshold.
///
/// The network is deliberately small (default C=8, D=2, FOV=9³) so tests and
/// examples run in seconds on CPU; paper-scale wall-clock comes from the
/// FLOP-based GPU cost model in cost.hpp.

#include <cstdint>
#include <vector>

#include "ml/volume.hpp"
#include "util/rng.hpp"

namespace chase::ml {

/// 3x3x3 same-padded convolution layer.
struct Conv3d {
  int in_c = 0, out_c = 0;
  std::vector<float> w;  // [out][in][3][3][3]
  std::vector<float> b;  // [out]

  void init(int in_channels, int out_channels, util::Rng& rng);
  std::size_t weight_index(int oc, int ic, int dz, int dy, int dx) const {
    return (((static_cast<std::size_t>(oc) * in_c + ic) * 3 + (dz + 1)) * 3 + (dy + 1)) *
               3 +
           (dx + 1);
  }
  /// `x` must have in_c channels; a mismatch is reported through
  /// CHASE_ASSERT and leaves `y` untouched. Bit-identical to the per-voxel,
  /// per-tap loop (DESIGN.md "FFN conv kernels").
  void forward(const Tensor4& x, Tensor4& y) const;
  /// Accumulate dL/dw, dL/db from dL/dy into pre-sized `dw`/`db` (+=, so a
  /// caller can fold several examples into one buffer). `dx` is overwritten
  /// with dL/dx; it may be null (input layer). `dy` must be shaped like `x`
  /// with out_c channels; any shape mismatch is reported through
  /// CHASE_ASSERT and nothing is written.
  void backward(const Tensor4& x, const Tensor4& dy, Tensor4* dx, std::vector<float>& dw,
                std::vector<float>& db) const;
  /// Multiply-accumulate count for one forward pass over `voxels`.
  double macs(std::size_t voxels) const {
    return static_cast<double>(voxels) * in_c * out_c * 27.0;
  }
};

struct FfnConfig {
  int channels = 8;    // C
  int modules = 2;     // D residual modules
  int fov = 9;         // cubic field of view (odd)
  /// POM initial fill (probability) and the seed's initial probability.
  float pom_init = 0.05f;
  float pom_seed = 0.95f;
  std::uint64_t seed = 1234;
};

class FfnModel {
 public:
  explicit FfnModel(const FfnConfig& config);

  const FfnConfig& config() const { return config_; }

  /// Forward pass: input (2, fov³) -> POM logits (1, fov³). The workspace
  /// retains activations for backward(). Layout of `activations` (the input
  /// itself is NOT logged — backward() takes it as a parameter):
  ///   [h0, (r1, t1, r2, h_m) per module, rout]
  /// Intermediates are moved in, never copied; the vector is reserved up
  /// front so earlier entries stay put while later ones land.
  struct Workspace {
    std::vector<Tensor4> activations;
  };
  void forward(const Tensor4& input, Tensor4& logits, Workspace* ws = nullptr) const;

  /// Voxel-wise logistic loss; returns the mean loss over this call's
  /// voxels. `dlogits` is the loss gradient divided by `normalizer` — pass
  /// the total voxel count of the whole (possibly sharded) batch so that
  /// summing per-shard gradients averages exactly once. The returned loss
  /// is always the per-call mean, independent of `normalizer`.
  static float logistic_loss(const Tensor4& logits, const Volume<std::uint8_t>& target,
                             Tensor4& dlogits, double normalizer);
  /// Single-trainer convenience: normalizer = this call's voxel count.
  static float logistic_loss(const Tensor4& logits, const Volume<std::uint8_t>& target,
                             Tensor4& dlogits);

  /// Per-layer parameter gradients, shaped like the conv stack. A worker
  /// accumulates one (or more) examples into a zeroed instance; a reducer
  /// sums instances with add() and applies the total once.
  struct Gradients {
    std::vector<std::vector<float>> w;
    std::vector<std::vector<float>> b;
    /// Elementwise += (shapes must match). Alloc-free.
    void add(const Gradients& other);
    /// Zero all entries, keeping the shape. Alloc-free.
    void reset();
    bool empty() const { return w.empty(); }
  };
  /// A zeroed Gradients shaped for this model.
  Gradients make_gradients() const;

  /// Accumulate parameter gradients for one example into `grads` (which
  /// must be shaped by make_gradients()). Requires the workspace of the
  /// matching forward() call and the same `input` tensor.
  void backward(const Tensor4& input, const Tensor4& dlogits, const Workspace& ws,
                Gradients& grads) const;

  /// Optimizer configuration for train_step.
  struct OptimizerConfig {
    enum class Kind { Sgd, Adam };
    Kind kind = Kind::Sgd;
    float learning_rate = 0.02f;
    float momentum = 0.9f;   // SGD
    float beta1 = 0.9f;      // Adam
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
  };

  /// Apply an already-reduced gradient with the configured optimizer.
  /// Switching OptimizerConfig::Kind mid-run resets the moment buffers and
  /// the Adam step counter — SGD momentum and Adam first-moment share
  /// storage, and mixing one kind's state into the other is silent garbage.
  void apply_gradients(const Gradients& grads, const OptimizerConfig& optimizer);

  /// Backprop + optimizer update (backward() into a scratch Gradients, then
  /// apply_gradients()). Requires the workspace of the matching forward call.
  void train_step(const Tensor4& input, const Tensor4& dlogits, const Workspace& ws,
                  const OptimizerConfig& optimizer);
  /// SGD-with-momentum convenience overload.
  void train_step(const Tensor4& input, const Tensor4& dlogits, const Workspace& ws,
                  float learning_rate, float momentum);

  /// MACs of one forward pass (basis of the GPU cost model).
  double forward_macs() const;
  std::size_t parameter_count() const;

  /// Flat access for (de)serialization into the object store.
  std::vector<float> serialize() const;
  /// Alloc-free variant: resizes `out` once, then overwrites in place.
  void serialize_into(std::vector<float>& out) const;
  bool deserialize(const std::vector<float>& blob);

 private:
  friend class FfnTrainer;
  FfnConfig config_;
  std::vector<Conv3d> convs_;  // conv_in, then 2 per module, then conv_out
  std::vector<std::vector<float>> vw_;  // first-moment buffers (weights)
  std::vector<std::vector<float>> vb_;  // first-moment buffers (biases)
  std::vector<std::vector<float>> sw_;  // Adam second moments (weights)
  std::vector<std::vector<float>> sb_;  // Adam second moments (biases)
  std::int64_t adam_steps_ = 0;
  /// Which optimizer the moment buffers currently belong to.
  OptimizerConfig::Kind moments_kind_ = OptimizerConfig::Kind::Sgd;
  /// Scratch for train_step (reused across calls; alloc-free steady state).
  Gradients grad_scratch_;
};

/// Training driver: samples FOV patches around object voxels from a labelled
/// volume and runs the recursive FFN update.
class FfnTrainer {
 public:
  struct Options {
    int steps = 400;            // optimizer steps
    int recursion = 2;          // POM refinement passes per example
    float learning_rate = 0.02f;
    float momentum = 0.9f;
    /// Optimizer: SGD-with-momentum, or Adam (the FFN paper's choice).
    FfnModel::OptimizerConfig::Kind optimizer = FfnModel::OptimizerConfig::Kind::Sgd;
    std::uint64_t seed = 99;
    /// Normalization: IVT value mapped to input as (v - mean)/scale.
    float input_mean = 200.f;
    float input_scale = 200.f;
  };

  FfnTrainer(FfnModel& model, const Volume<float>& image,
             const Volume<std::uint8_t>& labels, Options options);

  /// Run one SGD step (one sampled example); returns its loss.
  float step();
  /// Run all configured steps; returns mean loss of the final 10%.
  float train();

  const std::vector<float>& loss_history() const { return losses_; }

 private:
  void sample_center(int& x, int& y, int& z);
  void extract_input(int cx, int cy, int cz, const Volume<float>& pom, Tensor4& input) const;

  FfnModel& model_;
  const Volume<float>& image_;
  const Volume<std::uint8_t>& labels_;
  Options options_;
  util::Rng rng_;
  std::vector<std::size_t> positive_sites_;
  std::vector<float> losses_;
};

}  // namespace chase::ml
