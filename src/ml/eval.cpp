#include "ml/eval.hpp"

namespace chase::ml {

double VoxelMetrics::precision() const {
  const auto denom = true_positive + false_positive;
  return denom == 0 ? 0.0 : static_cast<double>(true_positive) / static_cast<double>(denom);
}

double VoxelMetrics::recall() const {
  const auto denom = true_positive + false_negative;
  return denom == 0 ? 0.0 : static_cast<double>(true_positive) / static_cast<double>(denom);
}

double VoxelMetrics::iou() const {
  const auto denom = true_positive + false_positive + false_negative;
  return denom == 0 ? 0.0 : static_cast<double>(true_positive) / static_cast<double>(denom);
}

double VoxelMetrics::f1() const {
  const double p = precision();
  const double r = recall();
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

VoxelMetrics voxel_metrics(const Volume<std::int32_t>& predicted,
                           const Volume<std::uint8_t>& truth) {
  VoxelMetrics m;
  for (int z = 0; z < truth.nz(); ++z) {
    for (int y = 0; y < truth.ny(); ++y) {
      for (int x = 0; x < truth.nx(); ++x) {
        const bool p = predicted.at(x, y, z) != 0;
        const bool t = truth.at(x, y, z) != 0;
        if (p && t) {
          ++m.true_positive;
        } else if (p) {
          ++m.false_positive;
        } else if (t) {
          ++m.false_negative;
        }
      }
    }
  }
  return m;
}

}  // namespace chase::ml
