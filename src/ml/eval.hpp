#pragma once
/// \file eval.hpp
/// Segmentation quality metrics: voxel-level precision/recall/IoU/F1, used
/// to validate the FFN against the CONNECT ground truth ("the training
/// volume is removed from the test data volume for all validation metrics",
/// §III-C).

#include <cstdint>

#include "ml/volume.hpp"

namespace chase::ml {

struct VoxelMetrics {
  std::uint64_t true_positive = 0;
  std::uint64_t false_positive = 0;
  std::uint64_t false_negative = 0;
  double precision() const;
  double recall() const;
  double iou() const;
  double f1() const;
};

/// Compare a predicted mask (nonzero = object) against truth (nonzero = object).
VoxelMetrics voxel_metrics(const Volume<std::int32_t>& predicted,
                           const Volume<std::uint8_t>& truth);

}  // namespace chase::ml
