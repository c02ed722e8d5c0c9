#pragma once
/// \file connect.hpp
/// The CONNected objECT (CONNECT) algorithm [Sellars et al. 2013, 2017]: the
/// paper's baseline segmentation, previously "MATLAB functions using a single
/// CPU". CONNECT thresholds the IVT field and labels connected components in
/// space *and time* (26-connectivity on the (x, y, t) volume), tracking "the
/// entire life-cycle of a detected earth science phenomena": genesis,
/// pathway, and termination.
///
/// Implemented with a serial union-find over the voxel grid: like the
/// paper's "single CPU, limited memory" baseline, it runs on one core, and
/// it also serves as a fair small-scale comparator to the FFN.

#include <cstdint>
#include <vector>

#include "ml/volume.hpp"

namespace chase::ml {

/// One tracked space-time object.
struct ConnectObject {
  int id = 0;
  std::size_t voxels = 0;
  int t_start = 0;       // genesis time step
  int t_end = 0;         // termination time step
  float max_intensity = 0.f;
  /// Centroid (x, y) per life-cycle time step — the object's pathway.
  std::vector<std::pair<double, double>> track;
  int duration() const { return t_end - t_start + 1; }
};

struct ConnectResult {
  Volume<std::int32_t> labels;  // 0 = background, 1..N = object id
  std::vector<ConnectObject> objects;
};

struct ConnectParams {
  /// IVT threshold for "intense moisture transport" (kg/m/s).
  double threshold = 250.0;
  /// Drop objects smaller than this many voxels (noise speckle).
  std::size_t min_voxels = 8;
  /// Use 26-connectivity (true) or 6-connectivity (false).
  bool diagonal_connectivity = true;
};

/// Segment and track objects in an IVT volume (x, y, t).
ConnectResult connect_label(const Volume<float>& ivt, const ConnectParams& params);

/// Summary statistics over a CONNECT run (for the science analysis step).
struct ConnectStats {
  std::size_t object_count = 0;
  double mean_duration = 0.0;   // time steps
  double mean_voxels = 0.0;
  double max_intensity = 0.0;
  double mean_track_length = 0.0;  // grid-units travelled by the centroid
};

ConnectStats summarize(const ConnectResult& result);

}  // namespace chase::ml
