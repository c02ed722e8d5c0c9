#pragma once
/// \file renderwall.hpp
/// Distributed visualization (paper §VII related work): "Calit2 visualization
/// researchers ... scheduled and debugged a scalable OpenGL-based
/// visualization application across 11 remote GPU nodes", driving displays at
/// UC Merced from a motion-tracked wand in San Diego "with unnoticeable
/// latency". This module models that render wall: each frame, every GPU node
/// renders its tile (GPU time proportional to scene complexity) and streams
/// the compressed tile over the PRP to the display site; the frame is shown
/// when the last tile lands. Input events travel the reverse path.

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"

namespace chase::viz {

struct RenderWallOptions {
  int tiles = 11;                  // one per GPU node
  double tile_pixels = 1920.0 * 1080.0;
  double bytes_per_pixel = 0.6;    // after compression
  /// GPU render throughput (pixels/s) per node.
  double render_pixels_per_s = 4.0e9;
  /// Jitter factor applied per tile per frame (load imbalance), in [0, x].
  double render_jitter = 0.25;
  double frame_rate_hz = 30.0;
  std::uint64_t seed = 7;
};

struct RenderWallReport {
  std::uint64_t frames = 0;
  double mean_latency = 0.0;   // input -> last tile displayed (seconds)
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double max_latency = 0.0;
  /// Fraction of frames completed within the frame budget (1/fps).
  double on_time_fraction = 0.0;
};

/// Runs `frames` frames of the interactive loop and reports latency.
/// `gpu_nodes` are the render nodes; `display` is the remote display site;
/// `input` is where the tracked wand lives (the far site).
class RenderWall {
 public:
  RenderWall(sim::Simulation& sim, net::Network& net, RenderWallOptions options)
      : sim_(sim), net_(net), options_(options) {}

  /// Spawns the interactive loop; `done` fires when all frames are rendered.
  void run(const std::vector<net::NodeId>& gpu_nodes, net::NodeId display,
           net::NodeId input, std::uint64_t frames, sim::EventPtr done);

  RenderWallReport report() const;

 private:
  static sim::Task frame_loop(RenderWall* self, std::vector<net::NodeId> gpu_nodes,
                              net::NodeId display, net::NodeId input,
                              std::uint64_t frames, sim::EventPtr done);

  sim::Simulation& sim_;
  net::Network& net_;
  RenderWallOptions options_;
  std::vector<double> latencies_;
};

}  // namespace chase::viz
