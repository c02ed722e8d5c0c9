#pragma once
/// \file server.hpp
/// The THREDDS data server and the Aria2-style parallel downloader
/// (paper §III-A). The server hosts dataset catalogs and serves per-variable
/// subsets; each request pays a CPU-bound extraction cost (bounded by the
/// server's core count) before streaming the subset over the network, so
/// aggregate service throughput saturates realistically as workers scale.
///
/// Aria2Client mirrors "open source Aria2 file transfer software that allows
/// multiple parallel downloads (20 parallel downloads in our case)": N
/// connections pull file indices from a shared list until it drains.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "thredds/catalog.hpp"

namespace chase::thredds {

class ThreddsServer {
 public:
  struct Options {
    /// Concurrent subset-extraction slots (server CPU cores doing decode +
    /// variable slicing).
    int extraction_slots = 16;
    /// CPU time to open a NetCDF file and slice one variable out of it.
    /// Calibrated so 112,249 subset requests through 16 slots take ~35 min
    /// of pure service time — the paper's 37-minute Step 1 with pipeline
    /// fill/drain on top.
    double extraction_seconds = 0.31;
    /// Fixed HTTP/catalog overhead per request.
    double request_overhead = 0.01;
    /// Per-connection streaming cap (single HTTP response stream).
    double per_connection_rate = 40e6;
    /// Whole-file (no subsetting) service rate per slot: raw fileServer
    /// streaming is bound by archive-disk seeks + HTTP, not variable
    /// extraction. 16 slots x 8 MB/s ~ 128 MB/s aggregate raw serving.
    double raw_stream_rate_per_slot = 8e6;
  };

  ThreddsServer(sim::Simulation& sim, net::Network& net, net::NodeId node,
                Options options);

  void add_dataset(Dataset ds);
  const Dataset* dataset(const std::string& name) const;
  net::NodeId node() const { return node_; }

  /// Fetch one file (subset to `variable`, or the whole file if empty) to
  /// `client`. Sets *ok (if given); *bytes receives the payload size.
  /// (Coroutine: string parameters by value — the frame must own them
  /// across awaits; see chase_lint coro-ref-param.)
  sim::Task fetch(net::NodeId client, std::string dataset, std::size_t file_index,
                  std::string variable, bool* ok = nullptr, Bytes* bytes = nullptr);

  // Service-side statistics.
  double bytes_served() const { return bytes_served_; }
  std::uint64_t requests_served() const { return requests_served_; }
  std::size_t queue_length() const { return slots_->queue_length(); }

 private:
  sim::Simulation& sim_;
  net::Network& net_;
  net::NodeId node_;
  Options options_;
  std::vector<Dataset> datasets_;
  std::unique_ptr<sim::Semaphore> slots_;
  double bytes_served_ = 0.0;
  std::uint64_t requests_served_ = 0;
};

/// Result of a bulk download session.
struct DownloadStats {
  std::uint64_t files = 0;
  Bytes bytes = 0;
  bool ok = true;
  /// Indices whose fetch failed (server/link down mid-transfer); callers
  /// retry exactly these instead of the whole list.
  std::vector<std::size_t> failed;
};

/// Multi-connection downloader: `connections` concurrent streams share the
/// list of file indices and pull until it is empty.
class Aria2Client {
 public:
  Aria2Client(sim::Simulation& sim, ThreddsServer& server, net::NodeId client_node,
              int connections)
      : sim_(sim), server_(server), client_(client_node), connections_(connections) {}

  /// Download all `files` of `dataset` (variable subset); fills `stats`.
  sim::Task download(std::string dataset, std::vector<std::size_t> files,
                     std::string variable, DownloadStats* stats);

 private:
  static sim::Task connection_loop(Aria2Client* self, std::string dataset,
                                   std::string variable,
                                   std::shared_ptr<std::vector<std::size_t>> files,
                                   std::shared_ptr<std::size_t> next,
                                   DownloadStats* stats,
                                   std::shared_ptr<sim::Latch> latch);

  sim::Simulation& sim_;
  ThreddsServer& server_;
  net::NodeId client_;
  int connections_;
};

}  // namespace chase::thredds
