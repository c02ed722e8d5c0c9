#pragma once
/// \file machine.hpp
/// Hardware models for the CHASE-CI testbed: FIONA data-transfer nodes,
/// multi-tenant "FIONA8" GPU appliances (8 game GPUs each), and storage
/// FIONAs, matching the specifications in paper §II. The Inventory tracks
/// machine liveness and notifies subscribers (the Kubernetes node controller,
/// the Ceph OSD map) on state changes — the "nodes can join and leave the
/// cluster at any time" dynamism of §V.

#include <functional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "util/units.hpp"

namespace chase::cluster {

using util::Bytes;

enum class GpuModel { None, GTX1080Ti, TitanXp, V100 };

/// Peak fp32 throughput; the basis of the simulated GPU rate model.
double gpu_fp32_tflops(GpuModel m);
const char* gpu_model_name(GpuModel m);

struct MachineSpec {
  std::string name;
  std::string site;        // PRP institution, e.g. "UCSD"
  int cpu_cores = 0;
  Bytes memory = 0;
  int gpus = 0;
  GpuModel gpu_model = GpuModel::None;
  Bytes disk_capacity = 0;
  double disk_write_bw = 0;  // bytes/s
  double disk_read_bw = 0;   // bytes/s
  double nic_bps = 0;        // bytes/s (host NIC, full duplex)
};

/// Basic FIONA (paper §II): dual 12-core CPUs, 96 GB RAM, 1 TB SSD, 2×10GbE.
MachineSpec fiona(std::string name, std::string site);
/// FIONA8: a FIONA chassis with eight game GPUs (NVIDIA 1080ti).
MachineSpec fiona8(std::string name, std::string site);
/// Storage FIONA: NVMe-heavy node contributing capacity to the Ceph pool.
MachineSpec storage_fiona(std::string name, std::string site, Bytes capacity);
/// Data Transfer Node fronting an archive (e.g. the THREDDS server host).
MachineSpec dtn(std::string name, std::string site);

struct Machine {
  MachineSpec spec;
  net::NodeId net_node = -1;
  bool up = true;
};

using MachineId = int;

/// The set of physical machines, with liveness callbacks.
class Inventory {
 public:
  explicit Inventory(net::Network& net) : net_(net) {}

  MachineId add(MachineSpec spec, net::NodeId net_node);
  const Machine& machine(MachineId id) const { return machines_.at(id); }
  std::size_t size() const { return machines_.size(); }

  /// Take a machine down/up. Propagates to the network (failing in-flight
  /// flows) and notifies subscribers.
  void set_up(MachineId id, bool up);
  bool up(MachineId id) const { return machines_.at(id).up; }

  /// Subscribe to liveness changes: fn(machine, is_up).
  void subscribe(std::function<void(MachineId, bool)> fn);

  /// Machines whose spec names this site (ascending id) — the federation
  /// bench/tools carve per-site node pools out of one shared inventory.
  std::vector<MachineId> at_site(const std::string& site) const;

  int total_gpus() const;
  int total_cpus() const;
  Bytes total_memory() const;

 private:
  net::Network& net_;
  std::vector<Machine> machines_;
  std::vector<std::function<void(MachineId, bool)>> subscribers_;
};

}  // namespace chase::cluster
