#include "cluster/machine.hpp"

namespace chase::cluster {

using util::gb;
using util::tb;
using util::gbit_per_s;

double gpu_fp32_tflops(GpuModel m) {
  switch (m) {
    case GpuModel::None:
      return 0.0;
    case GpuModel::GTX1080Ti:
      return 11.3;
    case GpuModel::TitanXp:
      return 12.1;
    case GpuModel::V100:
      return 15.7;
  }
  return 0.0;
}

const char* gpu_model_name(GpuModel m) {
  switch (m) {
    case GpuModel::None:
      return "none";
    case GpuModel::GTX1080Ti:
      return "GTX 1080ti";
    case GpuModel::TitanXp:
      return "Titan Xp";
    case GpuModel::V100:
      return "V100";
  }
  return "unknown";
}

MachineSpec fiona(std::string name, std::string site) {
  MachineSpec s;
  s.name = std::move(name);
  s.site = std::move(site);
  s.cpu_cores = 24;  // dual 12-core
  s.memory = gb(96);
  s.disk_capacity = tb(1);
  s.disk_write_bw = 1.2e9;  // SATA/NVMe SSD class
  s.disk_read_bw = 2.0e9;
  s.nic_bps = gbit_per_s(20);  // two 10 GbE interfaces
  return s;
}

MachineSpec fiona8(std::string name, std::string site) {
  MachineSpec s = fiona(std::move(name), "");
  s.site = std::move(site);
  s.gpus = 8;
  s.gpu_model = GpuModel::GTX1080Ti;
  s.memory = gb(192);
  s.disk_capacity = tb(2);
  return s;
}

MachineSpec storage_fiona(std::string name, std::string site, Bytes capacity) {
  MachineSpec s;
  s.name = std::move(name);
  s.site = std::move(site);
  s.cpu_cores = 16;
  s.memory = gb(128);
  s.disk_capacity = capacity;
  s.disk_write_bw = 2.5e9;  // NVMe
  s.disk_read_bw = 3.5e9;
  s.nic_bps = gbit_per_s(40);
  return s;
}

MachineSpec dtn(std::string name, std::string site) {
  MachineSpec s;
  s.name = std::move(name);
  s.site = std::move(site);
  s.cpu_cores = 16;
  s.memory = gb(96);
  s.disk_capacity = tb(100);
  s.disk_write_bw = 1.5e9;
  s.disk_read_bw = 2.0e9;
  s.nic_bps = gbit_per_s(20);
  return s;
}

MachineId Inventory::add(MachineSpec spec, net::NodeId net_node) {
  machines_.push_back(Machine{std::move(spec), net_node, true});
  return static_cast<MachineId>(machines_.size() - 1);
}

void Inventory::set_up(MachineId id, bool up) {
  Machine& m = machines_.at(id);
  if (m.up == up) return;
  m.up = up;
  if (m.net_node >= 0) net_.set_node_up(m.net_node, up);
  for (auto& fn : subscribers_) fn(id, up);
}

void Inventory::subscribe(std::function<void(MachineId, bool)> fn) {
  subscribers_.push_back(std::move(fn));
}

std::vector<MachineId> Inventory::at_site(const std::string& site) const {
  std::vector<MachineId> out;
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    if (machines_[i].spec.site == site) out.push_back(static_cast<MachineId>(i));
  }
  return out;
}

int Inventory::total_gpus() const {
  int n = 0;
  for (const auto& m : machines_) n += m.spec.gpus;
  return n;
}

int Inventory::total_cpus() const {
  int n = 0;
  for (const auto& m : machines_) n += m.spec.cpu_cores;
  return n;
}

Bytes Inventory::total_memory() const {
  Bytes n = 0;
  for (const auto& m : machines_) n += m.spec.memory;
  return n;
}

}  // namespace chase::cluster
