#pragma once
/// \file ceph.hpp
/// The Rook/Ceph substitute (paper §II-A): a distributed object store with
/// pools, placement groups, CRUSH-style (straw2) pseudo-random replica
/// placement across failure domains, primary-copy replication, and
/// autonomous recovery ("Ceph replicates and dynamically distributes data
/// between storage nodes while monitoring their health").
///
/// Object payloads are virtual (byte counts); placement, replication,
/// contention (per-OSD serialized disks, network transfers) and recovery
/// traffic are simulated faithfully. Capacity accounting is real.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "mon/metrics.hpp"
#include "net/network.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace chase::ceph {

using util::Bytes;

/// Completion handle for asynchronous I/O.
struct IoResult {
  sim::EventPtr done = sim::make_event();
  bool ok = false;
  Bytes bytes = 0;
  double start_time = 0.0;
  double finish_time = -1.0;
};
using IoPtr = std::shared_ptr<IoResult>;

enum class PgState { ActiveClean, Degraded, Recovering };

struct Health {
  int pgs_total = 0;
  int pgs_clean = 0;
  int pgs_degraded = 0;   // fewer live replicas than desired
  int pgs_recovering = 0;
  Bytes bytes_stored = 0;  // logical bytes (before replication)
  bool healthy() const { return pgs_clean == pgs_total; }
};

class CephCluster {
 public:
  struct Options {
    int replication = 3;
    int pg_count = 128;
    /// Throttle for recovery traffic per PG being recovered (bytes/s).
    double recovery_rate = 200e6;
    /// Fixed metadata/commit overhead per object operation (seconds).
    double op_latency = 2e-3;
  };

  CephCluster(sim::Simulation& sim, net::Network& net, cluster::Inventory& inventory,
              mon::Registry* metrics, Options options);
  ~CephCluster();
  CephCluster(const CephCluster&) = delete;
  CephCluster& operator=(const CephCluster&) = delete;

  // --- OSDs ------------------------------------------------------------------

  /// Register a machine's disk as an OSD. Capacity/bandwidth come from the
  /// machine spec. Returns the OSD id. Triggers rebalancing of existing PGs.
  int add_osd(cluster::MachineId machine);
  std::size_t osd_count() const { return osds_.size(); }
  Bytes osd_used(int osd) const { return osds_.at(osd).used; }
  Bytes total_capacity() const;
  bool osd_up(int osd) const { return osds_.at(osd).up; }
  /// Fail or recover a single OSD without touching its machine (a dead
  /// disk / OSD daemon crash). Failure drops the disk's replicas and
  /// triggers remapping + recovery, like a machine loss but disk-scoped.
  void set_osd_up(int osd, bool up);

  // --- pools -----------------------------------------------------------------

  /// Create a pool; `replication` <= 0 uses the cluster default.
  void create_pool(const std::string& name, int replication = 0);
  bool has_pool(const std::string& name) const { return pools_.count(name) > 0; }

  // --- object I/O --------------------------------------------------------------

  /// Write an object from `client` (a network node). Existing objects are
  /// overwritten. The returned handle completes when all replicas are
  /// durable.
  IoPtr put_async(net::NodeId client, const std::string& pool,
                  const std::string& object, Bytes size);
  /// Read an object to `client` from the primary replica.
  IoPtr get_async(net::NodeId client, const std::string& pool, const std::string& object);
  /// Delete an object (frees capacity).
  void remove(const std::string& pool, const std::string& object);

  bool exists(const std::string& pool, const std::string& object) const;
  std::optional<Bytes> object_size(const std::string& pool, const std::string& object) const;
  std::size_t object_count(const std::string& pool) const;

  // --- placement (exposed for tests and placement studies) ---------------------

  /// PG of an object within its pool.
  int pg_of(const std::string& pool, const std::string& object) const;
  /// Current acting set (OSD ids, primary first) of a pool's PG.
  std::vector<int> acting_set(const std::string& pool, int pg) const;

  // --- health -------------------------------------------------------------------

  Health health() const;
  double total_bytes_written() const { return bytes_written_; }
  double total_bytes_read() const { return bytes_read_; }

  /// Invariant audit (see util/check.hpp): replica placement lands on
  /// distinct machines and only live OSDs, capacity accounting stays within
  /// bounds, and no object is orphaned in a PG it does not hash to. Called
  /// automatically at simulation checkpoints in audit builds.
  void check_invariants() const;

  sim::Simulation& sim() { return sim_; }

 private:
  struct Osd {
    cluster::MachineId machine;
    Bytes capacity;
    Bytes used = 0;
    double write_bw;
    double read_bw;
    bool up = true;
    std::unique_ptr<sim::Semaphore> disk;  // serializes disk ops
  };
  struct PlacementGroup {
    std::vector<int> acting;           // OSD ids, primary first
    PgState state = PgState::ActiveClean;
    std::map<std::string, Bytes> objects;
    Bytes bytes() const;
  };
  struct Pool {
    std::string name;
    int replication;
    std::vector<PlacementGroup> pgs;
  };
  struct Object {
    Bytes size;
  };

  /// straw2 selection of `count` OSDs for (pool, pg), distinct machines,
  /// only up OSDs. Deterministic in the OSD map.
  std::vector<int> crush(const std::string& pool, int pg, int count) const;
  void remap_all_pools(const char* why);
  void remap_pool(Pool& pool);
  static sim::Task recover_pg(CephCluster* self, std::string pool_name, int pg_index,
                              std::vector<int> from_set, std::vector<int> to_set);
  static sim::Task do_put(CephCluster* self, net::NodeId client, std::string pool,
                          std::string object, Bytes size, IoPtr io);
  static sim::Task do_get(CephCluster* self, net::NodeId client, std::string pool,
                          std::string object, IoPtr io);
  sim::Task disk_io(int osd, Bytes size, bool write);
  net::NodeId osd_net_node(int osd) const;
  void on_machine_state(cluster::MachineId machine, bool up);

  sim::Simulation& sim_;
  net::Network& net_;
  cluster::Inventory& inventory_;
  mon::Registry* metrics_;
  Options options_;
  // deque: stable references across add_osd() while coroutines hold them
  std::deque<Osd> osds_;
  std::map<std::string, Pool> pools_;
  double bytes_written_ = 0.0;
  double bytes_read_ = 0.0;
  std::uint64_t epoch_ = 0;  // bumped on OSD map changes
  std::uint64_t audit_hook_ = 0;
};

}  // namespace chase::ceph
