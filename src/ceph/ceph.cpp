#include "ceph/ceph.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace chase::ceph {

namespace {

std::uint64_t str_hash(const std::string& s) {
  // FNV-1a, then mixed.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return util::hash_mix(h);
}

}  // namespace

CephCluster::CephCluster(sim::Simulation& sim, net::Network& net,
                         cluster::Inventory& inventory, mon::Registry* metrics,
                         Options options)
    : sim_(sim), net_(net), inventory_(inventory), metrics_(metrics),
      options_(options) {
  inventory_.subscribe([this](cluster::MachineId m, bool up) { on_machine_state(m, up); });
  if (metrics_ != nullptr) {
    metrics_->register_probe("ceph_bytes_stored", {},
                             [this] { return static_cast<double>(health().bytes_stored); });
    metrics_->register_probe("ceph_degraded_pgs", {},
                             [this] { return static_cast<double>(health().pgs_degraded); });
    metrics_->register_probe("ceph_bytes_written_total", {},
                             [this] { return bytes_written_; });
    metrics_->register_probe("ceph_bytes_read_total", {}, [this] { return bytes_read_; });
  }
  audit_hook_ = sim_.add_audit_hook([this] { check_invariants(); });
}

CephCluster::~CephCluster() { sim_.remove_audit_hook(audit_hook_); }

// --- OSDs -------------------------------------------------------------------------

int CephCluster::add_osd(cluster::MachineId machine) {
  const auto& spec = inventory_.machine(machine).spec;
  Osd osd;
  osd.machine = machine;
  osd.capacity = spec.disk_capacity;
  osd.write_bw = spec.disk_write_bw;
  osd.read_bw = spec.disk_read_bw;
  osd.up = inventory_.machine(machine).up;
  osd.disk = std::make_unique<sim::Semaphore>(1);
  osds_.push_back(std::move(osd));
  ++epoch_;
  remap_all_pools("osd added");
  return static_cast<int>(osds_.size() - 1);
}

Bytes CephCluster::total_capacity() const {
  Bytes total = 0;
  for (const auto& osd : osds_) total += osd.capacity;
  return total;
}

// --- pools ------------------------------------------------------------------------

void CephCluster::create_pool(const std::string& name, int replication) {
  Pool pool;
  pool.name = name;
  pool.replication = replication > 0 ? replication : options_.replication;
  pool.pgs.resize(static_cast<std::size_t>(options_.pg_count));
  pools_[name] = std::move(pool);
  remap_pool(pools_[name]);
}

// --- CRUSH -------------------------------------------------------------------------

std::vector<int> CephCluster::crush(const std::string& pool, int pg, int count) const {
  // straw2: each candidate OSD draws straw = ln(u) / weight with u a pure
  // function of (pool, pg, osd); the largest straws win. Replicas must land
  // on distinct machines (failure domain = host).
  struct Straw {
    double value;
    int osd;
  };
  const std::uint64_t seed = util::hash_combine(str_hash(pool), static_cast<std::uint64_t>(pg));
  std::vector<Straw> straws;
  straws.reserve(osds_.size());
  for (std::size_t i = 0; i < osds_.size(); ++i) {
    if (!osds_[i].up) continue;
    const double weight =
        static_cast<double>(osds_[i].capacity) / static_cast<double>(util::tb(1));
    if (weight <= 0) continue;
    const std::uint64_t h = util::hash_combine(seed, static_cast<std::uint64_t>(i));
    // u in (0, 1]; ln(u) <= 0, divided by weight: bigger weight -> straw
    // closer to zero -> more likely to be among the max straws.
    const double u = (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
    straws.push_back(Straw{std::log(u) / weight, static_cast<int>(i)});
  }
  std::sort(straws.begin(), straws.end(), [](const Straw& a, const Straw& b) {
    if (a.value != b.value) return a.value > b.value;
    return a.osd < b.osd;
  });
  std::vector<int> chosen;
  std::set<cluster::MachineId> machines_used;
  for (const Straw& s : straws) {
    if (static_cast<int>(chosen.size()) >= count) break;
    const auto machine = osds_[static_cast<std::size_t>(s.osd)].machine;
    if (machines_used.count(machine)) continue;
    machines_used.insert(machine);
    chosen.push_back(s.osd);
  }
  return chosen;
}

int CephCluster::pg_of(const std::string& /*pool*/, const std::string& object) const {
  return static_cast<int>(str_hash(object) % static_cast<std::uint64_t>(options_.pg_count));
}

std::vector<int> CephCluster::acting_set(const std::string& pool, int pg) const {
  return pools_.at(pool).pgs.at(static_cast<std::size_t>(pg)).acting;
}

void CephCluster::remap_all_pools(const char* /*why*/) {
  for (auto& [name, pool] : pools_) remap_pool(pool);
}

void CephCluster::remap_pool(Pool& pool) {
  for (std::size_t pg = 0; pg < pool.pgs.size(); ++pg) {
    PlacementGroup& group = pool.pgs[pg];
    std::vector<int> target = crush(pool.name, static_cast<int>(pg), pool.replication);
    if (target == group.acting) continue;
    const std::vector<int> previous = group.acting;
    group.acting = target;
    if (group.objects.empty() || previous.empty()) {
      group.state = static_cast<int>(target.size()) >= pool.replication
                        ? PgState::ActiveClean
                        : PgState::Degraded;
      continue;
    }
    // Data must move: recover asynchronously from surviving replicas.
    group.state = PgState::Recovering;
    sim_.spawn(recover_pg(this, pool.name, static_cast<int>(pg), previous, target));
  }
}

sim::Task CephCluster::recover_pg(CephCluster* self, std::string pool_name, int pg_index,
                                  std::vector<int> from_set, std::vector<int> to_set) {
  const std::uint64_t epoch = self->epoch_;
  auto& pool = self->pools_.at(pool_name);
  auto& group = pool.pgs.at(static_cast<std::size_t>(pg_index));
  const Bytes pg_bytes = group.bytes();

  // Source: first surviving previous replica; destinations: new members.
  int source = -1;
  for (int osd : from_set) {
    if (osd < static_cast<int>(self->osds_.size()) &&
        self->osds_[static_cast<std::size_t>(osd)].up) {
      source = osd;
      break;
    }
  }
  std::vector<int> newcomers;
  for (int osd : to_set) {
    if (std::find(from_set.begin(), from_set.end(), osd) == from_set.end()) {
      newcomers.push_back(osd);
    }
  }
  if (source >= 0 && pg_bytes > 0) {
    for (int osd : newcomers) {
      if (self->epoch_ != epoch) co_return;  // superseded by a newer map
      net::TransferOptions opts;
      opts.rate_cap = self->options_.recovery_rate;
      auto xfer = self->net_.transfer(self->osd_net_node(source),
                                      self->osd_net_node(osd), pg_bytes, opts);
      co_await xfer->done->wait(self->sim_);
      // The map may have changed mid-transfer (e.g. the newcomer itself went
      // down, zeroing its accounting); a fresh recovery owns cleanup then.
      if (self->epoch_ != epoch || xfer->failed) co_return;
      self->osds_[static_cast<std::size_t>(osd)].used += pg_bytes;
    }
    // Free space held on previous replicas that left the set.
    for (int osd : from_set) {
      if (std::find(to_set.begin(), to_set.end(), osd) == to_set.end() &&
          osd < static_cast<int>(self->osds_.size()) &&
          self->osds_[static_cast<std::size_t>(osd)].up) {
        auto& o = self->osds_[static_cast<std::size_t>(osd)];
        o.used = o.used >= pg_bytes ? o.used - pg_bytes : 0;
      }
    }
  }
  if (self->epoch_ != epoch) co_return;
  // Re-acquire before the final write: `pool` and `group` were bound before
  // the recovery transfers, and pools_/pgs may have moved while this frame
  // was suspended.
  auto& pool_now = self->pools_.at(pool_name);
  auto& group_now = pool_now.pgs.at(static_cast<std::size_t>(pg_index));
  group_now.state = static_cast<int>(group_now.acting.size()) >= pool_now.replication
                        ? PgState::ActiveClean
                        : PgState::Degraded;
}

// --- object I/O -----------------------------------------------------------------------

Bytes CephCluster::PlacementGroup::bytes() const {
  Bytes total = 0;
  for (const auto& [name, size] : objects) total += size;
  return total;
}

net::NodeId CephCluster::osd_net_node(int osd) const {
  return inventory_.machine(osds_.at(static_cast<std::size_t>(osd)).machine).net_node;
}

sim::Task CephCluster::disk_io(int osd, Bytes size, bool write) {
  // The semaphore lives on the heap, so this pointer stays valid even if
  // osds_ reallocates while the frame is parked in the acquire queue; the
  // Osd reference itself is re-acquired after every suspension.
  sim::Semaphore* disk = osds_.at(static_cast<std::size_t>(osd)).disk.get();
  co_await disk->acquire();
  const Osd& o = osds_.at(static_cast<std::size_t>(osd));
  const double bw = write ? o.write_bw : o.read_bw;
  co_await sim_.sleep(static_cast<double>(size) / bw);
  // chase-lint: allow(coro-stale-ref) Semaphore is heap-owned by its Osd (unique_ptr); the pointer survives osds_ growth across the sleeps
  disk->release(sim_);
}

IoPtr CephCluster::put_async(net::NodeId client, const std::string& pool,
                             const std::string& object, Bytes size) {
  auto io = std::make_shared<IoResult>();
  io->bytes = size;
  io->start_time = sim_.now();
  sim_.spawn(do_put(this, client, pool, object, size, io));
  return io;
}

sim::Task CephCluster::do_put(CephCluster* self, net::NodeId client, std::string pool_name,
                              std::string object, Bytes size, IoPtr io) {
  auto finish = [&](bool ok) {
    io->ok = ok;
    io->finish_time = self->sim_.now();
    io->done->trigger(self->sim_);
  };
  auto pit = self->pools_.find(pool_name);
  if (pit == self->pools_.end()) {
    finish(false);
    co_return;
  }
  Pool& pool = pit->second;
  const int pg = self->pg_of(pool_name, object);
  PlacementGroup& group = pool.pgs.at(static_cast<std::size_t>(pg));
  if (group.acting.empty()) {
    finish(false);
    co_return;
  }
  const std::vector<int> acting = group.acting;
  const int primary = acting[0];

  co_await self->sim_.sleep(self->options_.op_latency);
  // Client -> primary.
  auto main_xfer = self->net_.transfer(client, self->osd_net_node(primary), size);
  co_await main_xfer->done->wait(self->sim_);
  if (main_xfer->failed) {
    finish(false);
    co_return;
  }
  co_await self->disk_io(primary, size, /*write=*/true);

  // Primary -> replicas, in parallel.
  std::vector<net::TransferPtr> xfers;
  for (std::size_t r = 1; r < acting.size(); ++r) {
    xfers.push_back(self->net_.transfer(self->osd_net_node(primary),
                                        self->osd_net_node(acting[r]), size));
  }
  bool ok = true;
  for (auto& x : xfers) {
    co_await x->done->wait(self->sim_);
    ok = ok && !x->failed;
  }
  for (std::size_t r = 1; r < acting.size() && ok; ++r) {
    co_await self->disk_io(acting[r], size, /*write=*/true);
  }
  if (!ok) {
    finish(false);
    co_return;
  }

  // Commit: update capacity accounting (overwrite frees the old size).
  // Re-acquire the PG first: `group` was bound before the replication
  // awaits, and the pool may have been dropped while this frame slept.
  auto commit_pit = self->pools_.find(pool_name);
  if (commit_pit == self->pools_.end()) {
    finish(false);
    co_return;
  }
  PlacementGroup& commit_group =
      commit_pit->second.pgs.at(static_cast<std::size_t>(pg));
  auto existing = commit_group.objects.find(object);
  const Bytes old_size = existing == commit_group.objects.end() ? 0 : existing->second;
  commit_group.objects[object] = size;
  for (int osd : acting) {
    auto& o = self->osds_.at(static_cast<std::size_t>(osd));
    if (!o.up) continue;  // replica died mid-put; its copy is gone
    o.used += size;
    o.used = o.used >= old_size ? o.used - old_size : 0;
  }
  self->bytes_written_ += static_cast<double>(size) * static_cast<double>(acting.size());
  finish(true);
}

IoPtr CephCluster::get_async(net::NodeId client, const std::string& pool,
                             const std::string& object) {
  auto io = std::make_shared<IoResult>();
  io->start_time = sim_.now();
  sim_.spawn(do_get(this, client, pool, object, io));
  return io;
}

sim::Task CephCluster::do_get(CephCluster* self, net::NodeId client, std::string pool_name,
                              std::string object, IoPtr io) {
  auto finish = [&](bool ok) {
    io->ok = ok;
    io->finish_time = self->sim_.now();
    io->done->trigger(self->sim_);
  };
  auto pit = self->pools_.find(pool_name);
  if (pit == self->pools_.end()) {
    finish(false);
    co_return;
  }
  Pool& pool = pit->second;
  const int pg = self->pg_of(pool_name, object);
  PlacementGroup& group = pool.pgs.at(static_cast<std::size_t>(pg));
  auto oit = group.objects.find(object);
  if (oit == group.objects.end() || group.acting.empty()) {
    finish(false);
    co_return;
  }
  const Bytes size = oit->second;
  io->bytes = size;
  const int primary = group.acting[0];

  co_await self->sim_.sleep(self->options_.op_latency);
  co_await self->disk_io(primary, size, /*write=*/false);
  auto xfer = self->net_.transfer(self->osd_net_node(primary), client, size);
  co_await xfer->done->wait(self->sim_);
  if (xfer->failed) {
    finish(false);
    co_return;
  }
  self->bytes_read_ += static_cast<double>(size);
  finish(true);
}

void CephCluster::remove(const std::string& pool_name, const std::string& object) {
  auto pit = pools_.find(pool_name);
  if (pit == pools_.end()) return;
  const int pg = pg_of(pool_name, object);
  PlacementGroup& group = pit->second.pgs.at(static_cast<std::size_t>(pg));
  auto oit = group.objects.find(object);
  if (oit == group.objects.end()) return;
  const Bytes size = oit->second;
  for (int osd : group.acting) {
    auto& o = osds_.at(static_cast<std::size_t>(osd));
    o.used = o.used >= size ? o.used - size : 0;
  }
  group.objects.erase(oit);
}

bool CephCluster::exists(const std::string& pool, const std::string& object) const {
  return object_size(pool, object).has_value();
}

std::optional<Bytes> CephCluster::object_size(const std::string& pool,
                                              const std::string& object) const {
  auto pit = pools_.find(pool);
  if (pit == pools_.end()) return std::nullopt;
  const int pg = pg_of(pool, object);
  const auto& group = pit->second.pgs.at(static_cast<std::size_t>(pg));
  auto oit = group.objects.find(object);
  if (oit == group.objects.end()) return std::nullopt;
  return oit->second;
}

std::size_t CephCluster::object_count(const std::string& pool) const {
  auto pit = pools_.find(pool);
  if (pit == pools_.end()) return 0;
  std::size_t n = 0;
  for (const auto& pg : pit->second.pgs) n += pg.objects.size();
  return n;
}

// --- health ------------------------------------------------------------------------------

Health CephCluster::health() const {
  Health h;
  for (const auto& [name, pool] : pools_) {
    for (const auto& pg : pool.pgs) {
      ++h.pgs_total;
      switch (pg.state) {
        case PgState::ActiveClean:
          ++h.pgs_clean;
          break;
        case PgState::Degraded:
          ++h.pgs_degraded;
          break;
        case PgState::Recovering:
          ++h.pgs_recovering;
          break;
      }
      h.bytes_stored += pg.bytes();
    }
  }
  return h;
}

void CephCluster::check_invariants() const {
  for (const auto& osd : osds_) {
    CHASE_INVARIANT(osd.used <= osd.capacity, "OSD filled beyond its disk capacity");
    CHASE_INVARIANT(osd.up || osd.used == 0, "down OSD still accounts stored bytes");
  }
  for (const auto& [pool_name, pool] : pools_) {
    CHASE_INVARIANT(pool.pgs.size() == static_cast<std::size_t>(options_.pg_count),
                    "pool '" + pool_name + "' has the wrong PG count");
    CHASE_INVARIANT(pool.replication >= 1, "pool replication below 1");
    for (std::size_t pg = 0; pg < pool.pgs.size(); ++pg) {
      const PlacementGroup& group = pool.pgs[pg];
      CHASE_INVARIANT(group.acting.size() <=
                          static_cast<std::size_t>(pool.replication),
                      "acting set larger than the pool's replication factor");
      // CRUSH places replicas on distinct machines (failure domain = host)
      // and only on live OSDs; machine events remap synchronously, so this
      // holds at every event boundary.
      std::set<cluster::MachineId> machines;
      for (int osd : group.acting) {
        CHASE_INVARIANT(osd >= 0 && osd < static_cast<int>(osds_.size()),
                        "acting set references an unknown OSD");
        const Osd& o = osds_[static_cast<std::size_t>(osd)];
        CHASE_INVARIANT(o.up, "acting set includes a down OSD");
        CHASE_INVARIANT(machines.insert(o.machine).second,
                        "two replicas of a PG placed on the same machine");
      }
      // A clean PG holding data has its full replica complement; short sets
      // are Degraded (or Recovering while data moves).
      CHASE_INVARIANT(group.state != PgState::ActiveClean || group.objects.empty() ||
                          group.acting.size() >=
                              static_cast<std::size_t>(pool.replication),
                      "active+clean PG with fewer replicas than the pool requires");
      // Expensive: placement consistency — every object lives in the PG its
      // name hashes to; anything else is unreachable through get/remove
      // (an orphan).
      if (util::audit_level() >= 2) {
        for (const auto& [object, size] : group.objects) {
          (void)size;
          CHASE_AUDIT(pg_of(pool_name, object) == static_cast<int>(pg),
                      "orphaned object '" + object + "' stored in a PG it does not hash to");
        }
      }
    }
  }
  CHASE_INVARIANT(bytes_written_ >= 0.0 && bytes_read_ >= 0.0,
                  "I/O byte counters went negative");
}

void CephCluster::set_osd_up(int osd, bool up) {
  Osd& o = osds_.at(static_cast<std::size_t>(osd));
  if (o.up == up) return;
  o.up = up;
  if (!up) o.used = 0;  // data on the failed disk is gone
  ++epoch_;
  remap_all_pools(up ? "osd up" : "osd down");
}

void CephCluster::on_machine_state(cluster::MachineId machine, bool up) {
  bool changed = false;
  for (auto& osd : osds_) {
    if (osd.machine == machine && osd.up != up) {
      osd.up = up;
      changed = true;
      if (!up) osd.used = 0;  // data on the lost disk is gone
    }
  }
  if (changed) {
    ++epoch_;
    remap_all_pools(up ? "osd up" : "osd down");
  }
}

}  // namespace chase::ceph
