/// \file determinism_check.cpp
/// Deterministic-replay race detector for the simulation layer.
///
/// The discrete-event kernel promises that a seeded workflow is a pure
/// function of its inputs: same seed, same event trace, bit for bit. This
/// harness runs the paper's CONNECT workflow N times (default 2) with one
/// seed, hashes every processed event (virtual time and sequence number)
/// plus the end-of-run counters, and fails on any divergence — the analog
/// of a race detector for code that is *supposed* to be single-threaded
/// and ordered. Any nondeterminism (unordered-container iteration leaking
/// into scheduling, address-dependent ordering, uninitialised reads, a
/// stray OS-thread interaction) shows up as a hash mismatch, and the block
/// index narrows down where the traces forked.
///
/// Run it under the `tsan` preset to additionally catch real data races,
/// and with CHASE_AUDIT_LEVEL=2 to sweep every subsystem's
/// check_invariants() at each checkpoint along the way.
///
///   $ build/tools/determinism_check --seed 1 --seed 2
///   $ build/tools/determinism_check --runs 3 --data-fraction 0.01 --audit
///   $ build/tools/determinism_check --chaos --seed 1
///   $ build/tools/determinism_check --sites 4 --chaos
///
/// `--chaos` additionally arms a fixed, seeded ChaosPlan (GPU-node crashes,
/// a THREDDS-uplink partition, an OSD failure, a Redis pod kill) against the
/// running workflow and fingerprints the executed fault trace alongside the
/// event trace: the fault *paths* — eviction, requeue, lease redelivery,
/// PG recovery — must replay bit-identically too.
///
/// Exit code 0 iff every seed replays identically.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "cluster/machine.hpp"
#include "core/connect_workflow.hpp"
#include "core/nautilus.hpp"
#include "kube/cluster.hpp"
#include "kube/federation.hpp"
#include "net/network.hpp"
#include "sim/event.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using chase::util::bits_of;
using chase::util::fnv1a;
using chase::util::kFnvOffset;

constexpr std::uint64_t kEventsPerBlock = 4096;

/// One run's fingerprint: a rolling hash over the full event trace, closed
/// per-block so a mismatch can be localised to a window of events.
struct Trace {
  std::uint64_t hash = kFnvOffset;
  std::vector<std::uint64_t> block_hashes;
  std::uint64_t events = 0;
  double end_time = 0.0;
  double net_bytes = 0.0;
  double ceph_bytes = 0.0;
  // --chaos only: rolling hash and count of executed faults.
  std::uint64_t fault_hash = kFnvOffset;
  std::uint64_t faults = 0;

  std::uint64_t final_hash() const {
    std::uint64_t h = hash;
    h = fnv1a(h, events);
    h = fnv1a(h, bits_of(end_time));
    h = fnv1a(h, bits_of(net_bytes));
    h = fnv1a(h, bits_of(ceph_bytes));
    h = fnv1a(h, fault_hash);
    h = fnv1a(h, faults);
    return h;
  }
};

/// The --chaos fault schedule. Deliberately fixed (same plan every run, every
/// seed): the point is not fault variety but that the *recovery* event trace
/// is a pure function of (plan, seed). Times sit inside the smoke-scale
/// CONNECT run so every fault actually fires while its step is in flight.
chase::chaos::ChaosPlan chaos_plan(chase::core::Nautilus& bed,
                                   const chase::core::ConnectWorkflow& cwf) {
  chase::chaos::ChaosPlan plan(/*seed=*/2029);
  // Step 1 (download): partition the THREDDS uplink, heal after 3 minutes;
  // kill the Redis pod so the ReplicaSet has to self-heal and the queue
  // leases have to redeliver.
  const chase::net::LinkId uplink =
      bed.net.find_link(bed.thredds->node(), bed.site_switch(0));
  plan.partition_link(/*at=*/120.0, uplink, /*down_for=*/180.0);
  plan.kill_pods(/*at=*/400.0, cwf.params().ns, {{"app", "redis"}});
  // Storage: one OSD drops out and comes back; PG recovery traffic races
  // the workload's own writes.
  plan.fail_osd(/*at=*/300.0, /*osd=*/3, /*down_for=*/300.0);
  // Compute: a fifth of the GPU fleet crashes mid-run and recovers later;
  // evicted pods must requeue their shards.
  plan.crash_fraction(/*at=*/900.0, bed.gpu_machines(), /*fraction=*/0.20,
                      /*down_for=*/600.0);
  return plan;
}

Trace run_workflow(std::uint64_t seed, double data_fraction, bool with_chaos) {
  chase::core::Nautilus bed;
  Trace trace;
  bed.sim.set_trace_hook([&trace](double time, std::uint64_t seq) {
    trace.hash = fnv1a(trace.hash, bits_of(time));
    trace.hash = fnv1a(trace.hash, seq);
    if (++trace.events % kEventsPerBlock == 0) {
      trace.block_hashes.push_back(trace.hash);
    }
  });

  chase::core::ConnectWorkflowParams params;
  params.data_fraction = data_fraction;
  params.inference_gpus = 16;
  params.straggler_seed = seed;
  chase::core::ConnectWorkflow cwf(bed, params);

  std::unique_ptr<chase::chaos::ChaosInjector> injector;
  if (with_chaos) {
    injector = std::make_unique<chase::chaos::ChaosInjector>(
        bed.sim, bed.net, bed.inventory, chaos_plan(bed, cwf), bed.kube.get(),
        bed.ceph.get(), &bed.metrics);
    injector->set_fault_hook(
        [&trace](chase::chaos::FaultKind kind, double when, int victims) {
          trace.fault_hash = fnv1a(trace.fault_hash,
                                   static_cast<std::uint64_t>(kind));
          trace.fault_hash = fnv1a(trace.fault_hash, bits_of(when));
          trace.fault_hash = fnv1a(trace.fault_hash,
                                   static_cast<std::uint64_t>(victims));
          ++trace.faults;
        });
    injector->arm();
  }

  auto done = cwf.workflow().start(bed.sim);
  const bool finished = chase::sim::run_until(bed.sim, done);
  if (!finished) {
    std::fprintf(stderr, "determinism_check: workflow did not complete\n");
    std::exit(2);
  }
  trace.block_hashes.push_back(trace.hash);
  trace.end_time = bed.sim.now();
  trace.net_bytes = bed.net.total_bytes_delivered();
  trace.ceph_bytes = bed.ceph->total_bytes_written();
  return trace;
}

/// --sites N: a synthetic federation scenario instead of the CONNECT
/// workflow. N sites of FIONA8s behind per-site cores joined by a 100GbE
/// WAN mesh, one KubeCluster per site, a seeded job stream routed by the
/// FederationController (data-locality + headroom placement, image pulls
/// from a site-0 registry crossing the WAN). Under --chaos a site-granular
/// fault plan runs against it — island the last site, crash a quarter of
/// site 1 — and the fault trace is fingerprinted like the event trace: the
/// hierarchical route caches, the label/feasibility indexes, and the
/// sampled scheduler must all replay bit-identically under site faults.
Trace run_federation(std::uint64_t seed, int sites, bool with_chaos) {
  namespace ck = chase::kube;
  namespace cc = chase::cluster;

  chase::sim::Simulation sim;
  chase::net::Network net(sim);
  cc::Inventory inventory(net);
  Trace trace;
  sim.set_trace_hook([&trace](double time, std::uint64_t seq) {
    trace.hash = fnv1a(trace.hash, bits_of(time));
    trace.hash = fnv1a(trace.hash, seq);
    if (++trace.events % kEventsPerBlock == 0) {
      trace.block_hashes.push_back(trace.hash);
    }
  });

  constexpr int kNodesPerSite = 16;
  std::vector<chase::net::NodeId> cores;
  for (int s = 0; s < sites; ++s) {
    const std::string site = "site-" + std::to_string(s);
    cores.push_back(net.add_node(site + "-core", s));
    for (int i = 0; i < kNodesPerSite; ++i) {
      const chase::net::NodeId leaf = net.add_node(site + "-n" + std::to_string(i), s);
      net.add_link(leaf, cores.back(), chase::util::gbit_per_s(10.0), 0.5e-3);
      inventory.add(cc::fiona8(site + "-n" + std::to_string(i), site), leaf);
    }
  }
  for (int a = 0; a < sites; ++a) {
    for (int b = a + 1; b < sites; ++b) {
      net.add_link(cores[static_cast<std::size_t>(a)],
                   cores[static_cast<std::size_t>(b)],
                   chase::util::gbit_per_s(100.0), 30e-3);
    }
  }

  ck::KubeCluster::Options opt;
  opt.registry_node = cores[0];
  std::vector<std::unique_ptr<ck::KubeCluster>> clusters;
  ck::FederationController fed;
  for (int s = 0; s < sites; ++s) {
    const std::string site = "site-" + std::to_string(s);
    clusters.push_back(
        std::make_unique<ck::KubeCluster>(sim, net, inventory, nullptr, opt));
    for (cc::MachineId m : inventory.at_site(site)) clusters.back()->register_node(m);
    fed.add_site(site, *clusters.back(), {"ds-" + std::to_string(s)});
  }

  chase::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (int j = 0; j < 8 * sites; ++j) {
    ck::JobSpec job;
    job.ns = "default";
    job.name = "fedjob-" + std::to_string(j);
    ck::ContainerSpec c;
    c.requests = {2.0, chase::util::gb(2.0), 1};
    const double run_s = rng.uniform(1.0, 5.0);
    c.program = [run_s](ck::PodContext& ctx) -> chase::sim::Task {
      co_await ctx.sim().sleep(run_s);
    };
    job.pod_template.containers.push_back(std::move(c));
    job.completions = 24;
    job.parallelism = 4;
    job.backoff_limit = 1 << 20;
    auto r = fed.submit_job(std::move(job), "ds-" + std::to_string(j % sites));
    if (!r.ok()) {
      std::fprintf(stderr, "determinism_check: federation submit failed: %s\n",
                   r.error.c_str());
      std::exit(2);
    }
  }

  std::unique_ptr<chase::chaos::ChaosInjector> injector;
  if (with_chaos) {
    chase::chaos::ChaosPlan plan(/*seed=*/2029);
    plan.partition_site(/*at=*/20.0, /*site=*/sites - 1, /*down_for=*/30.0);
    plan.crash_fraction(/*at=*/35.0, inventory.at_site("site-1"),
                        /*fraction=*/0.25, /*down_for=*/25.0);
    injector = std::make_unique<chase::chaos::ChaosInjector>(sim, net, inventory,
                                                             plan);
    injector->set_fault_hook(
        [&trace](chase::chaos::FaultKind kind, double when, int victims) {
          trace.fault_hash = fnv1a(trace.fault_hash,
                                   static_cast<std::uint64_t>(kind));
          trace.fault_hash = fnv1a(trace.fault_hash, bits_of(when));
          trace.fault_hash = fnv1a(trace.fault_hash,
                                   static_cast<std::uint64_t>(victims));
          ++trace.faults;
        });
    injector->arm();
  }

  sim.run();
  trace.block_hashes.push_back(trace.hash);
  trace.end_time = sim.now();
  trace.net_bytes = net.total_bytes_delivered();
  trace.ceph_bytes = 0.0;
  return trace;
}

/// Returns true iff `a` and `b` agree; prints where they fork otherwise.
/// Agreement is a raw memcmp of the full per-block hash sequence plus
/// every counter compared bitwise — not just final_hash() equality, so a
/// (vanishingly unlikely) rolling-hash collision cannot mask a divergence
/// and intra-process state leakage between runs shows up even when it
/// cancels out of the final digest.
bool compare(std::uint64_t seed, const Trace& a, const Trace& b, int run_index) {
  const bool blocks_equal =
      a.block_hashes.size() == b.block_hashes.size() &&
      (a.block_hashes.empty() ||
       std::memcmp(a.block_hashes.data(), b.block_hashes.data(),
                   a.block_hashes.size() * sizeof(std::uint64_t)) == 0);
  if (blocks_equal && a.hash == b.hash && a.events == b.events &&
      bits_of(a.end_time) == bits_of(b.end_time) &&
      bits_of(a.net_bytes) == bits_of(b.net_bytes) &&
      bits_of(a.ceph_bytes) == bits_of(b.ceph_bytes) &&
      a.fault_hash == b.fault_hash && a.faults == b.faults) {
    return true;
  }
  std::fprintf(stderr,
               "determinism_check: DIVERGENCE for seed %" PRIu64 " (run 1 vs run %d)\n"
               "  run 1: %" PRIu64 " events, %" PRIu64 " faults, end t=%.9g, hash %016" PRIx64 "\n"
               "  run %d: %" PRIu64 " events, %" PRIu64 " faults, end t=%.9g, hash %016" PRIx64 "\n",
               seed, run_index, a.events, a.faults, a.end_time, a.final_hash(),
               run_index, b.events, b.faults, b.end_time, b.final_hash());
  if (a.fault_hash != b.fault_hash) {
    std::fprintf(stderr, "  fault traces differ (kind/time/victims fingerprint)\n");
  }
  const std::size_t blocks = std::min(a.block_hashes.size(), b.block_hashes.size());
  for (std::size_t i = 0; i < blocks; ++i) {
    if (a.block_hashes[i] != b.block_hashes[i]) {
      std::fprintf(stderr,
                   "  traces fork within events [%" PRIu64 ", %" PRIu64 ")\n",
                   i * kEventsPerBlock, (i + 1) * kEventsPerBlock);
      return false;
    }
  }
  std::fprintf(stderr, "  traces fork after event %" PRIu64 "\n",
               blocks * kEventsPerBlock);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint64_t> seeds;
  int runs = 2;
  double data_fraction = 0.005;
  bool with_chaos = false;
  int fed_sites = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "determinism_check: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seeds.push_back(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--runs") {
      runs = std::atoi(next());
    } else if (arg == "--data-fraction") {
      data_fraction = std::atof(next());
    } else if (arg == "--audit") {
      chase::util::set_audit_level(2);
    } else if (arg == "--chaos") {
      with_chaos = true;
    } else if (arg == "--sites") {
      fed_sites = std::atoi(next());
      if (fed_sites < 2) {
        std::fprintf(stderr, "determinism_check: --sites needs N >= 2\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: determinism_check [--seed N]... [--runs N] [--data-fraction F] [--audit] [--chaos] [--sites N]\n"
          "Replays the seeded CONNECT workflow and fails if the event traces diverge.\n"
          "--chaos arms a fixed fault plan and fingerprints the fault trace too.\n"
          "--sites N replays an N-site federation scenario instead (WAN mesh,\n"
          "per-site clusters, federated placement; --chaos adds a site partition).\n");
      return 0;
    } else {
      std::fprintf(stderr, "determinism_check: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (seeds.empty()) seeds = {1, 2};
  if (runs < 2) runs = 2;

  bool ok = true;
  auto run_once = [&](std::uint64_t seed) {
    return fed_sites > 0 ? run_federation(seed, fed_sites, with_chaos)
                         : run_workflow(seed, data_fraction, with_chaos);
  };
  for (std::uint64_t seed : seeds) {
    const Trace first = run_once(seed);
    std::printf("seed %" PRIu64 ": %" PRIu64 " events, %" PRIu64
                " faults, end t=%.6g, hash %016" PRIx64 "\n",
                seed, first.events, first.faults, first.end_time,
                first.final_hash());
    if (with_chaos && first.faults == 0) {
      std::fprintf(stderr,
                   "determinism_check: --chaos executed no faults; the plan "
                   "no longer overlaps the run\n");
      ok = false;
    }
    for (int r = 2; r <= runs; ++r) {
      const Trace replay = run_once(seed);
      ok = compare(seed, first, replay, r) && ok;
    }
  }
  if (ok) std::printf("determinism_check: all %zu seed(s) replayed identically\n",
                      seeds.size());
  return ok ? 0 : 1;
}
