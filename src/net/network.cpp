#include "net/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "util/check.hpp"

namespace chase::net {

namespace {
constexpr double kByteEpsilon = 0.5;  // flows within half a byte are done
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Fast admission needs slack above the cap by this fraction of the link's
/// capacity; it absorbs the fill's rounding (DESIGN.md "Fast admission of
/// capped flows").
constexpr double kSlackMargin = 1e-9;

/// The next double above x, for finite x >= +0. A rounded sum stepped up
/// this way is at or above the exact sum it rounded.
double ulp_up(double x) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) + 1);
}
}  // namespace

Network::Network(sim::Simulation& sim) : sim_(sim) {
  audit_hook_ = sim_.add_audit_hook([this] {
    check_invariants();
    CHASE_AUDIT(rates_match_full_recompute(),
                "scoped max-min recompute diverged from the full recompute");
  });
  // High-water marks for steady-state flow churn; grown on demand.
  comp_links_.reserve(64);
  levels_.reserve(64);
  route_path_.reserve(16);
  slot_epoch_.reserve(64);
  free_slots_.reserve(64);
  fl_ptr_.reserve(64);
  fl_cap_.reserve(64);
  fl_old_.reserve(64);
  fl_new_.reserve(64);
  fl_edge_end_.reserve(64);
  fl_frozen_.reserve(64);
  edges_.reserve(128);
  cap_list_.reserve(64);
  cap_runs_.reserve(64);
  squeezed_.reserve(64);
  link_members_.reserve(128);
  dirty_.reserve(64);
  seed_links_.reserve(64);
  scope_links_.reserve(64);
  eta_heap_.reserve(64);
  doomed_.reserve(64);
}

NodeId Network::add_node(std::string name) { return add_node(std::move(name), 0); }

NodeId Network::add_node(std::string name, SiteId site) {
  assert(site >= 0);
  nodes_.push_back(Node{std::move(name), true, site, {}});
  if (static_cast<std::size_t>(site) >= site_epochs_.size()) {
    site_epochs_.resize(static_cast<std::size_t>(site) + 1, 1);
  }
  invalidate_routes();
  // The site's membership changed: stale intra-site trees are sized for the
  // old node count and must not be walked for the new node.
  invalidate_site_routes(site);
  return static_cast<NodeId>(nodes_.size() - 1);
}

LinkId Network::add_link(NodeId a, NodeId b, double bandwidth_bps, double latency_s) {
  assert(a >= 0 && a < static_cast<NodeId>(nodes_.size()));
  assert(b >= 0 && b < static_cast<NodeId>(nodes_.size()));
  assert(bandwidth_bps > 0.0);
  const LinkId forward = static_cast<LinkId>(links_.size());
  const bool wan = nodes_[a].site != nodes_[b].site;
  links_.push_back(
      DirectedLink{a, b, bandwidth_bps, latency_s, bandwidth_bps, true, wan, {}});
  links_.push_back(
      DirectedLink{b, a, bandwidth_bps, latency_s, bandwidth_bps, true, wan, {}});
  // Pre-size the per-link flow registries at build time so steady-state
  // flow churn stays within the high-water capacity.
  links_[forward].flows.reserve(8);
  links_[forward + 1].flows.reserve(8);
  // Per-link recompute scratch, kept sized with links_.
  link_epoch_.resize(links_.size(), 0);
  link_scope_.resize(links_.size(), 0);
  link_fill_.resize(links_.size());
  link_load_.resize(links_.size(), 0.0);
  nodes_[a].out.push_back(forward);
  nodes_[b].out.push_back(forward + 1);
  invalidate_routes();
  if (!wan) invalidate_site_routes(nodes_[a].site);
  return forward;
}

std::vector<LinkId> Network::site_boundary_links(SiteId site) const {
  std::vector<LinkId> out;
  for (LinkId l = 0; l < static_cast<LinkId>(links_.size()); l += 2) {
    const DirectedLink& link = links_[static_cast<std::size_t>(l)];
    if (!link.wan) continue;
    if (nodes_[link.from].site == site || nodes_[link.to].site == site) {
      out.push_back(l);
    }
  }
  return out;
}

void Network::set_node_up(NodeId id, bool up) {
  if (nodes_.at(id).up == up) return;
  nodes_[id].up = up;
  invalidate_routes();
  invalidate_site_routes(nodes_[id].site);
  if (!up) {
    // Fail every flow whose path touches the node, in one batch: a single
    // scoped recompute covers all affected components.
    doomed_.clear();
    for (const auto& [fid, flow] : flows_) {
      if (flow.handle->src == id || flow.handle->dst == id) {
        doomed_.push_back(fid);
        continue;
      }
      for (LinkId l : flow.path) {
        if (links_[l].from == id || links_[l].to == id) {
          doomed_.push_back(fid);
          break;
        }
      }
    }
    fail_flows();
  }
}

void Network::set_link_up(LinkId id, bool up) {
  const LinkId partner = partner_of(id);
  if (links_.at(id).up == up) return;
  links_[id].up = up;
  links_[partner].up = up;
  invalidate_routes();
  // A WAN link change never alters any intra-site fabric; an intra-site
  // change invalidates only its own site's trees.
  if (!links_[id].wan) invalidate_site_routes(nodes_[links_[id].from].site);
  if (!up) {
    // Fail every flow routed over either direction of the pair.
    doomed_.clear();
    for (const auto& [fid, flow] : flows_) {
      for (LinkId l : flow.path) {
        if (l == id || l == partner) {
          doomed_.push_back(fid);
          break;
        }
      }
    }
    fail_flows();
  }
}

void Network::fail_flows() {
  for (auto fid : doomed_) finish_flow(fid, /*failed=*/true);
  doomed_.clear();
  recompute_scope();
  rearm_completion();
}

void Network::set_link_bandwidth_factor(LinkId id, double factor) {
  assert(factor > 0.0);
  const LinkId partner = partner_of(id);
  links_.at(id).capacity = links_[id].base_capacity * factor;
  links_[partner].capacity = links_[partner].base_capacity * factor;
  seed_links_.push_back(id);
  seed_links_.push_back(partner);
  recompute_scope();
  rearm_completion();
}

double Network::link_bandwidth_factor(LinkId id) const {
  const auto& link = links_.at(id);
  return link.capacity / link.base_capacity;
}

LinkId Network::find_link(NodeId a, NodeId b) const {
  for (LinkId l : nodes_.at(a).out) {
    if (links_[l].to == b) return l;
  }
  return -1;
}

const std::vector<LinkId>& Network::route(NodeId src, NodeId dst) {
  if (static_cast<std::size_t>(src) >= route_trees_.size()) {
    route_trees_.resize(nodes_.size());
  }
  RouteTree& tree = route_trees_[src];
  // Same-site destinations route hierarchically over the intra-site fabric
  // only (a model rule, not an approximation: sites must be internally
  // connected, and intra-site traffic never detours over the WAN). That
  // tree is keyed on the site's own epoch, so faults in other sites never
  // invalidate it. Cross-site destinations use the global tree. With a
  // single site no WAN links exist and the two BFS traversals are
  // identical, so single-site behavior is unchanged bit for bit.
  const SiteId site = nodes_[src].site;
  const bool local = nodes_[dst].site == site;
  std::vector<LinkId>& via = local ? tree.local_via : tree.via;
  const std::uint64_t want =
      local ? site_epochs_[static_cast<std::size_t>(site)] : route_epoch_;
  std::uint64_t& stamp = local ? tree.local_stamp : tree.stamp;
  if (stamp != want) {
    // Rebuild this source's whole shortest-path tree: BFS by hop count,
    // deterministic tie-break by link id order (adjacency lists hold links
    // in creation order). One rebuild serves every destination until the
    // next relevant topology change.
    stamp = want;
    via.assign(nodes_.size(), -1);
    route_seen_.assign(nodes_.size(), 0);
    route_q_.clear();
    route_q_.reserve(nodes_.size());
    route_seen_[src] = 1;
    route_q_.push_back(src);
    for (std::size_t head = 0; head < route_q_.size(); ++head) {
      const NodeId n = route_q_[head];
      for (LinkId l : nodes_[n].out) {
        const DirectedLink& link = links_[l];
        if (!link.up || (local && link.wan)) continue;
        const NodeId next = link.to;
        char& seen_next = route_seen_[next];
        if (seen_next || !nodes_[next].up) continue;
        seen_next = 1;
        via[next] = l;
        route_q_.push_back(next);
      }
    }
  }
  route_path_.clear();
  if (src != dst) {
    for (NodeId n = dst; n != src;) {
      const LinkId l = via[n];
      if (l < 0) {  // unreachable under the current topology
        route_path_.clear();
        return route_path_;
      }
      route_path_.push_back(l);
      n = links_[l].from;
    }
    std::reverse(route_path_.begin(), route_path_.end());
  }
  return route_path_;
}

bool Network::reachable(NodeId src, NodeId dst) {
  if (!nodes_.at(src).up || !nodes_.at(dst).up) return false;
  return src == dst || !route(src, dst).empty();
}

TransferPtr Network::transfer(NodeId src, NodeId dst, Bytes bytes, TransferOptions opts) {
  // Handles churn once per transfer: object + control block come from the
  // BlockPool in one combined allocation and are recycled on release.
  auto handle = std::allocate_shared<Transfer>(util::PoolAllocator<Transfer>{});
  handle->src = src;
  handle->dst = dst;
  handle->bytes = bytes;
  handle->start_time = sim_.now();

  if (!nodes_.at(src).up || !nodes_.at(dst).up) {
    handle->failed = true;
    handle->finish_time = sim_.now();
    handle->done->trigger(sim_);
    return handle;
  }

  double latency = 0.0;
  std::vector<LinkId> path;
  if (src != dst) {
    path = route(src, dst);
    if (path.empty()) {
      handle->failed = true;
      handle->finish_time = sim_.now();
      handle->done->trigger(sim_);
      return handle;
    }
    for (LinkId l : path) latency += links_[l].latency;
  }

  if (bytes == 0 || src == dst) {
    // Local copies and pure control messages pay latency only.
    sim_.schedule(latency, [this, handle] {
      handle->finish_time = sim_.now();
      bytes_started_ += static_cast<double>(handle->bytes);
      bytes_delivered_ += static_cast<double>(handle->bytes);
      handle->done->trigger(sim_);
    });
    return handle;
  }

  // The flow starts after the path latency (slow-start abstracted away).
  sim_.schedule(latency, [this, handle, path = std::move(path), opts]() mutable {
    if (handle->failed) return;
    // Re-check liveness at flow start.
    for (LinkId l : path) {
      const DirectedLink& link = links_[l];
      if (!link.up || !nodes_[link.from].up || !nodes_[link.to].up) {
        handle->failed = true;
        handle->finish_time = sim_.now();
        handle->done->trigger(sim_);
        return;
      }
    }
    const std::uint64_t id = next_flow_id_++;
    Flow& flow = flows_.try_emplace(id).first->second;  // ids are monotone: fresh
    flow.id = id;
    if (free_slots_.empty()) {
      flow.slot = static_cast<std::uint32_t>(slot_epoch_.size());
      slot_epoch_.push_back(0);  // epochs start at 1: 0 is never current
    } else {
      flow.slot = free_slots_.back();
      free_slots_.pop_back();
      slot_epoch_[flow.slot] = 0;
    }
    flow.handle = handle;
    flow.remaining = static_cast<double>(handle->bytes);
    flow.rate_cap = opts.rate_cap;
    flow.last_update = sim_.now();
    flow.path = std::move(path);
    bytes_started_ += flow.remaining;
    if (!admit_at_cap(flow)) {
      // Register on the incidence index (ids are monotone, so appending
      // keeps each registry sorted) and seed the owning component for
      // recompute.
      for (LinkId l : flow.path) {
        links_[l].flows.push_back({&flow, flow.rate, id, flow.slot});
        seed_links_.push_back(l);
      }
      eta_insert(&flow);
      recompute_scope();
    }
    rearm_completion();
  });
  return handle;
}

sim::Task Network::send(NodeId src, NodeId dst, Bytes bytes, TransferOptions opts) {
  auto handle = transfer(src, dst, bytes, opts);
  co_await handle->done->wait(sim_);
}

sim::Task Network::send_group(std::vector<GroupLeg> legs, TransferOptions opts) {
  std::vector<sim::EventPtr> done;
  done.reserve(legs.size());
  for (const GroupLeg& leg : legs) {
    done.push_back(transfer(leg.src, leg.dst, leg.bytes, opts)->done);
  }
  co_await sim::wait_all(sim_, std::move(done));
}

bool Network::admit_at_cap(Flow& flow) {
  const double cap = flow.rate_cap;
  if (!(cap > 0.0 && cap < kInf)) return false;
  ++stats_.capped_starts;
  for (LinkId l : flow.path) {
    const double capacity = links_[l].capacity;
    if (!(capacity - link_load_[l] > cap + kSlackMargin * capacity)) return false;
  }
  // The full fill would freeze this flow at its cap and change no other
  // rate, so write exactly what apply_component would: the rate, its
  // registry mirrors, the deadline, then the completion index.
  flow.rate = cap;
  for (LinkId l : flow.path) {
    links_[l].flows.push_back({&flow, cap, flow.id, flow.slot});
    double& load = link_load_[l];
    load = ulp_up(load + cap);
  }
  flow.deadline = completion_eta(flow);
  eta_insert(&flow);
  ++stats_.fast_admissions;
  CHASE_AUDIT(rates_match_full_recompute(),
              "fast admission diverged from the full recompute");
  return true;
}

double Network::registry_load(const DirectedLink& link) {
  double sum = 0.0;
  for (const DirectedLink::RegEntry& e : link.flows) sum += e.rate;
  // Summing n non-negative rates lands within n half-ulps of the exact
  // sum; lift by twice that, then round the lift up.
  const double n = static_cast<double>(link.flows.size());
  return ulp_up(sum + sum * n * 0x1p-52);
}

double Network::completion_eta(const Flow& flow) {
  if (flow.remaining <= kByteEpsilon) return flow.last_update;
  return flow.rate > 0.0 ? flow.last_update + flow.remaining / flow.rate : kInf;
}

void Network::settle_flow(Flow& flow, double now) {
  const double dt = now - flow.last_update;
  if (dt > 0.0 && flow.rate > 0.0) {
    const double moved = std::min(flow.remaining, flow.rate * dt);
    flow.remaining -= moved;
    bytes_delivered_ += moved;
  }
  flow.last_update = now;
}

void Network::soa_clear() {
  fl_ptr_.clear();
  fl_cap_.clear();
  fl_old_.clear();
  fl_edge_end_.clear();
  edges_.clear();
  cap_list_.clear();
  cap_runs_.clear();
  cap_min_ = kInf;
  n_real_caps_ = 0;
  twin_count_ = 0;
  squeezed_.clear();
}

void Network::soa_add_full(Flow* f) {
  if (std::isfinite(f->rate_cap)) {
    CapEnt ce;
    ce.cap = f->rate_cap;
    ce.fid = f->id;
    ce.idx = static_cast<std::uint32_t>(fl_ptr_.size());
    cap_list_.push_back(ce);
    cap_min_ = std::min(cap_min_, f->rate_cap);
  }
  fl_ptr_.push_back(f);
  fl_cap_.push_back(f->rate_cap);
  fl_old_.push_back(f->rate);
  for (LinkId l : f->path) {
    edges_.push_back(l);
    std::uint64_t& epoch = link_epoch_[l];
    if (epoch != scope_epoch_) {
      epoch = scope_epoch_;
      comp_links_.push_back(l);
    }
  }
  fl_edge_end_.push_back(static_cast<std::uint32_t>(edges_.size()));
}

void Network::collect_component(LinkId seed) {
  soa_clear();
  comp_links_.clear();
  link_epoch_[seed] = scope_epoch_;
  comp_links_.push_back(seed);
  // comp_links_ doubles as the BFS queue; every discovered link stays in it,
  // so afterwards it is exactly the component's link set.
  for (std::size_t head = 0; head < comp_links_.size(); ++head) {
    const LinkId at = comp_links_[head];
    for (const DirectedLink::RegEntry& e : links_[at].flows) {
      std::uint64_t& stamp = slot_epoch_[e.slot];
      if (stamp == scope_epoch_) continue;
      stamp = scope_epoch_;
      soa_add_full(e.flow);
    }
  }
  n_real_caps_ = static_cast<std::uint32_t>(cap_list_.size());
}

void Network::fill_component() {
  // Progressive filling over the collected links and flows. The result is a
  // pure function of the collected SET: each round freezes at the unique
  // minimum water level under the (level, link id) total order, cap
  // batches freeze in ascending (cap, flow id), and same-share freezes commute
  // bitwise, so discovery order — incremental seed vs. full sweep — cannot
  // affect a single bit of the computed rates (DESIGN.md "Incremental
  // max-min rate updates").
  const std::uint32_t n = static_cast<std::uint32_t>(fl_ptr_.size());
  {
    std::uint32_t off = 0;
    for (LinkId l : comp_links_) {
      LinkFill& lf = link_fill_[l];
      const DirectedLink& link = links_[l];
      const std::uint32_t reg = static_cast<std::uint32_t>(link.flows.size());
      lf.residual = link.capacity;
      // The fill count is the registry size: implicit twins count toward
      // the water level even though they hold no fl_* slot.
      lf.count = static_cast<std::int32_t>(reg);
      // Stage the per-link member slices; registry size is an upper bound
      // (boundary links' implicit twins contribute no edges), the real
      // length is recomputed after the build.
      lf.moff = off;
      lf.mcur = off;
      lf.run = kNoRun;
      off += reg;
    }
    link_members_.resize(off);
    for (std::uint32_t ri = 0; ri < cap_runs_.size(); ++ri) {
      link_fill_[cap_runs_[ri].link].run = ri;
    }
  }
  {
    std::uint32_t e = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (; e < fl_edge_end_[i]; ++e) link_members_[link_fill_[edges_[e]].mcur++] = i;
    }
    // The build cursors are spent; record the filled slice lengths, then
    // repurpose the cursors as dense slot indices and seed the per-slot
    // water levels.
    levels_.resize(comp_links_.size());
    for (std::uint32_t j = 0; j < comp_links_.size(); ++j) {
      LinkFill& lf = link_fill_[comp_links_[j]];
      lf.reg = lf.mcur - lf.moff;
      lf.mcur = j;
      levels_[j] = lf.residual / lf.count;
    }
  }
  // Caps were gathered at collection time with a running minimum; ascending
  // (cap, flow id) order is materialized lazily below. A pass with no real
  // (finite rate_cap) entries carries only per-boundary-link twin runs,
  // which touch pairwise-disjoint links — firing them run by run subtracts
  // in the same per-link ascending order as the globally sorted list, bit
  // for bit, without ever sorting the whole list (DESIGN.md "Incremental
  // max-min rate updates"). A real cap can interleave with twins on a
  // shared link, so such passes use the monolithic global sort; the
  // full-recompute reference is always monolithic.
  double cap_min = cap_min_;
  const bool monolithic = n_real_caps_ > 0;
  bool caps_sorted = false;
  std::size_t cap_at = 0;
  const auto cap_less = [](const CapEnt& a, const CapEnt& b) {
    if (a.cap != b.cap) return a.cap < b.cap;
    return a.fid < b.fid;
  };

  fl_new_.resize(n);
  fl_frozen_.assign(n, 0);
  dirty_.clear();
  std::uint32_t unfrozen = n + twin_count_;
  // Deferred level refresh with dedup: a dirtied slot's level is parked at
  // the -1.0 sentinel (real levels are >= 0) so each link is divided at
  // most once per round no matter how many freezes touch it.
  const auto mark_dirty = [&](LinkFill& lf, LinkId l) {
    double& lv = levels_[lf.mcur];
    if (lv != -1.0) {
      lv = -1.0;
      dirty_.push_back(l);
    }
  };
  // An implicit twin's freeze is one residual subtraction on its run's
  // link; the run cursor doubles as its frozen flag.
  const auto freeze_twin = [&](LinkId b, double rate) {
    LinkFill& lf = link_fill_[b];
    lf.residual = std::max(0.0, lf.residual - rate);
    --lf.count;
    mark_dirty(lf, b);
    --unfrozen;
  };
  const auto freeze = [&](std::uint32_t i, double rate) {
    fl_new_[i] = rate;
    fl_frozen_[i] = 1;
    --unfrozen;
    const std::uint32_t e0 = i == 0 ? 0 : fl_edge_end_[i - 1];
    for (std::uint32_t e = e0; e < fl_edge_end_[i]; ++e) {
      const LinkId l = edges_[e];
      LinkFill& lf = link_fill_[l];
      lf.residual = std::max(0.0, lf.residual - rate);
      --lf.count;
      mark_dirty(lf, l);
    }
  };

  // Slots past `live` hold spent links (no unfrozen members left); they can
  // never constrain again, so the per-round min-scan covers only the live
  // prefix, which shrinks as the fill progresses.
  std::uint32_t live = static_cast<std::uint32_t>(comp_links_.size());
  double share = kInf;
  LinkId bottleneck = -1;
  bool need_scan = true;
  while (unfrozen > 0) {
    if (need_scan) {
      for (LinkId l : dirty_) {
        LinkFill& lf = link_fill_[l];
        levels_[lf.mcur] = lf.count > 0 ? lf.residual / lf.count : kInf;
      }
      for (LinkId l : dirty_) {
        LinkFill& lf = link_fill_[l];
        if (lf.count <= 0 && lf.mcur < live) {
          --live;
          const std::uint32_t j = lf.mcur;
          LinkId& tail_link = comp_links_[live];
          double& tail_level = levels_[live];
          const LinkId moved = tail_link;
          comp_links_[j] = moved;
          levels_[j] = tail_level;
          tail_link = l;
          tail_level = kInf;
          link_fill_[moved].mcur = j;
          lf.mcur = live;
        }
      }
      dirty_.clear();
      // Lowest current water level = the bottleneck share; a round touches
      // a handful of links, so a linear min-scan beats any heap. Ties break
      // by smallest link id, giving the same (level, link id) total order
      // as a lazy heap of superseded levels would.
      share = kInf;
      bottleneck = -1;
      for (std::uint32_t j = 0; j < live; ++j) {
        const double lv = levels_[j];
        if (lv > share) continue;
        const LinkId l = comp_links_[j];
        if (lv < share || l < bottleneck) {
          share = lv;
          bottleneck = l;
        }
      }
    }
    need_scan = true;
    if (bottleneck < 0) {
      // No constraining link left: every remaining flow must be capped
      // (defensive — an unfrozen flow keeps a valid entry on each of its
      // links, so this is unreachable unless all remaining caps bind).
      if (monolithic) {
        if (!caps_sorted) {
          std::sort(cap_list_.begin(), cap_list_.end(), cap_less);
          caps_sorted = true;
        }
        for (; cap_at < cap_list_.size(); ++cap_at) {
          const std::uint32_t i = cap_list_[cap_at].idx;
          if (!fl_frozen_[i]) freeze(i, fl_cap_[i]);
        }
      } else {
        for (CapRun& r : cap_runs_) {
          if (!r.sorted) {
            std::sort(cap_list_.begin() + r.begin, cap_list_.begin() + r.end,
                      cap_less);
            r.sorted = true;
          }
          for (; r.at < r.end; ++r.at) freeze_twin(r.link, cap_list_[r.at].cap);
        }
      }
      break;
    }
    // Caps strictly below the bottleneck share freeze first — ascending
    // (cap, flow id) within each link — raising the water levels; then
    // re-derive the share.
    bool fired = false;
    if (cap_min < share) {
      if (monolithic) {
        if (!caps_sorted) {
          std::sort(cap_list_.begin(), cap_list_.end(), cap_less);
          caps_sorted = true;
        }
        while (cap_at < cap_list_.size()) {
          const CapEnt& ce = cap_list_[cap_at];
          if (ce.cap >= share) break;
          const std::uint32_t i = ce.idx;
          ++cap_at;
          if (!fl_frozen_[i]) {
            freeze(i, fl_cap_[i]);
            fired = true;
          }
        }
        cap_min = cap_at < cap_list_.size() ? cap_list_[cap_at].cap : kInf;
      } else {
        double new_min = kInf;
        for (CapRun& r : cap_runs_) {
          if (r.min < share) {
            // Sort each run only when it first fires; runs whose twins all
            // sit above the final water level are never sorted at all.
            if (!r.sorted) {
              std::sort(cap_list_.begin() + r.begin,
                        cap_list_.begin() + r.end, cap_less);
              r.sorted = true;
            }
            while (r.at < r.end && cap_list_[r.at].cap < share) {
              freeze_twin(r.link, cap_list_[r.at].cap);
              ++r.at;
              fired = true;
            }
            r.min = r.at < r.end ? cap_list_[r.at].cap : kInf;
          }
          new_min = std::min(new_min, r.min);
        }
        cap_min = new_min;
      }
    }
    if (fired) {
      // Cap freezes only raise the fired links' levels (a cap below the
      // share is below its link's level, so removing it lifts the level);
      // every other level is untouched. If the bottleneck itself was not
      // fired on, (share, bottleneck) is still the exact argmin of the
      // (level, link id) order and the refresh + rescan would reproduce it
      // bit for bit — skip both. Otherwise re-derive the share.
      if (levels_[link_fill_[bottleneck].mcur] == -1.0) {
        continue;
      }
      need_scan = false;
      continue;
    }
    // Freeze every unfrozen flow crossing the bottleneck at the share.
    // Same-share freezes commute bitwise (equal subtrahends, total-order
    // heap), so the member slice's build order is immaterial — and so is
    // the reals-then-twins split below.
    LinkFill& lfb = link_fill_[bottleneck];
    const std::uint32_t m0 = lfb.moff;
    const std::uint32_t m1 = m0 + lfb.reg;
    for (std::uint32_t m = m0; m < m1; ++m) {
      const std::uint32_t i = link_members_[m];
      if (!fl_frozen_[i]) freeze(i, share);
    }
    if (lfb.run != kNoRun) {
      CapRun& r = cap_runs_[lfb.run];
      if (r.at < r.end) {
        // The link's unfired twins freeze at the share like any member.
        // All remaining caps are >= share here (a lower cap would have
        // fired above); one strictly above it is a squeezed twin — its
        // true share changed, so its path must join S (rare: forces
        // another expansion iteration).
        for (std::uint32_t q = r.at; q < r.end; ++q) {
          const CapEnt& ce = cap_list_[q];
          if (ce.cap > share) squeezed_.push_back(ce.flow);
          lfb.residual = std::max(0.0, lfb.residual - share);
        }
        lfb.count -= static_cast<std::int32_t>(r.end - r.at);
        unfrozen -= r.end - r.at;
        mark_dirty(lfb, bottleneck);
        r.at = r.end;
        r.min = kInf;
      }
    }
  }
}

void Network::apply_component() {
  const double now = sim_.now();
  const std::uint32_t n = static_cast<std::uint32_t>(fl_ptr_.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    const double rate = fl_new_[i];
    if (rate == fl_old_[i]) continue;  // bit-identical: keep settle state + deadline
    Flow* f = fl_ptr_[i];
    settle_flow(*f, now);
    f->rate = rate;
    // Keep the registry rate mirrors current (registries are id-sorted).
    for (LinkId l : f->path) {
      auto& reg = links_[l].flows;
      auto it = std::lower_bound(
          reg.begin(), reg.end(), f->id,
          [](const DirectedLink::RegEntry& e, std::uint64_t id) { return e.id < id; });
      it->rate = rate;
    }
    f->deadline = completion_eta(*f);  // settled: last_update == now
    eta_update(f);
  }
}

void Network::recompute_scope() {
  // Dedupe the accumulated seeds into the in-scope link set S, dropping
  // links with empty registries (nothing to re-rate there).
  ++scope_id_;
  scope_links_.clear();
  for (LinkId l : seed_links_) {
    std::uint64_t& mark = link_scope_[l];
    if (mark == scope_id_) continue;
    mark = scope_id_;
    if (links_[l].flows.empty()) {
      link_load_[l] = 0.0;  // exact: clears any upward rounding
    } else {
      scope_links_.push_back(l);
    }
  }
  seed_links_.clear();
  if (scope_links_.empty()) return;
  ++stats_.recomputes;
  // Fixpoint expansion: fill over S plus its boundary ring, then grow S
  // along the paths of flows whose computed rate changed bitwise, and
  // refill. Every flow on an S link participates fully; each out-of-scope
  // link crossed by such a flow joins with its remaining flows as virtual
  // participants capped at their current rate, which reproduces the
  // boundary link's exact water-level trajectory as long as those rates
  // hold. Rate changes can only reach a flow through a link some crossing
  // flow changed on, so once no changed flow crosses an out-of-S link the
  // in-scope rates equal the full per-component fill bit for bit and every
  // out-of-scope rate is untouched (DESIGN.md "Incremental max-min rate
  // updates"). Worst case S grows to the whole component and this
  // degenerates to the full fill.
  while (true) {
    ++scope_epoch_;
    soa_clear();
    comp_links_.clear();
    {
      for (LinkId l : scope_links_) {
        link_epoch_[l] = scope_epoch_;
        comp_links_.push_back(l);
      }
      // Full participants: every flow crossing an S link. soa_add_full
      // appends their out-of-S path links to comp_links_ — that tail is
      // exactly the boundary ring.
      for (LinkId l : scope_links_) {
        const auto& reg = links_[l].flows;
        const std::size_t rn = reg.size();
        for (std::size_t k = 0; k < rn; ++k) {
          const DirectedLink::RegEntry& e = reg[k];
          std::uint64_t& stamp = slot_epoch_[e.slot];
          if (stamp == scope_epoch_) continue;
          stamp = scope_epoch_;
          __builtin_prefetch(&e.flow->path);
          soa_add_full(e.flow);
        }
      }
      // Boundary (virtual) participants, straight off the registry mirrors:
      // capped at their current rate, one entry per boundary link crossed.
      // A flow crossing two boundary links gets two single-edge twins; both
      // freeze at the same cap on disjoint links, so the subtractions
      // commute bitwise with the single two-edge formulation (a twin only
      // freezes below its cap when its link would squeeze it, and that
      // marks the flow changed, which forces another expansion iteration —
      // so twins never disagree in the iteration whose rates are applied).
      // In-scope members of a boundary registry already joined as full
      // participants above and carry this iteration's visit stamp, which
      // skips them here.
      n_real_caps_ = static_cast<std::uint32_t>(cap_list_.size());
      if (n_real_caps_ > 0) {
        // Real caps present: this pass sorts one monolithic cap list, so
        // twins need fl_* slots like everyone else.
        for (std::size_t bi = scope_links_.size(); bi < comp_links_.size();
             ++bi) {
          const LinkId b = comp_links_[bi];
          const auto& breg = links_[b].flows;
          const std::size_t bn = breg.size();
          for (std::size_t k = 0; k < bn; ++k) {
            const DirectedLink::RegEntry& e = breg[k];
            if (slot_epoch_[e.slot] == scope_epoch_) continue;
            CapEnt ce;
            ce.cap = e.rate;
            ce.fid = e.id;
            ce.idx = static_cast<std::uint32_t>(fl_ptr_.size());
            cap_list_.push_back(ce);
            if (e.rate < cap_min_) cap_min_ = e.rate;
            fl_ptr_.push_back(e.flow);
            fl_cap_.push_back(e.rate);  // its bottleneck lies outside S
            fl_old_.push_back(e.rate);
            edges_.push_back(b);
            fl_edge_end_.push_back(static_cast<std::uint32_t>(edges_.size()));
          }
        }
      } else {
        // No real caps: twins stay implicit — one cap-run entry each,
        // no fl_* slot, no edge. Their link's fill count still includes
        // them (it is the registry size), and a freeze is a single
        // residual subtraction handled through the run.
        for (std::size_t bi = scope_links_.size(); bi < comp_links_.size();
             ++bi) {
          const LinkId b = comp_links_[bi];
          const auto& breg = links_[b].flows;
          const std::size_t bn = breg.size();
          const std::uint32_t run_begin =
              static_cast<std::uint32_t>(cap_list_.size());
          double run_min = kInf;
          for (std::size_t k = 0; k < bn; ++k) {
            const DirectedLink::RegEntry& e = breg[k];
            if (slot_epoch_[e.slot] == scope_epoch_) continue;
            CapEnt ce;
            ce.cap = e.rate;
            ce.fid = e.id;
            ce.flow = e.flow;
            cap_list_.push_back(ce);
            if (e.rate < run_min) run_min = e.rate;
          }
          const std::uint32_t run_end =
              static_cast<std::uint32_t>(cap_list_.size());
          if (run_end > run_begin) {
            CapRun r;
            r.begin = r.at = run_begin;
            r.end = run_end;
            r.link = b;
            r.min = run_min;
            cap_runs_.push_back(r);
            twin_count_ += run_end - run_begin;
            if (run_min < cap_min_) cap_min_ = run_min;
          }
        }
      }
    }
    ++stats_.fills;
    stats_.fill_links += comp_links_.size();
    fill_component();
    bool grew = false;
    const std::uint32_t n = static_cast<std::uint32_t>(fl_ptr_.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      if (fl_new_[i] == fl_old_[i]) continue;
      for (LinkId l : fl_ptr_[i]->path) {
        std::uint64_t& mark = link_scope_[l];
        if (mark == scope_id_) continue;
        mark = scope_id_;
        scope_links_.push_back(l);  // registry holds this flow: never empty
        grew = true;
      }
    }
    // Squeezed implicit twins froze below their held rate: changed flows,
    // so their paths join S the same way.
    for (Flow* f : squeezed_) {
      for (LinkId l : f->path) {
        std::uint64_t& mark = link_scope_[l];
        if (mark == scope_id_) continue;
        mark = scope_id_;
        scope_links_.push_back(l);
        grew = true;
      }
    }
    if (!grew) break;
  }
  apply_component();
  // At the fixpoint every flow whose rate changed runs over S links only,
  // so re-summing S's registries keeps every link's load current.
  for (LinkId l : scope_links_) link_load_[l] = registry_load(links_[l]);
}

bool Network::rates_match_full_recompute() {
  ++scope_epoch_;
  bool match = true;
  for (auto& [id, flow] : flows_) {
    if (slot_epoch_[flow.slot] == scope_epoch_) continue;
    collect_component(flow.path.front());
    fill_component();
    const std::uint32_t n = static_cast<std::uint32_t>(fl_ptr_.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      match = match && fl_new_[i] == fl_ptr_[i]->rate;
    }
  }
  return match;
}

void Network::rearm_completion() {
  const double eta = eta_heap_.empty() ? kInf : eta_heap_.front()->deadline;
  if (eta == armed_eta_) return;  // the pending event is still the right one
  armed_eta_ = eta;
  const std::uint64_t gen = ++completion_gen_;  // supersede any stale event
  if (!std::isfinite(eta)) return;  // all flows starved; rearmed on change
  sim_.schedule(std::max(0.0, eta - sim_.now()),
                [this, gen] { on_completion(gen); });
}

void Network::on_completion(std::uint64_t gen) {
  if (gen != completion_gen_) return;  // superseded by a newer rate change
  armed_eta_ = kInf;
  const double now = sim_.now();
  // Pop every due flow off the completion index. A flow is due at its
  // deadline, or when its projected remaining dips under the byte epsilon
  // (guards against a zero-progress re-arm at the same timestamp).
  while (!eta_heap_.empty()) {
    Flow* f = eta_heap_.front();
    const bool due = f->deadline <= now ||
                     f->remaining - f->rate * (now - f->last_update) <= kByteEpsilon;
    if (!due) break;
    // finish_flow fires handles via deferred events, so no callback can
    // re-enter while we drain the heap.
    finish_flow(f->id, /*failed=*/false);
  }
  recompute_scope();  // seeds accumulated by finish_flow
  rearm_completion();
}

void Network::finish_flow(std::uint64_t id, bool failed) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow& flow = it->second;
  auto handle = flow.handle;
  settle_flow(flow, sim_.now());
  if (failed) {
    bytes_dropped_ += std::max(0.0, flow.remaining);
  } else {
    // Account any residual rounding as delivered.
    bytes_delivered_ += std::max(0.0, flow.remaining);
  }
  for (LinkId l : flow.path) {
    auto& v = links_[l].flows;
    v.erase(std::remove_if(v.begin(), v.end(),
                           [&flow](const DirectedLink::RegEntry& e) {
                             return e.flow == &flow;
                           }),
            v.end());
    seed_links_.push_back(l);
  }
  eta_erase(&flow);
  free_slots_.push_back(flow.slot);
  flows_.erase(it);
  handle->failed = failed;
  handle->finish_time = sim_.now();
  handle->done->trigger(sim_);
}

// --- completion index (indexed binary min-heap) ------------------------------

void Network::eta_sift_up(std::size_t i) {
  Flow** h = eta_heap_.data();
  Flow* f = h[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    Flow* p = h[parent];
    if (!eta_less(f, p)) break;
    // chase-lint: allow(hot-relookup) hole sift: i moves every iteration, so h[i] names a fresh slot each time
    h[i] = p;
    p->heap_pos = i;
    i = parent;
  }
  h[i] = f;
  f->heap_pos = i;
}

void Network::eta_sift_down(std::size_t i) {
  Flow** h = eta_heap_.data();
  Flow* f = h[i];
  const std::size_t n = eta_heap_.size();
  while (true) {
    std::size_t best = 2 * i + 1;
    if (best >= n) break;
    if (best + 1 < n && eta_less(h[best + 1], h[best])) ++best;
    Flow* b = h[best];
    if (!eta_less(b, f)) break;
    // chase-lint: allow(hot-relookup) hole sift: i moves every iteration, so h[i] names a fresh slot each time
    h[i] = b;
    b->heap_pos = i;
    i = best;
  }
  h[i] = f;
  f->heap_pos = i;
}

void Network::eta_insert(Flow* f) {
  f->heap_pos = eta_heap_.size();
  eta_heap_.push_back(f);
  eta_sift_up(f->heap_pos);
}

void Network::eta_erase(Flow* f) {
  const std::size_t i = f->heap_pos;
  const std::size_t last = eta_heap_.size() - 1;
  if (i != last) {
    Flow* moved = eta_heap_[last];
    eta_heap_[i] = moved;
    moved->heap_pos = i;
  }
  eta_heap_.pop_back();
  if (i < eta_heap_.size()) {
    eta_sift_down(i);
    eta_sift_up(i);
  }
  f->heap_pos = kNoHeapPos;
}

void Network::eta_update(Flow* f) {
  eta_sift_up(f->heap_pos);
  eta_sift_down(f->heap_pos);
}

// --- introspection -----------------------------------------------------------

double Network::node_tx_rate(NodeId id) const {
  double r = 0.0;
  for (const auto& [fid, flow] : flows_) {
    if (flow.handle->src == id) r += flow.rate;
  }
  return r;
}

double Network::node_rx_rate(NodeId id) const {
  double r = 0.0;
  for (const auto& [fid, flow] : flows_) {
    if (flow.handle->dst == id) r += flow.rate;
  }
  return r;
}

double Network::total_flow_rate() const {
  double r = 0.0;
  for (const auto& [fid, flow] : flows_) r += flow.rate;
  return r;
}

double Network::total_bytes_delivered() const {
  // Lazy settlement: add each active flow's accrued-but-unsettled progress
  // on top of the settled ledger. Pure observation; flow state untouched.
  double total = bytes_delivered_;
  const double now = sim_.now();
  for (const auto& [id, flow] : flows_) {
    const double dt = now - flow.last_update;
    if (dt > 0.0 && flow.rate > 0.0) {
      total += std::min(flow.remaining, flow.rate * dt);
    }
  }
  return total;
}

double Network::link_utilization(LinkId id) const {
  const auto& link = links_.at(id);
  double used = 0.0;
  for (const auto& e : link.flows) used += e.rate;
  return used / link.capacity;
}

void Network::check_invariants() const {
  const double now = sim_.now();
  double in_flight = 0.0;
  for (const auto& [id, flow] : flows_) {
    const double total = static_cast<double>(flow.handle->bytes);
    in_flight += flow.remaining;
    CHASE_INVARIANT(flow.remaining >= -kByteEpsilon && flow.remaining <= total + kByteEpsilon,
                    "flow remaining outside [0, bytes]: " + node_name(flow.handle->src) +
                        " -> " + node_name(flow.handle->dst));
    CHASE_INVARIANT(flow.rate >= 0.0 && flow.rate <= flow.rate_cap * (1.0 + 1e-9),
                    "flow rate negative or above its cap");
    CHASE_INVARIANT(!flow.path.empty(), "active flow with empty path");
    CHASE_INVARIANT(flow.last_update <= now + 1e-12, "flow settled in the future");
    CHASE_INVARIANT(flow.id == id, "flow id diverged from its map key");
    // Conservation: a flow never runs past its byte count before its
    // completion event fires — remaining covers rate * elapsed.
    CHASE_INVARIANT(
        flow.remaining - flow.rate * (now - flow.last_update) >=
            -kByteEpsilon - 1e-9 * total,
        "in-flight bytes not conserved (flow overran its remaining byte count)");
    // The completion index holds exactly this flow at its recorded slot,
    // keyed by a deadline that matches the flow's settle state bit-for-bit.
    CHASE_INVARIANT(flow.heap_pos < eta_heap_.size() &&
                        eta_heap_[flow.heap_pos] == &flow,
                    "flow absent from the completion index (or slot stale)");
    CHASE_INVARIANT(flow.deadline == completion_eta(flow),
                    "completion deadline inconsistent with remaining/rate");
    // Path structure: contiguous src -> dst chain over live nodes, and the
    // flow is registered on each link it occupies.
    NodeId at = flow.handle->src;
    for (LinkId l : flow.path) {
      CHASE_INVARIANT(l >= 0 && l < static_cast<LinkId>(links_.size()),
                      "flow path references an unknown link");
      const DirectedLink& link = links_[static_cast<std::size_t>(l)];
      CHASE_INVARIANT(link.from == at, "flow path is not a contiguous route");
      CHASE_INVARIANT(nodes_[static_cast<std::size_t>(link.from)].up &&
                          nodes_[static_cast<std::size_t>(link.to)].up,
                      "flow routed through a down node (should have failed)");
      CHASE_INVARIANT(link.up, "flow routed over a partitioned link (should have failed)");
      CHASE_AUDIT(std::find_if(link.flows.begin(), link.flows.end(),
                               [&flow](const DirectedLink::RegEntry& e) {
                                 return e.flow == &flow;
                               }) != link.flows.end(),
                  "flow missing from its link's incidence registry");
      at = link.to;
    }
    CHASE_INVARIANT(at == flow.handle->dst, "flow path does not end at its destination");
  }
  // Incidence registries only reference live flows in ascending id order,
  // and max-min fair rates never oversubscribe a link's capacity.
  std::size_t registered = 0;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const DirectedLink& link = links_[i];
    double used = 0.0;
    std::uint64_t prev_id = 0;
    bool first = true;
    for (const auto& e : link.flows) {
      CHASE_INVARIANT(first || e.id > prev_id,
                      "link incidence registry out of ascending id order");
      first = false;
      prev_id = e.id;
      // The lean boundary scan trusts these mirrors instead of chasing the
      // Flow pointer; a stale mirror would silently skew boundary caps.
      CHASE_INVARIANT(e.id == e.flow->id && e.rate == e.flow->rate,
                      "registry mirror diverged from its flow (id or rate)");
      used += e.rate;
    }
    registered += link.flows.size();
    // The fast-admission load is an upper bound on the registry's exact
    // sum: `used` is within n half-ulps of that sum, hence the n * 2^-52
    // allowance below it. Its excess (the re-sum's lift plus one ulp per
    // fast admission since the link's last fill) must stay far inside the
    // guard's margin, or the guard would decline flows it could admit.
    const double load = link_load_[i];
    const double n = static_cast<double>(link.flows.size());
    CHASE_INVARIANT(load >= used - used * n * 0x1p-52 &&
                        load - used <= kSlackMargin * link.capacity &&
                        (n > 0.0 || load == 0.0),
                    "link load diverged from its registry's rate sum");
    CHASE_INVARIANT(used <= link.capacity * (1.0 + 1e-6),
                    "link oversubscribed: " + node_name(link.from) + " -> " +
                        node_name(link.to));
    CHASE_INVARIANT(link.base_capacity > 0.0 && link.capacity > 0.0,
                    "link with non-positive capacity");
    CHASE_INVARIANT(links_[partner_of(static_cast<LinkId>(i))].up == link.up,
                    "full-duplex pair with divergent up/down state");
  }
  // Every registry slot was matched by some flow's path above iff the
  // per-flow membership audit passed; the totals must agree regardless.
  std::size_t path_slots = 0;
  for (const auto& [id, flow] : flows_) path_slots += flow.path.size();
  CHASE_INVARIANT(registered == path_slots,
                  "incidence registry size diverged from the flow paths");
  // Completion index: one slot per active flow, min-heap ordered.
  CHASE_INVARIANT(eta_heap_.size() == flows_.size(),
                  "completion index size diverged from the active flow set");
  for (std::size_t i = 1; i < eta_heap_.size(); ++i) {
    CHASE_INVARIANT(!eta_less(eta_heap_[i], eta_heap_[(i - 1) / 2]),
                    "completion index violates the heap property");
  }
  // Lazy-settlement conservation: everything admitted is settled, dropped,
  // or still in flight (tolerance covers fp accumulation over many settles).
  CHASE_INVARIANT(bytes_delivered_ >= 0.0 && bytes_dropped_ >= 0.0,
                  "byte ledger went negative");
  CHASE_INVARIANT(
      std::abs(bytes_started_ - bytes_delivered_ - bytes_dropped_ - in_flight) <=
          1e-6 * std::max(1.0, bytes_started_) + kByteEpsilon,
      "byte conservation violated: started != delivered + dropped + in-flight");
}

}  // namespace chase::net
