#pragma once
/// \file network.hpp
/// Flow-level simulation of the Pacific Research Platform: nodes (FIONAs,
/// DTNs, switches), full-duplex links (10/40/100 GbE), shortest-path routing
/// and max-min fair bandwidth sharing among concurrent flows — the standard
/// fluid abstraction for bulk science data movement.
///
/// A transfer occupies one flow along its route. Whenever the flow set
/// changes, rates are recomputed by progressive filling (with optional
/// per-flow rate caps, used to model single-TCP-connection limits) — but
/// only over the connected component of the link↔flow incidence graph the
/// change touches. Flows in untouched components keep their rates, their
/// settle state, and their pending completion deadlines; per-event cost is
/// proportional to what changed, not to the whole network (DESIGN.md
/// "Incremental max-min rate updates").

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "util/block_pool.hpp"
#include "util/units.hpp"

namespace chase::net {

using NodeId = int;
using LinkId = int;
/// Hierarchical multi-site topology (paper: ~20 PRP sites on a WAN). Every
/// node belongs to a site; links whose endpoints sit in different sites are
/// WAN links. Site 0 is the default, so single-site callers never see the
/// hierarchy. Site ids are small dense integers assigned by the caller.
using SiteId = int;
using util::Bytes;

struct TransferOptions {
  /// Cap on this flow's rate (bytes/s), e.g. a single TCP stream's ceiling.
  double rate_cap = std::numeric_limits<double>::infinity();
};

/// Live handle for an in-flight (or finished) transfer.
struct Transfer {
  sim::EventPtr done = sim::make_event();
  NodeId src = -1;
  NodeId dst = -1;
  Bytes bytes = 0;
  double start_time = 0.0;
  double finish_time = -1.0;  // set when done fires
  bool failed = false;        // node/link went down mid-flight
};

using TransferPtr = std::shared_ptr<Transfer>;

class Network {
 public:
  explicit Network(sim::Simulation& sim);
  ~Network() { sim_.remove_audit_hook(audit_hook_); }
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology -----------------------------------------------------------

  NodeId add_node(std::string name);
  /// Adds a node inside `site` (hierarchical topologies). Site ids must be
  /// dense small integers; the site count grows to cover the largest id.
  NodeId add_node(std::string name, SiteId site);
  /// Adds a full-duplex link (two directed links of `bandwidth` each). The
  /// link is classified as WAN iff its endpoints sit in different sites.
  LinkId add_link(NodeId a, NodeId b, double bandwidth_bps, double latency_s);

  std::size_t node_count() const { return nodes_.size(); }
  const std::string& node_name(NodeId id) const { return nodes_.at(id).name; }
  SiteId site_of(NodeId id) const { return nodes_.at(id).site; }
  /// Number of distinct sites (>= 1; single-site networks report 1).
  std::size_t site_count() const { return site_epochs_.size(); }
  /// True iff the link crosses a site boundary (an inter-site WAN link).
  bool link_is_wan(LinkId id) const { return links_.at(id).wan; }
  /// Forward link ids of every full-duplex pair with exactly one endpoint in
  /// `site` — the site's WAN attachment. Chaos site partitions cut these.
  std::vector<LinkId> site_boundary_links(SiteId site) const;
  /// Mark a node up/down. Taking a node down fails all flows routed through
  /// it and removes it from routing until it comes back.
  void set_node_up(NodeId id, bool up);
  bool node_up(NodeId id) const { return nodes_.at(id).up; }

  /// Partition / heal a full-duplex link (both directions). Taking a link
  /// down fails every flow routed over either direction and removes it from
  /// routing until it is healed.
  void set_link_up(LinkId id, bool up);
  bool link_up(LinkId id) const { return links_.at(id).up; }
  /// Degrade (or restore) a full-duplex link to `factor` times its built
  /// bandwidth, both directions; in-flight flows are re-rated. factor > 0.
  void set_link_bandwidth_factor(LinkId id, double factor);
  double link_bandwidth_factor(LinkId id) const;
  /// First directed link from `a` to `b`, or -1 if the nodes are not
  /// adjacent. Chaos plans use this to target specific WAN uplinks.
  LinkId find_link(NodeId a, NodeId b) const;
  /// Directed links leaving `id` — the node's full adjacency. Chaos uses
  /// this to degrade every NIC of a straggling machine at once.
  const std::vector<LinkId>& links_at(NodeId id) const { return nodes_.at(id).out; }
  std::size_t link_count() const { return links_.size(); }

  // --- transfers ----------------------------------------------------------

  /// Start a transfer; the returned handle's `done` event fires at
  /// completion (or failure). Zero-byte transfers still pay latency.
  TransferPtr transfer(NodeId src, NodeId dst, Bytes bytes, TransferOptions opts = {});

  /// Coroutine sugar: start a transfer and await it. Returns (via the
  /// handle) after the last byte arrives.
  sim::Task send(NodeId src, NodeId dst, Bytes bytes, TransferOptions opts = {});

  /// One leg of a collective round (ring all-reduce chunk, broadcast, ...).
  struct GroupLeg {
    NodeId src = -1;
    NodeId dst = -1;
    Bytes bytes = 0;
  };
  /// Start every leg at once and await all completions — the barrier-round
  /// primitive for collective schedules (ml::DistTrainer's ring). All legs
  /// contend simultaneously, so max-min fair sharing shapes the round time;
  /// failed legs (node/link loss mid-flight) complete the barrier rather
  /// than hang it.
  sim::Task send_group(std::vector<GroupLeg> legs, TransferOptions opts = {});

  // --- introspection (sampled by the monitoring layer) ---------------------

  /// Instantaneous egress/ingress rate of a node over all active flows.
  double node_tx_rate(NodeId id) const;
  double node_rx_rate(NodeId id) const;
  /// Sum of all active flow rates (cluster-wide instantaneous throughput).
  double total_flow_rate() const;
  std::size_t active_flows() const { return flows_.size(); }
  /// Cumulative bytes delivered over the network since construction.
  /// Settlement is lazy (a flow settles only when its rate changes), so this
  /// adds each active flow's accrued-but-unsettled progress on the fly.
  double total_bytes_delivered() const;
  /// Instantaneous utilization of a link's a->b direction, in [0, 1].
  double link_utilization(LinkId id) const;

  /// True if a route currently exists.
  bool reachable(NodeId src, NodeId dst);

  /// Invariant audit (see util/check.hpp): flow/link bookkeeping is
  /// consistent, in-flight bytes are conserved (started = delivered +
  /// dropped + still-remaining), and the completion-deadline index matches
  /// the flow set. Called automatically at simulation checkpoints in audit
  /// builds.
  void check_invariants() const;

  /// Reference cross-check for the scoped recompute: re-runs progressive
  /// filling over EVERY component into scratch and compares against the
  /// live rates. True iff bit-identical. Wired into the audit hook at
  /// audit level >= 2; the randomized property tests call it directly.
  bool rates_match_full_recompute();

  /// Deterministic work counters, always on. The audit's reference fills
  /// (rates_match_full_recompute) are not counted, so the values do not
  /// depend on the audit level.
  struct Stats {
    std::uint64_t recomputes = 0;       // recompute_scope calls that filled
    std::uint64_t fills = 0;            // fill passes inside those calls
    std::uint64_t fill_links = 0;       // links (scope + boundary) per pass
    std::uint64_t capped_starts = 0;    // flow starts with a finite cap > 0
    std::uint64_t fast_admissions = 0;  // capped starts admitted without a fill
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Flow;

  struct Node {
    std::string name;
    bool up = true;
    SiteId site = 0;
    std::vector<LinkId> out;  // directed links leaving this node
  };
  struct DirectedLink {
    NodeId from, to;
    double capacity;       // current effective bytes/s (base * factor)
    double latency;        // s
    double base_capacity;  // as built
    bool up = true;
    bool wan = false;      // endpoints in different sites
    /// Incidence index: active flows routed over this link, ascending flow
    /// id (ids are assigned monotonically at flow start; removal preserves
    /// order). This is one half of the link↔flow incidence the scoped
    /// recompute walks; Flow::path is the other half. The entry mirrors the
    /// flow's id and current rate so boundary collection is a sequential
    /// scan of this vector — no scattered Flow dereference per member.
    struct RegEntry {
      Flow* flow = nullptr;
      double rate = 0.0;      // mirror of flow->rate (audited)
      std::uint64_t id = 0;   // mirror of flow->id
      std::uint32_t slot = 0; // mirror of flow->slot (dense epoch index)
    };
    std::vector<RegEntry> flows;
  };
  /// The opposite direction of a full-duplex pair (links are always added
  /// in forward/reverse pairs, so the partner of 2k is 2k+1).
  static LinkId partner_of(LinkId id) { return id % 2 == 0 ? id + 1 : id - 1; }

  static constexpr std::size_t kNoHeapPos = static_cast<std::size_t>(-1);

  struct Flow {
    TransferPtr handle;
    std::vector<LinkId> path;
    double remaining = 0.0;  // bytes, as of last_update
    double rate = 0.0;       // bytes/s
    double rate_cap = std::numeric_limits<double>::infinity();
    double last_update = 0.0;  // sim time of last settle
    /// Absolute completion ETA (last_update + remaining / rate); +inf while
    /// starved. Key of the completion index below.
    double deadline = std::numeric_limits<double>::infinity();
    std::uint64_t id = 0;
    std::size_t heap_pos = kNoHeapPos;  // slot in eta_heap_
    /// Dense index into slot_epoch_ (recycled through free_slots_). The
    /// scoped-recompute membership stamp lives there rather than in the
    /// Flow so collection walks never dereference a scattered Flow object
    /// just to test membership; all other fill scratch is in the fl_*
    /// struct-of-arrays below.
    std::uint32_t slot = 0;
  };

  // --- incremental max-min machinery ---------------------------------------

  /// Advance one flow's progress to `now` at its current rate (called only
  /// when the rate is about to change, at completion, or at failure — the
  /// lazy-settlement replacement for the old all-flows sweep).
  void settle_flow(Flow& flow, double now);
  /// Append one full participant to the fl_* scratch arrays: real rate_cap,
  /// every path link as an edge, stamping + enqueuing newly seen links onto
  /// comp_links_. Boundary (virtual) participants are not added through
  /// here — recompute_scope() reads them straight off the registry mirrors,
  /// skipping flows whose visit stamp marks them as full participants.
  void soa_add_full(Flow* f);
  void soa_clear();
  /// BFS the full link↔flow incidence from `seed` into comp_links_ and the
  /// fl_* arrays, stamping visit epochs; collects exactly one connected
  /// component (the audit reference path).
  void collect_component(LinkId seed);
  /// Progressive filling (max-min with per-flow caps) over the collected
  /// links and fl_* arrays; writes fl_new_, does not touch live state.
  /// Links outside the collected set impose no constraint —
  /// recompute_scope()'s expansion loop is what makes ignoring them exact.
  void fill_component();
  /// Commit fill results: settle + re-rate + re-index flows whose rate
  /// changed; bit-identical rates are left entirely alone.
  void apply_component();
  /// Incremental max-min: starting from the accumulated seed_links_, fill
  /// over the in-scope link set and expand it along the paths of flows
  /// whose computed rate changed (bitwise), refilling until no changed
  /// flow crosses an out-of-scope link. At that fixpoint the result is
  /// bit-identical to the full per-component fill (DESIGN.md "Incremental
  /// max-min rate updates"); flows outside the final scope are never
  /// settled, re-rated, or re-indexed.
  void recompute_scope();
  /// Fast admission of a freshly started flow: if its rate cap is finite
  /// and positive and every path link's slack (capacity minus link_load_)
  /// exceeds the cap by the 1e-9 relative margin, the full fill would hand
  /// it exactly its cap and leave every other rate bitwise unchanged
  /// (DESIGN.md "Fast admission of capped flows"). Then this registers and
  /// indexes the flow at its cap and returns true; otherwise it touches
  /// nothing and returns false, and the caller runs the full path.
  bool admit_at_cap(Flow& flow);
  /// An upper bound on the exact sum of the link's registry rates, within
  /// a few ulps per registered flow: the value link_load_ holds.
  static double registry_load(const DirectedLink& link);
  /// Completion ETA of a flow as of its last settle: the deadline key of
  /// the completion index (remaining / rate ahead of last_update; +inf
  /// while starved; due at once within the byte epsilon).
  static double completion_eta(const Flow& flow);

  /// (Re)arm the single pending completion event at the earliest deadline
  /// in the completion index. No-op when the earliest deadline is
  /// unchanged, so untouched components never churn the event queue.
  void rearm_completion();
  void on_completion(std::uint64_t gen);

  /// Remove a flow and fire its handle; seeds its path links for the
  /// caller's recompute_scope().
  void finish_flow(std::uint64_t id, bool failed);
  /// Fail a batch of flows, then recompute the affected components once.
  void fail_flows();

  // Completion index: indexed binary min-heap over active flows, keyed by
  // (deadline, flow id). Exactly one slot per active flow — no stale
  // entries, O(log flows) per rate change.
  static bool eta_less(const Flow* a, const Flow* b) {
    if (a->deadline != b->deadline) return a->deadline < b->deadline;
    return a->id < b->id;
  }
  void eta_insert(Flow* f);
  void eta_erase(Flow* f);
  void eta_update(Flow* f);
  void eta_sift_up(std::size_t i);
  void eta_sift_down(std::size_t i);

  /// Cached shortest path; the reference is valid until the next route()
  /// call or topology change. Callers that outlive that must copy.
  const std::vector<LinkId>& route(NodeId src, NodeId dst);
  /// O(1): bumps the global topology epoch; per-source route trees
  /// re-derive lazily on their next use instead of being torn down eagerly.
  void invalidate_routes() { ++route_epoch_; }
  /// O(1): bumps one site's intra-site epoch. A topology change confined to
  /// `site` must call both this and invalidate_routes(): cross-site trees
  /// everywhere may route through the site, but other sites' *intra-site*
  /// trees provably cannot (hierarchical routing never leaves the site), so
  /// they stay valid and their steady-state transfers skip BFS entirely.
  void invalidate_site_routes(SiteId site) {
    ++site_epochs_[static_cast<std::size_t>(site)];
  }

  sim::Simulation& sim_;
  std::vector<Node> nodes_;
  std::vector<DirectedLink> links_;
  /// Ordered for determinism; map nodes churn once per flow, so they are
  /// recycled through the BlockPool rather than the global heap. Node
  /// addresses are stable — the incidence index stores Flow*.
  std::map<std::uint64_t, Flow, std::less<>,
           util::PoolAllocator<std::pair<const std::uint64_t, Flow>>>
      flows_;
  std::uint64_t next_flow_id_ = 0;
  std::uint64_t completion_gen_ = 0;  // invalidates stale completion events
  double armed_eta_ = std::numeric_limits<double>::infinity();
  double bytes_delivered_ = 0.0;
  /// Conservation ledger (audited): bytes admitted into flows (plus local /
  /// zero-byte deliveries) and bytes abandoned by failed flows.
  double bytes_started_ = 0.0;
  double bytes_dropped_ = 0.0;
  std::uint64_t audit_hook_ = 0;
  Stats stats_;

  // --- hot-path scratch ----------------------------------------------------
  // The scoped recompute runs once per flow-set change; these buffers are
  // reused across calls so the steady state re-rates a component without a
  // single allocation.
  std::uint64_t scope_epoch_ = 0;  // one per fill pass (collect stamps)
  std::uint64_t scope_id_ = 0;     // one per recompute_scope call (S stamps)
  /// Per-flow fill-pass membership stamps, indexed by Flow::slot — dense,
  /// so the hottest collection test (is this registry member already a full
  /// participant?) stays inside a few cache lines instead of chasing the
  /// Flow pointer. Slots are recycled via free_slots_.
  std::vector<std::uint64_t> slot_epoch_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint64_t> link_epoch_;  // per-link fill-pass stamp
  std::vector<std::uint64_t> link_scope_;  // per-link S-membership stamp
  /// Per-link fill scratch, one cache line hit per link instead of four
  /// parallel-array hits on the hot freeze path.
  static constexpr std::uint32_t kNoRun = 0xFFFFFFFFu;
  struct LinkFill {
    double residual = 0.0;     // unassigned capacity
    std::int32_t count = 0;    // unfrozen flow count
    std::uint32_t reg = 0;     // member-slice length (set after the build)
    std::uint32_t moff = 0;    // member-slice start in link_members_
    /// Member-slice build cursor during collection; after the member build
    /// it is repurposed as this link's index into comp_links_/levels_.
    std::uint32_t mcur = 0;
    std::uint32_t run = kNoRun;  // index into cap_runs_, if a boundary link
  };
  std::vector<LinkFill> link_fill_;
  /// Per-link load, the fast-admission guard's view of the registry's
  /// rate sum. It never reads below the exact sum (the guard may decline a
  /// flow it could admit, never the reverse): recompute_scope() re-sums
  /// every scope link's registry with registry_load() after applying its
  /// fill, a fast admission adds its cap rounded one ulp up, and an
  /// emptied registry's load resets to exactly 0. Dense here rather than a
  /// DirectedLink field, which would grow that struct past 64 bytes.
  std::vector<double> link_load_;
  std::vector<LinkId> comp_links_;         // links of the current fill pass
  std::vector<double> levels_;  // current water level per comp_links_ slot
                                // (+inf once fully frozen); dense so the
                                // per-round min-scan stays in one cache line
  std::vector<LinkId> dirty_;  // links whose level needs a refresh before
                               // the next min-scan (levels are recomputed
                               // once per round, not once per freeze; the
                               // -1.0 level sentinel dedupes entries)
  std::vector<LinkId> scope_links_;        // S: links filled this recompute
  // Per-pass flow scratch, struct-of-arrays: collection reads each scattered
  // Flow object once, then the fill runs entirely over these dense arrays.
  std::vector<Flow*> fl_ptr_;
  std::vector<double> fl_cap_;  // effective cap (rate_cap, or rate if virtual)
  std::vector<double> fl_old_;  // live rate at collection time
  std::vector<double> fl_new_;  // fill result
  std::vector<std::uint32_t> fl_edge_end_;  // exclusive end into edges_
  std::vector<LinkId> edges_;               // flattened in-fill path links
  std::vector<std::uint8_t> fl_frozen_;
  /// Finite rate caps, gathered at collection time with a running minimum;
  /// fill_component() materializes the ascending (cap, flow id) order only
  /// on the first round whose share clears the minimum — most passes never
  /// fire a cap batch and skip the sort entirely. Real (finite rate_cap)
  /// entries carry their fl_* slot; implicit twin entries carry the Flow
  /// pointer instead, touched only on the rare squeeze path.
  struct CapEnt {
    double cap = 0.0;
    std::uint64_t fid = 0;
    union {
      std::uint32_t idx = 0;
      Flow* flow;
    };
  };
  std::vector<CapEnt> cap_list_;
  double cap_min_ = std::numeric_limits<double>::infinity();
  /// One run of cap_list_ per boundary link: that link's lean twins, sorted
  /// lazily on first firing. Runs touch pairwise-disjoint links, so firing
  /// them run-by-run subtracts in the same per-link ascending order as the
  /// globally sorted list — bit for bit — without the global sort. Twins
  /// live only here (no fl_* slots): a freeze is one residual subtraction
  /// on the run's link, and entries past `at` are exactly the unfrozen
  /// ones. Passes that carry real (finite rate_cap) entries fall back to
  /// the monolithic sorted list with twins as full participants, because a
  /// real cap can interleave with twin caps on a shared link (the
  /// full-recompute reference is always monolithic). Both paths stay on
  /// purpose: routing uncapped passes through the monolithic list halves
  /// churn throughput (DESIGN.md "Why both fill formulations stay").
  struct CapRun {
    std::uint32_t begin = 0, end = 0, at = 0;
    LinkId link = -1;
    double min = std::numeric_limits<double>::infinity();
    bool sorted = false;
  };
  std::vector<CapRun> cap_runs_;
  std::uint32_t n_real_caps_ = 0;  // cap_list_ prefix from full participants
  std::uint32_t twin_count_ = 0;   // implicit twins in the current pass
  std::vector<Flow*> squeezed_;    // twins frozen below their held rate
  std::vector<std::uint32_t> link_members_;    // flattened per-link flow idx
  std::vector<LinkId> seed_links_;     // pending recompute seeds
  std::vector<Flow*> eta_heap_;        // completion index
  std::vector<std::uint64_t> doomed_;  // fail-path scratch
  // Route cache: shortest-path trees per source node, stamped with epochs.
  // One BFS serves every destination from that source, so steady-state
  // transfers assemble their path by walking predecessor links — no
  // per-pair BFS, no ordered-map lookup. Invalidation is an epoch bump.
  //
  // Multi-site refinement: each source keeps a *global* tree (full BFS,
  // keyed on route_epoch_) for cross-site destinations and an *intra-site*
  // tree (BFS over non-WAN links only, keyed on the source site's epoch in
  // site_epochs_) for same-site destinations. Intra-site traffic routes
  // hierarchically — it never exits the site — so a fault in site A leaves
  // every other site's intra-site trees valid (DESIGN.md "Hierarchical
  // multi-site topology"). Single-site networks have no WAN links, making
  // the intra-site tree identical to the global one bit for bit.
  struct RouteTree {
    std::uint64_t stamp = 0;        // global tree: valid iff == route_epoch_
    std::vector<LinkId> via;        // predecessor link per node, -1 unreachable
    std::uint64_t local_stamp = 0;  // intra-site tree: valid iff == site epoch
    std::vector<LinkId> local_via;
  };
  std::vector<RouteTree> route_trees_;
  std::uint64_t route_epoch_ = 1;
  std::vector<std::uint64_t> site_epochs_ = {1};  // per-site intra-site epochs
  std::vector<LinkId> route_path_;  // scratch: the last assembled path
  // BFS scratch for route-tree rebuilds.
  std::vector<char> route_seen_;
  std::vector<NodeId> route_q_;
};

}  // namespace chase::net
