#pragma once
/// \file redis.hpp
/// The Redis work-queue substitute (paper §III-A): an in-memory data-
/// structure store with lists (the job queue), sets and strings.
/// "The Redis queue holds a list of files that contain urls to download...
/// each pod pops a message off the queue"; workers keep popping until the
/// queue drains.
///
/// The store itself is deterministic, synchronous state; RedisClient wraps
/// every command in request/response network round-trips against the node
/// hosting the server, including FIFO blocking pops (BLPOP) with handoff.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"

namespace chase::redis {

/// Server-side state. Commands here are instantaneous (no I/O); use
/// RedisClient for access from workload programs.
class RedisServer {
 public:
  explicit RedisServer(sim::Simulation& sim) : sim_(sim) {
    audit_hook_ = sim_.add_audit_hook([this] { check_invariants(); });
  }
  ~RedisServer() { sim_.remove_audit_hook(audit_hook_); }
  RedisServer(const RedisServer&) = delete;
  RedisServer& operator=(const RedisServer&) = delete;

  /// Where the server currently runs; -1 means not hosted (clients fail).
  void host_on(net::NodeId node) { node_ = node; }
  net::NodeId node() const { return node_; }

  // lists
  void lpush(const std::string& key, std::string value);
  void rpush(const std::string& key, std::string value);
  std::optional<std::string> lpop(const std::string& key);
  std::size_t llen(const std::string& key) const;

  // leases (at-least-once work-queue delivery)
  /// Pop with a redelivery lease: the element is handed out but kept in a
  /// pending table for `ttl` simulated seconds. If the consumer does not
  /// ack() within the ttl (its pod died mid-work), the element is pushed
  /// back to the FRONT of the list and counts as a redelivery. *lease_id
  /// receives the lease handle on success.
  std::optional<std::string> lpop_lease(const std::string& key, double ttl,
                                        std::uint64_t* lease_id);
  /// Acknowledge a leased element (work durably finished); idempotent.
  /// Returns false if the lease already expired or was acked.
  bool ack(std::uint64_t lease_id);
  /// Expire a lease immediately: the element returns to the front of its
  /// list now instead of at the ttl (used when the consumer knows the
  /// response leg failed). Returns false if already acked/expired.
  bool release_lease(std::uint64_t lease_id);
  std::size_t pending_leases(const std::string& key) const;
  /// Lease expiries that re-queued an element (consumer died mid-lease).
  std::uint64_t redeliveries() const { return redeliveries_; }
  /// Elements pushed back by clients after a failed response leg.
  std::uint64_t requeues() const { return requeues_; }
  /// Client-side response-leg failure path: put the element back at the
  /// front of the list (it was popped but never reached the consumer).
  void requeue(const std::string& key, std::string value);

  // sets
  bool sadd(const std::string& key, const std::string& member);
  std::size_t scard(const std::string& key) const;
  std::vector<std::string> smembers(const std::string& key) const;

  // strings
  void set(const std::string& key, std::string value);
  std::optional<std::string> get(const std::string& key) const;

  /// Invariant audit (see util/check.hpp): queue length vs. blocked-client
  /// accounting (a value never sits in a list while a BLPOP waiter is
  /// parked), lease deadlines, and waiter well-formedness.
  /// Called automatically at simulation checkpoints in audit builds.
  void check_invariants() const;

 private:
  friend class RedisClient;
  struct Waiter {
    sim::EventPtr ready;
    std::string* slot;
    bool* ok;
    /// Liveness flag shared with the blocked coroutine's frame: flipped to
    /// false when that frame is destroyed (pod evicted / node lost), so a
    /// later push never writes through the dangling slot/ok pointers.
    std::shared_ptr<bool> live;
    /// > 0: delivery grants a redelivery lease of this many seconds.
    double lease_ttl = 0.0;
    std::uint64_t* lease_slot = nullptr;
  };
  struct Lease {
    std::string key;
    std::string value;
    double deadline;
  };
  /// Deliver to a blocked BLPOP waiter if any; returns true if handed off.
  /// Waiters whose coroutine frame has been destroyed are discarded.
  bool handoff(const std::string& key, const std::string& value);
  std::uint64_t grant_lease(const std::string& key, const std::string& value, double ttl);
  void expire_lease(std::uint64_t id);

  sim::Simulation& sim_;
  net::NodeId node_ = -1;
  std::map<std::string, std::deque<std::string>> lists_;
  std::map<std::string, std::set<std::string>> sets_;
  std::map<std::string, std::string> strings_;
  std::map<std::string, std::deque<Waiter>> blocked_;
  std::map<std::uint64_t, Lease> leases_;
  std::uint64_t next_lease_id_ = 1;
  std::uint64_t redeliveries_ = 0;
  std::uint64_t requeues_ = 0;
  std::uint64_t audit_hook_ = 0;
};

/// Client used from pod programs; every call is a network round-trip.
class RedisClient {
 public:
  RedisClient(sim::Simulation& sim, net::Network& net, RedisServer& server,
              net::NodeId client_node)
      : sim_(sim), net_(net), server_(server), client_(client_node) {}

  /// All commands set *ok=false (if provided) when the server is
  /// unreachable; value out-params are only written on success.
  /// Commands are coroutines: string parameters are taken by value so the
  /// frame owns them across suspension points (see blpop_impl below).

  sim::Task rpush(std::string key, std::string value, bool* ok = nullptr);
  /// Blocking left pop: waits until an element is available (FIFO among
  /// waiters). Sets *got=false only on network failure; a popped element
  /// that cannot reach the client is pushed back, never dropped.
  sim::Task blpop(std::string key, std::string* out, bool* got);
  /// Blocking left pop with an at-least-once redelivery lease: on success
  /// *lease_id names a pending lease the consumer must ack() once its work
  /// is durable, or the element is re-queued after `lease_ttl` seconds.
  sim::Task blpop_lease(std::string key, double lease_ttl, std::string* out,
                        std::uint64_t* lease_id, bool* got);
  /// Acknowledge a lease (see blpop_lease). *acked reports whether the
  /// lease was still pending server-side; *ok the round-trip outcome.
  sim::Task ack(std::uint64_t lease_id, bool* acked = nullptr, bool* ok = nullptr);
  sim::Task sadd(std::string key, std::string member, bool* added = nullptr,
                 bool* ok = nullptr);
  sim::Task scard(std::string key, std::size_t* out, bool* ok = nullptr);
  sim::Task get(std::string key, std::optional<std::string>* out,
                bool* ok = nullptr);
  sim::Task set(std::string key, std::string value, bool* ok = nullptr);

 private:
  /// One request/response round-trip; returns success via *ok.
  sim::Task round_trip(bool* ok);
  /// Shared body of blpop / blpop_lease (lease_ttl <= 0 = plain pop). Takes
  /// `key` by value: the frame is lazy and may outlive the caller's full
  /// expression, so a reference parameter would dangle (coroutines copy the
  /// reference into the frame, not the referent).
  sim::Task blpop_impl(std::string key, double lease_ttl, std::string* out,
                       std::uint64_t* lease_id, bool* got);

  sim::Simulation& sim_;
  net::Network& net_;
  RedisServer& server_;
  net::NodeId client_;
};

}  // namespace chase::redis
