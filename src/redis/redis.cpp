#include "redis/redis.hpp"

#include "util/check.hpp"

namespace chase::redis {

namespace {
constexpr chase::util::Bytes kRequestBytes = 128;
constexpr double kServiceTime = 50e-6;

/// Lives in a parked BLPOP coroutine's frame; flips the waiter's shared
/// liveness flag when that frame is destroyed, unregistering it from the
/// server's handoff path (see RedisServer::Waiter::live).
struct LiveGuard {
  std::shared_ptr<bool> flag;
  LiveGuard(const LiveGuard&) = delete;
  LiveGuard& operator=(const LiveGuard&) = delete;
  explicit LiveGuard(std::shared_ptr<bool> f) : flag(std::move(f)) {}
  ~LiveGuard() {
    if (flag) *flag = false;
  }
};
}  // namespace

// --- server ----------------------------------------------------------------------

bool RedisServer::handoff(const std::string& key, const std::string& value) {
  auto it = blocked_.find(key);
  if (it == blocked_.end()) return false;
  while (!it->second.empty()) {
    Waiter w = it->second.front();
    it->second.pop_front();
    // A waiter whose coroutine frame was destroyed (pod evicted, node lost)
    // must never be written through; skip to the next parked consumer.
    if (w.live != nullptr && !*w.live) continue;
    CHASE_INVARIANT(w.live == nullptr || *w.live,
                    "BLPOP handoff to a dead waiter on key '" + key + "'");
    if (w.lease_ttl > 0.0) {
      const std::uint64_t id = grant_lease(key, value, w.lease_ttl);
      if (w.lease_slot != nullptr) *w.lease_slot = id;
    }
    *w.slot = value;
    *w.ok = true;
    w.ready->trigger(sim_);
    return true;
  }
  return false;
}

std::uint64_t RedisServer::grant_lease(const std::string& key, const std::string& value,
                                       double ttl) {
  const std::uint64_t id = next_lease_id_++;
  leases_.emplace(id, Lease{key, value, sim_.now() + ttl});
  sim_.schedule(ttl, [this, id] { expire_lease(id); });
  return id;
}

void RedisServer::expire_lease(std::uint64_t id) {
  auto it = leases_.find(id);
  if (it == leases_.end()) return;  // acked (or released) in time
  ++redeliveries_;
  // The lease is erased below, so its key/value are dead: move, don't copy.
  const std::string key = std::move(it->second.key);
  std::string value = std::move(it->second.value);
  leases_.erase(it);
  // Back to the front: redelivered work should not queue behind fresh work.
  lpush(key, std::move(value));
}

bool RedisServer::ack(std::uint64_t lease_id) { return leases_.erase(lease_id) > 0; }

bool RedisServer::release_lease(std::uint64_t lease_id) {
  auto it = leases_.find(lease_id);
  if (it == leases_.end()) return false;
  // Count as a client re-queue, not a ttl redelivery.
  ++requeues_;
  const std::string key = it->second.key;
  std::string value = std::move(it->second.value);
  leases_.erase(it);
  lpush(key, std::move(value));
  return true;
}

std::size_t RedisServer::pending_leases(const std::string& key) const {
  std::size_t n = 0;
  for (const auto& [id, lease] : leases_) n += lease.key == key;
  return n;
}

// chase-lint: allow(hot-arg-copy) sink parameter: callers hand over rvalues, so by-value + move is one move; const& would force a copy at the insert
void RedisServer::requeue(const std::string& key, std::string value) {
  ++requeues_;
  lpush(key, std::move(value));
}

// chase-lint: allow(hot-arg-copy) sink parameter: callers hand over rvalues, so by-value + move is one move; const& would force a copy at the insert
void RedisServer::lpush(const std::string& key, std::string value) {
  if (handoff(key, value)) return;
  lists_[key].push_front(std::move(value));
}

// chase-lint: allow(hot-arg-copy) sink parameter: callers hand over rvalues, so by-value + move is one move; const& would force a copy at the insert
void RedisServer::rpush(const std::string& key, std::string value) {
  if (handoff(key, value)) return;
  lists_[key].push_back(std::move(value));
}

std::optional<std::string> RedisServer::lpop(const std::string& key) {
  auto it = lists_.find(key);
  if (it == lists_.end() || it->second.empty()) return std::nullopt;
  std::string v = std::move(it->second.front());
  it->second.pop_front();
  return v;
}

std::optional<std::string> RedisServer::lpop_lease(const std::string& key, double ttl,
                                                   std::uint64_t* lease_id) {
  auto v = lpop(key);
  if (!v) return std::nullopt;
  const std::uint64_t id = grant_lease(key, *v, ttl);
  if (lease_id != nullptr) *lease_id = id;
  return v;
}

std::size_t RedisServer::llen(const std::string& key) const {
  auto it = lists_.find(key);
  return it == lists_.end() ? 0 : it->second.size();
}

bool RedisServer::sadd(const std::string& key, const std::string& member) {
  return sets_[key].insert(member).second;
}

std::size_t RedisServer::scard(const std::string& key) const {
  auto it = sets_.find(key);
  return it == sets_.end() ? 0 : it->second.size();
}

std::vector<std::string> RedisServer::smembers(const std::string& key) const {
  auto it = sets_.find(key);
  if (it == sets_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

void RedisServer::set(const std::string& key, std::string value) {
  strings_[key] = std::move(value);
}

std::optional<std::string> RedisServer::get(const std::string& key) const {
  auto it = strings_.find(key);
  if (it == strings_.end()) return std::nullopt;
  return it->second;
}

void RedisServer::check_invariants() const {
  // Queue length vs. in-flight accounting: every push hands off to a parked
  // BLPOP waiter before touching the list, so a key never simultaneously
  // holds queued values and live blocked consumers (dead waiters are merely
  // awaiting garbage collection by the next push).
  for (const auto& [key, waiters] : blocked_) {
    bool any_live = false;
    for (const Waiter& w : waiters) any_live = any_live || w.live == nullptr || *w.live;
    if (any_live) {
      CHASE_INVARIANT(llen(key) == 0,
                      "key '" + key + "' has queued values while BLPOP waiters are parked");
    }
    for (const Waiter& w : waiters) {
      CHASE_INVARIANT(w.ready != nullptr && w.slot != nullptr && w.ok != nullptr,
                      "malformed BLPOP waiter for key '" + key + "'");
      CHASE_INVARIANT(w.ready == nullptr || !w.ready->fired(),
                      "parked BLPOP waiter whose wakeup already fired");
      CHASE_INVARIANT(w.lease_ttl >= 0.0, "BLPOP waiter with a negative lease ttl");
    }
  }
  // Pending leases expire exactly at their deadline and never outlive it.
  for (const auto& [id, lease] : leases_) {
    CHASE_INVARIANT(lease.deadline >= sim_.now() - 1e-9,
                    "lease on key '" + lease.key + "' outlived its deadline");
    CHASE_INVARIANT(id < next_lease_id_, "lease id from the future");
  }
}

// --- client ----------------------------------------------------------------------

sim::Task RedisClient::round_trip(bool* ok) {
  *ok = false;
  const net::NodeId server = server_.node();
  if (server < 0) co_return;
  auto request = net_.transfer(client_, server, kRequestBytes);
  co_await request->done->wait(sim_);
  if (request->failed) co_return;
  co_await sim_.sleep(kServiceTime);
  auto response = net_.transfer(server, client_, kRequestBytes);
  co_await response->done->wait(sim_);
  if (response->failed) co_return;
  *ok = true;
}

sim::Task RedisClient::rpush(std::string key, std::string value, bool* ok) {
  bool fine = false;
  co_await round_trip(&fine);
  if (fine) server_.rpush(key, std::move(value));
  if (ok != nullptr) *ok = fine;
}

sim::Task RedisClient::blpop(std::string key, std::string* out, bool* got) {
  return blpop_impl(std::move(key), 0.0, out, nullptr, got);
}

sim::Task RedisClient::blpop_lease(std::string key, double lease_ttl,
                                   std::string* out, std::uint64_t* lease_id,
                                   bool* got) {
  return blpop_impl(std::move(key), lease_ttl, out, lease_id, got);
}

sim::Task RedisClient::blpop_impl(std::string key, double lease_ttl,
                                  std::string* out, std::uint64_t* lease_id,
                                  bool* got) {
  *got = false;
  bool fine = false;
  std::uint64_t lease = 0;
  // Request leg.
  const net::NodeId server = server_.node();
  if (server < 0) co_return;
  auto request = net_.transfer(client_, server, kRequestBytes);
  co_await request->done->wait(sim_);
  if (request->failed) co_return;
  co_await sim_.sleep(kServiceTime);

  // Immediate element, or block until one is pushed.
  if (lease_ttl > 0.0) {
    if (auto v = server_.lpop_lease(key, lease_ttl, &lease)) {
      *out = std::move(*v);
      fine = true;
    }
  } else if (auto v = server_.lpop(key)) {
    *out = std::move(*v);
    fine = true;
  }
  if (!fine) {
    // Park a waiter. The guard flips the shared liveness flag when this
    // frame is destroyed (pod evicted, simulation torn down) so the server
    // never writes through the then-dangling out/delivered pointers.
    auto live = std::make_shared<bool>(true);
    LiveGuard guard(live);
    auto ready = sim::make_event();
    bool delivered = false;
    server_.blocked_[key].push_back(
        RedisServer::Waiter{ready, out, &delivered, live, lease_ttl, &lease});
    co_await ready->wait(sim_);
    fine = delivered;
    if (!fine) co_return;
  }

  // Response leg: the popped element must actually reach the consumer. If
  // the server is gone or the transfer fails, put the element back instead
  // of dropping it (under a lease, expire the lease now — the value lives
  // in the pending table, not in *out's final state).
  const net::NodeId at_response = server_.node();
  if (at_response < 0) {
    if (lease_ttl > 0.0) {
      server_.release_lease(lease);
    } else {
      server_.requeue(key, *out);
    }
    co_return;
  }
  auto response = net_.transfer(at_response, client_, kRequestBytes);
  co_await response->done->wait(sim_);
  if (response->failed) {
    if (lease_ttl > 0.0) {
      server_.release_lease(lease);
    } else {
      server_.requeue(key, *out);
    }
    co_return;
  }
  if (lease_id != nullptr) *lease_id = lease;
  *got = true;
}

sim::Task RedisClient::ack(std::uint64_t lease_id, bool* acked, bool* ok) {
  bool fine = false;
  co_await round_trip(&fine);
  if (fine) {
    const bool was_pending = server_.ack(lease_id);
    if (acked != nullptr) *acked = was_pending;
  }
  if (ok != nullptr) *ok = fine;
}

sim::Task RedisClient::sadd(std::string key, std::string member,
                            bool* added, bool* ok) {
  bool fine = false;
  co_await round_trip(&fine);
  if (fine) {
    const bool was_added = server_.sadd(key, member);
    if (added != nullptr) *added = was_added;
  }
  if (ok != nullptr) *ok = fine;
}

sim::Task RedisClient::scard(std::string key, std::size_t* out, bool* ok) {
  bool fine = false;
  co_await round_trip(&fine);
  if (fine) *out = server_.scard(key);
  if (ok != nullptr) *ok = fine;
}

sim::Task RedisClient::get(std::string key, std::optional<std::string>* out,
                           bool* ok) {
  bool fine = false;
  co_await round_trip(&fine);
  if (fine) *out = server_.get(key);
  if (ok != nullptr) *ok = fine;
}

sim::Task RedisClient::set(std::string key, std::string value, bool* ok) {
  bool fine = false;
  co_await round_trip(&fine);
  if (fine) server_.set(key, std::move(value));
  if (ok != nullptr) *ok = fine;
}

}  // namespace chase::redis
