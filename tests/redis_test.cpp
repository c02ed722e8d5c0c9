#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>

#include "redis/redis.hpp"

namespace cr = chase::redis;
namespace cn = chase::net;
namespace cs = chase::sim;
namespace cu = chase::util;

namespace {

struct RedisBed {
  cs::Simulation sim;
  cn::Network net{sim};
  cn::NodeId server_node, client_node, client2_node;
  cr::RedisServer server{sim};

  RedisBed() {
    auto sw = net.add_node("switch");
    server_node = net.add_node("redis");
    client_node = net.add_node("w1");
    client2_node = net.add_node("w2");
    net.add_link(server_node, sw, cu::gbit_per_s(10), 1e-4);
    net.add_link(client_node, sw, cu::gbit_per_s(10), 1e-4);
    net.add_link(client2_node, sw, cu::gbit_per_s(10), 1e-4);
    server.host_on(server_node);
  }
};

}  // namespace

TEST(RedisServer, ListSemantics) {
  cs::Simulation sim;
  cr::RedisServer s(sim);
  s.rpush("q", "a");
  s.rpush("q", "b");
  s.lpush("q", "z");
  EXPECT_EQ(s.llen("q"), 3u);
  EXPECT_EQ(*s.lpop("q"), "z");
  EXPECT_EQ(*s.lpop("q"), "a");
  EXPECT_EQ(*s.lpop("q"), "b");
  EXPECT_FALSE(s.lpop("q").has_value());
}

TEST(RedisServer, SetSemantics) {
  cs::Simulation sim;
  cr::RedisServer s(sim);
  EXPECT_TRUE(s.sadd("done", "file1"));
  EXPECT_FALSE(s.sadd("done", "file1"));  // duplicate
  EXPECT_EQ(s.scard("done"), 1u);
}

TEST(RedisServer, HashAndStringSemantics) {
  cs::Simulation sim;
  cr::RedisServer s(sim);
  s.set("phase", "training");
  EXPECT_EQ(*s.get("phase"), "training");
  EXPECT_FALSE(s.get("count").has_value());
}

TEST(RedisClient, RoundTripLatency) {
  RedisBed bed;
  cr::RedisClient client(bed.sim, bed.net, bed.server, bed.client_node);
  static double finished;
  finished = -1;
  auto prog = [](RedisBed* b, cr::RedisClient* c) -> cs::Task {
    bool ok = false;
    co_await c->rpush("q", "task1", &ok);
    EXPECT_TRUE(ok);
    finished = b->sim.now();
  };
  bed.sim.spawn(prog(&bed, &client));
  bed.sim.run();
  // Two hops each way (client-switch-server) at 1e-4s per hop, twice.
  EXPECT_GT(finished, 3e-4);
  EXPECT_LT(finished, 0.05);
  EXPECT_EQ(bed.server.llen("q"), 1u);
}

TEST(RedisClient, BlpopWaitsForPush) {
  RedisBed bed;
  cr::RedisClient consumer(bed.sim, bed.net, bed.server, bed.client_node);
  cr::RedisClient producer(bed.sim, bed.net, bed.server, bed.client2_node);
  static std::string got_value;
  static double got_at;
  got_value.clear();
  got_at = -1;

  auto consume = [](RedisBed* b, cr::RedisClient* c) -> cs::Task {
    std::string v;
    bool got = false;
    co_await c->blpop("q", &v, &got);
    EXPECT_TRUE(got);
    got_value = v;
    got_at = b->sim.now();
  };
  auto produce = [](RedisBed* b, cr::RedisClient* p) -> cs::Task {
    co_await b->sim.sleep(5.0);
    co_await p->rpush("q", "payload");
  };
  bed.sim.spawn(consume(&bed, &consumer));
  bed.sim.spawn(produce(&bed, &producer));
  bed.sim.run();
  EXPECT_EQ(got_value, "payload");
  EXPECT_GT(got_at, 5.0);
}

TEST(RedisClient, BlpopImmediateWhenAvailable) {
  RedisBed bed;
  bed.server.rpush("q", "ready");
  cr::RedisClient client(bed.sim, bed.net, bed.server, bed.client_node);
  static bool got;
  got = false;
  auto prog = [](RedisBed*, cr::RedisClient* c) -> cs::Task {
    std::string v;
    bool ok = false;
    co_await c->blpop("q", &v, &ok);
    got = ok && v == "ready";
  };
  bed.sim.spawn(prog(&bed, &client));
  bed.sim.run();
  EXPECT_TRUE(got);
}

TEST(RedisClient, BlpopFifoAmongWaiters) {
  RedisBed bed;
  cr::RedisClient c1(bed.sim, bed.net, bed.server, bed.client_node);
  cr::RedisClient c2(bed.sim, bed.net, bed.server, bed.client2_node);
  static std::vector<std::string> results;
  results.clear();
  auto waiter = [](cr::RedisClient* c, std::string tag) -> cs::Task {
    std::string v;
    bool got = false;
    co_await c->blpop("q", &v, &got);
    if (got) results.push_back(tag + ":" + v);
  };
  bed.sim.spawn(waiter(&c1, "first"));
  bed.sim.schedule(1.0, [&] { bed.sim.spawn(waiter(&c2, "second")); });
  bed.sim.schedule(5.0, [&] {
    bed.server.rpush("q", "m1");
    bed.server.rpush("q", "m2");
  });
  bed.sim.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], "first:m1");
  EXPECT_EQ(results[1], "second:m2");
}

TEST(RedisClient, FailsWhenServerUnhosted) {
  RedisBed bed;
  bed.server.host_on(-1);
  cr::RedisClient client(bed.sim, bed.net, bed.server, bed.client_node);
  static bool ok_out;
  ok_out = true;
  auto prog = [](cr::RedisClient* c) -> cs::Task {
    bool ok = true;
    co_await c->rpush("q", "x", &ok);
    ok_out = ok;
  };
  bed.sim.spawn(prog(&client));
  bed.sim.run();
  EXPECT_FALSE(ok_out);
}

TEST(RedisClient, FailsWhenServerNodeDown) {
  RedisBed bed;
  bed.net.set_node_up(bed.server_node, false);
  cr::RedisClient client(bed.sim, bed.net, bed.server, bed.client_node);
  static bool ok_out;
  ok_out = true;
  auto prog = [](cr::RedisClient* c) -> cs::Task {
    bool ok = true;
    co_await c->rpush("q", "x", &ok);
    ok_out = ok;
  };
  bed.sim.spawn(prog(&client));
  bed.sim.run();
  EXPECT_FALSE(ok_out);
}

TEST(RedisClient, WorkQueuePattern) {
  // The paper's Step-1 pattern: a queue of file lists, workers popping until
  // a sentinel. Verify every message is processed exactly once.
  RedisBed bed;
  const int kMessages = 50;
  const int kWorkers = 2;
  for (int i = 0; i < kMessages; ++i) {
    bed.server.rpush("files", "list-" + std::to_string(i));
  }
  for (int w = 0; w < kWorkers; ++w) bed.server.rpush("files", "STOP");

  static std::set<std::string> seen;
  static int stops;
  seen.clear();
  stops = 0;
  auto worker = [](RedisBed* b, cn::NodeId node) -> cs::Task {
    cr::RedisClient client(b->sim, b->net, b->server, node);
    while (true) {
      std::string msg;
      bool got = false;
      co_await client.blpop("files", &msg, &got);
      if (!got || msg == "STOP") {
        ++stops;
        co_return;
      }
      EXPECT_TRUE(seen.insert(msg).second) << "duplicate delivery of " << msg;
      co_await b->sim.sleep(0.5);  // simulate download work
    }
  };
  bed.sim.spawn(worker(&bed, bed.client_node));
  bed.sim.spawn(worker(&bed, bed.client2_node));
  bed.sim.run();
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kMessages));
  EXPECT_EQ(stops, kWorkers);
  EXPECT_EQ(bed.server.llen("files"), 0u);
}

// --- fault-path regressions ----------------------------------------------------

TEST(RedisClient, ResponseLegFailureRequeuesElement) {
  // A popped element whose response leg fails (client node dies mid-transfer)
  // must go back on the list, not vanish. Links slow enough that the 128-byte
  // request/response legs each take ~1 simulated second.
  cs::Simulation sim;
  cn::Network net{sim};
  auto sw = net.add_node("switch");
  auto server_node = net.add_node("redis");
  auto client_node = net.add_node("w1");
  net.add_link(server_node, sw, 128.0, 1e-4);
  net.add_link(client_node, sw, 128.0, 1e-4);
  cr::RedisServer server{sim};
  server.host_on(server_node);
  server.rpush("q", "job");

  cr::RedisClient client(sim, net, server, client_node);
  static bool got;
  static bool resumed;
  got = true;
  resumed = false;
  auto prog = [](cr::RedisClient* c) -> cs::Task {
    std::string v;
    co_await c->blpop("q", &v, &got);
    resumed = true;
  };
  sim.spawn(prog(&client));
  // Request leg completes ~t=1, pop, response leg in flight until ~t=2: kill
  // the client's node mid-response.
  sim.schedule(1.5, [&] { net.set_node_up(client_node, false); });
  sim.run();
  EXPECT_TRUE(resumed);
  EXPECT_FALSE(got);
  EXPECT_EQ(server.llen("q"), 1u) << "popped element was lost";
  EXPECT_EQ(server.requeues(), 1u);
}

TEST(RedisClient, ServerUnhostedAtResponseRequeuesElement) {
  // A parked BLPOP waiter woken by a push after the server lost its hosting
  // pod (node() == -1) cannot receive the response; the element must return
  // to the list instead of being dropped or sent from node -1.
  RedisBed bed;
  cr::RedisClient client(bed.sim, bed.net, bed.server, bed.client_node);
  static bool got;
  static bool resumed;
  got = true;
  resumed = false;
  auto prog = [](cr::RedisClient* c) -> cs::Task {
    std::string v;
    co_await c->blpop("q", &v, &got);
    resumed = true;
  };
  bed.sim.spawn(prog(&client));                       // parks (queue empty)
  bed.sim.schedule(2.0, [&] { bed.server.host_on(-1); });
  bed.sim.schedule(3.0, [&] { bed.server.rpush("q", "late"); });
  bed.sim.run();
  EXPECT_TRUE(resumed);
  EXPECT_FALSE(got);
  EXPECT_EQ(bed.server.llen("q"), 1u) << "handed-off element was lost";
  EXPECT_EQ(bed.server.requeues(), 1u);
}

TEST(RedisClient, DestroyedWaiterIsNeverDelivered) {
  // A parked BLPOP whose coroutine frame is destroyed (pod evicted) leaves a
  // Waiter with pointers into the dead frame. A later push must skip it —
  // not write through dangling pointers — and keep the element.
  RedisBed bed;
  cr::RedisClient client(bed.sim, bed.net, bed.server, bed.client_node);
  static std::string out;
  static bool got;
  got = false;
  auto holder = std::make_shared<std::optional<cs::Task>>();
  holder->emplace(client.blpop("q", &out, &got));
  auto starter = [](std::shared_ptr<std::optional<cs::Task>> h) -> cs::Task {
    co_await **h;
  };
  bed.sim.spawn(starter(holder));
  bed.sim.run();  // waiter is now parked on the empty list
  holder->reset();  // destroy the suspended blpop frame (simulated eviction)
  bed.server.rpush("q", "late");
  bed.sim.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(bed.server.llen("q"), 1u)
      << "element delivered to a destroyed waiter";
}

TEST(RedisServer, LeaseRedeliversAfterTtl) {
  cs::Simulation sim;
  cr::RedisServer s(sim);
  s.rpush("q", "job");
  std::uint64_t lease = 0;
  auto v = s.lpop_lease("q", 5.0, &lease);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "job");
  EXPECT_EQ(s.llen("q"), 0u);
  EXPECT_EQ(s.pending_leases("q"), 1u);
  sim.run();  // ttl fires: consumer never acked
  EXPECT_EQ(s.llen("q"), 1u);
  EXPECT_EQ(s.redeliveries(), 1u);
  EXPECT_EQ(s.pending_leases("q"), 0u);
  EXPECT_EQ(*s.lpop("q"), "job");
}

TEST(RedisServer, AckPreventsRedelivery) {
  cs::Simulation sim;
  cr::RedisServer s(sim);
  s.rpush("q", "job");
  std::uint64_t lease = 0;
  ASSERT_TRUE(s.lpop_lease("q", 5.0, &lease).has_value());
  EXPECT_TRUE(s.ack(lease));
  EXPECT_FALSE(s.ack(lease));  // idempotent
  sim.run();
  EXPECT_EQ(s.llen("q"), 0u);
  EXPECT_EQ(s.redeliveries(), 0u);
}

TEST(RedisServer, ReleaseLeaseRequeuesImmediately) {
  cs::Simulation sim;
  cr::RedisServer s(sim);
  s.rpush("q", "job");
  std::uint64_t lease = 0;
  ASSERT_TRUE(s.lpop_lease("q", 100.0, &lease).has_value());
  EXPECT_TRUE(s.release_lease(lease));
  EXPECT_EQ(s.llen("q"), 1u);  // back now, not at the ttl
  EXPECT_EQ(s.requeues(), 1u);
  EXPECT_FALSE(s.release_lease(lease));
}

TEST(RedisClient, BlpopLeaseAckRoundTrip) {
  RedisBed bed;
  bed.server.rpush("q", "job");
  cr::RedisClient client(bed.sim, bed.net, bed.server, bed.client_node);
  static bool done;
  done = false;
  auto prog = [](cr::RedisClient* c, cr::RedisServer* s) -> cs::Task {
    std::string v;
    std::uint64_t lease = 0;
    bool got = false;
    co_await c->blpop_lease("q", 30.0, &v, &lease, &got);
    EXPECT_TRUE(got);
    if (!got) co_return;  // ASSERT_* would plain-return, illegal in a coroutine
    EXPECT_EQ(v, "job");
    EXPECT_EQ(s->pending_leases("q"), 1u);
    bool acked = false;
    bool ok = false;
    co_await c->ack(lease, &acked, &ok);
    EXPECT_TRUE(ok);
    EXPECT_TRUE(acked);
    done = true;
  };
  bed.sim.spawn(prog(&client, &bed.server));
  bed.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(bed.server.llen("q"), 0u);
  EXPECT_EQ(bed.server.pending_leases("q"), 0u);
  EXPECT_EQ(bed.server.redeliveries(), 0u);
}

TEST(RedisClient, UnackedLeaseRedeliversToAnotherWorker) {
  // Worker 1 pops under a lease and dies without acking; after the ttl the
  // element re-enters the queue and a second (parked) worker receives it.
  RedisBed bed;
  bed.server.rpush("q", "job");
  cr::RedisClient c1(bed.sim, bed.net, bed.server, bed.client_node);
  cr::RedisClient c2(bed.sim, bed.net, bed.server, bed.client2_node);
  static std::string second_got;
  second_got.clear();
  auto doomed = [](cr::RedisClient* c) -> cs::Task {
    std::string v;
    std::uint64_t lease = 0;
    bool got = false;
    co_await c->blpop_lease("q", 5.0, &v, &lease, &got);
    EXPECT_TRUE(got);
    // never acks: simulated death mid-work
  };
  auto successor = [](cr::RedisClient* c) -> cs::Task {
    std::string v;
    bool got = false;
    co_await c->blpop("q", &v, &got);
    if (got) second_got = v;
  };
  bed.sim.spawn(doomed(&c1));
  bed.sim.schedule(1.0, [&] { bed.sim.spawn(successor(&c2)); });
  bed.sim.run();
  EXPECT_EQ(second_got, "job");
  EXPECT_EQ(bed.server.redeliveries(), 1u);
}
