#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "util/small_fn.hpp"

namespace cs = chase::sim;

TEST(Simulation, RunsEventsInTimeOrder) {
  cs::Simulation sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, FifoAtSameTimestamp) {
  cs::Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, RunUntilStopsEarly) {
  cs::Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { fired++; });
  sim.schedule(5.0, [&] { fired++; });
  sim.run(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, NestedScheduling) {
  cs::Simulation sim;
  double inner_time = -1;
  sim.schedule(1.0, [&] { sim.schedule(2.0, [&] { inner_time = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_time, 3.0);
}

TEST(Simulation, EventsProcessedCount) {
  cs::Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulation, SameTimeEventsFireInScheduleOrder) {
  // (time, seq) keys are unique, so equal-time events pop in schedule order,
  // including ones scheduled at delay 0 from inside a dispatch.
  cs::Simulation sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] {
    order.push_back(0);
    sim.schedule(0.0, [&] { order.push_back(3); });
    sim.schedule(0.0, [&] {
      order.push_back(4);
      sim.schedule(0.0, [&] { order.push_back(6); });
    });
  });
  sim.schedule(1.0, [&] {
    order.push_back(1);
    sim.schedule(0.0, [&] { order.push_back(5); });
  });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.schedule(0.5, [&] { order.push_back(-1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6}));
}

TEST(Simulation, TraceIsSortedByTimeThenSeqAcrossSlabGrowth) {
  // Thousands of events pending at once over a dozen distinct times (many
  // slab chunks, deep heap), some scheduling more at delay 0 and later.
  cs::Simulation sim;
  std::vector<std::pair<double, std::uint64_t>> trace;
  sim.set_trace_hook([&](double t, std::uint64_t seq) { trace.emplace_back(t, seq); });
  int children = 0;
  for (int i = 0; i < 3000; ++i) {
    sim.schedule(static_cast<double>((i * 7919) % 13), [&sim, &children, i] {
      if (i % 5 != 0) return;
      ++children;
      sim.schedule(0.0, [] {});
      sim.schedule(static_cast<double>(i % 3), [] {});
    });
  }
  sim.run();
  EXPECT_EQ(children, 600);
  ASSERT_EQ(trace.size(), 3000u + 2u * 600u);
  for (std::size_t k = 1; k < trace.size(); ++k) {
    ASSERT_LT(trace[k - 1], trace[k]) << "event " << k << " out of order";
  }
}

namespace {

/// Fills its payload on construction and poisons it on destruction, so a
/// callable that was relocated while running reads poison.
struct Canary {
  std::array<std::uint64_t, 4> v{};
  explicit Canary(std::uint64_t x) { v.fill(x); }
  Canary(Canary&& o) noexcept : v(o.v) {}
  ~Canary() { v.fill(0xDEADu); }
};

/// Counts its destructor runs (moved-from instances do not count).
struct DtorCounter {
  int* count;
  explicit DtorCounter(int* c) : count(c) {}
  DtorCounter(DtorCounter&& o) noexcept : count(std::exchange(o.count, nullptr)) {}
  ~DtorCounter() {
    if (count != nullptr) ++*count;
  }
};

/// Appends its name to a log when destroyed.
struct Logger {
  std::vector<std::string>* log;
  const char* name;
  Logger(std::vector<std::string>* l, const char* n) : log(l), name(n) {}
  Logger(Logger&& o) noexcept : log(std::exchange(o.log, nullptr)), name(o.name) {}
  ~Logger() {
    if (log != nullptr) log->push_back(name);
  }
};

cs::Task parked(cs::Simulation* sim, std::vector<std::string>* log) {
  Logger frame_local(log, "frame");
  co_await sim->sleep(100.0);
}

}  // namespace

TEST(Simulation, RunningCallbackStaysPutWhileTheSlabGrows) {
  cs::Simulation sim;
  bool intact = false;
  chase::util::SmallFn<void()> fn = [&sim, &intact, c = Canary(42)] {
    for (int i = 0; i < 3000; ++i) sim.schedule(1.0, [] {});
    intact = c.v == std::array<std::uint64_t, 4>{42, 42, 42, 42};
  };
  ASSERT_TRUE(fn.is_inline());  // lives in its slab slot, not in the pool
  sim.schedule(1.0, std::move(fn));
  sim.run();
  EXPECT_TRUE(intact);
  EXPECT_EQ(sim.events_processed(), 3001u);
}

TEST(Simulation, PendingCallbacksAreDestroyedOnceAtTeardown) {
  struct Big {
    char pad[64] = {};
  };
  int inline_dtors = 0;
  int pooled_dtors = 0;
  int fired = 0;
  {
    cs::Simulation sim;
    for (int i = 0; i < 600; ++i) {
      const double at = i % 2 == 0 ? 1.0 : 10.0;  // half run, half stay pending
      chase::util::SmallFn<void()> small = [d = DtorCounter(&inline_dtors), &fired] {
        ++fired;
      };
      chase::util::SmallFn<void()> big = [d = DtorCounter(&pooled_dtors), &fired,
                                          b = Big{}] { fired += 1 + b.pad[0]; };
      ASSERT_TRUE(small.is_inline());
      ASSERT_FALSE(big.is_inline());
      sim.schedule(at, std::move(small));
      sim.schedule(at, std::move(big));
    }
    sim.run(5.0);
    EXPECT_EQ(fired, 600);
    EXPECT_EQ(inline_dtors, 300);  // a callback is destroyed once it has run
    EXPECT_EQ(pooled_dtors, 300);
  }
  EXPECT_EQ(fired, 600);
  EXPECT_EQ(inline_dtors, 600);
  EXPECT_EQ(pooled_dtors, 600);
}

TEST(Simulation, TeardownDestroysPendingCallbacksBeforeFrames) {
  std::vector<std::string> log;
  {
    cs::Simulation sim;
    sim.spawn(parked(&sim, &log));
    sim.run(1.0);
    sim.schedule(50.0, [g = Logger(&log, "callback")] {});
  }
  EXPECT_EQ(log, (std::vector<std::string>{"callback", "frame"}));
}

namespace {

cs::Task sleeper(cs::Simulation& sim, double dt, double* woke_at) {
  co_await sim.sleep(dt);
  *woke_at = sim.now();
}

cs::Task parent_task(cs::Simulation& sim, std::vector<int>* log) {
  log->push_back(1);
  co_await sim.sleep(1.0);
  log->push_back(2);
  double t = 0;
  co_await sleeper(sim, 2.0, &t);  // await a child coroutine
  log->push_back(3);
  EXPECT_DOUBLE_EQ(t, 3.0);
}

}  // namespace

TEST(Task, SleepAdvancesClock) {
  cs::Simulation sim;
  double woke = -1;
  sim.spawn(sleeper(sim, 5.0, &woke));
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 5.0);
}

TEST(Task, AwaitChildTask) {
  cs::Simulation sim;
  std::vector<int> log;
  sim.spawn(parent_task(sim, &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Task, ZeroDelaySleepDoesNotSuspendForever) {
  cs::Simulation sim;
  double woke = -1;
  sim.spawn(sleeper(sim, 0.0, &woke));
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 0.0);
}

TEST(Task, ManyConcurrentProcesses) {
  cs::Simulation sim;
  static int finished;
  finished = 0;
  auto proc = [](cs::Simulation& s, double dt) -> cs::Task {
    co_await s.sleep(dt);
    finished++;
  };
  for (int i = 0; i < 1000; ++i) sim.spawn(proc(sim, 1.0 + i * 0.001));
  sim.run();
  EXPECT_EQ(finished, 1000);
}

TEST(Task, UnfinishedTaskCleanedUpAtTeardown) {
  // A process suspended forever must be destroyed with the simulation
  // without leaking or crashing (ASAN would catch both).
  auto forever = [](cs::Simulation& s) -> cs::Task {
    co_await s.sleep(1e18);
  };
  cs::Simulation sim;
  sim.spawn(forever(sim));
  sim.run(10.0);
}

TEST(Event, TriggerWakesAllWaiters) {
  cs::Simulation sim;
  auto ev = cs::make_event();
  static int woken;
  woken = 0;
  auto waiter = [](cs::Simulation& s, cs::EventPtr e) -> cs::Task {
    co_await e->wait(s);
    woken++;
  };
  for (int i = 0; i < 5; ++i) sim.spawn(waiter(sim, ev));
  sim.schedule(2.0, [&] { ev->trigger(sim); });
  sim.run();
  EXPECT_EQ(woken, 5);
  EXPECT_TRUE(ev->fired());
}

TEST(Event, AwaitAlreadyFiredEventReturnsImmediately) {
  cs::Simulation sim;
  auto ev = cs::make_event();
  ev->trigger(sim);
  static double at;
  at = -1;
  auto waiter = [](cs::Simulation& s, cs::EventPtr e) -> cs::Task {
    co_await s.sleep(3.0);
    co_await e->wait(s);
    at = s.now();
  };
  sim.spawn(waiter(sim, ev));
  sim.run();
  EXPECT_DOUBLE_EQ(at, 3.0);
}

TEST(Event, DoubleTriggerIsIdempotent) {
  cs::Simulation sim;
  auto ev = cs::make_event();
  ev->trigger(sim);
  EXPECT_NO_THROW(ev->trigger(sim));
}

TEST(Event, WaitAll) {
  cs::Simulation sim;
  auto e1 = cs::make_event();
  auto e2 = cs::make_event();
  auto e3 = cs::make_event();
  static double done_at;
  done_at = -1;
  auto waiter = [](cs::Simulation& s, std::vector<cs::EventPtr> group) -> cs::Task {
    co_await cs::wait_all(s, std::move(group));
    done_at = s.now();
  };
  sim.spawn(waiter(sim, {e1, e2, e3}));
  sim.schedule(1.0, [&] { e2->trigger(sim); });
  sim.schedule(5.0, [&] { e1->trigger(sim); });
  sim.schedule(3.0, [&] { e3->trigger(sim); });
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST(Semaphore, LimitsConcurrency) {
  cs::Simulation sim;
  cs::Semaphore sem(2);
  static int active;
  static int peak;
  active = peak = 0;
  auto worker = [](cs::Simulation& s, cs::Semaphore* sm) -> cs::Task {
    co_await sm->acquire();
    active++;
    peak = std::max(peak, active);
    co_await s.sleep(1.0);
    active--;
    sm->release(s);
  };
  for (int i = 0; i < 10; ++i) sim.spawn(worker(sim, &sem));
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  // 10 jobs, 2 at a time, 1s each -> 5s.
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Semaphore, FifoHandoff) {
  cs::Simulation sim;
  cs::Semaphore sem(1);
  static std::vector<int> order;
  order.clear();
  auto worker = [](cs::Simulation& s, cs::Semaphore* sm, int id) -> cs::Task {
    co_await sm->acquire();
    order.push_back(id);
    co_await s.sleep(1.0);
    sm->release(s);
  };
  for (int i = 0; i < 4; ++i) sim.spawn(worker(sim, &sem, i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Latch, FiresAtZero) {
  cs::Simulation sim;
  auto done = cs::make_event();
  cs::Latch latch(3, done);
  sim.schedule(1.0, [&] { latch.count_down(sim); });
  sim.schedule(2.0, [&] { latch.count_down(sim); });
  sim.run();
  EXPECT_FALSE(done->fired());
  sim.schedule(0.0, [&] { latch.count_down(sim); });
  sim.run();
  EXPECT_TRUE(done->fired());
}
