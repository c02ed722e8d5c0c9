#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <exception>

#include "util/alloc_stats.hpp"
#include "util/check.hpp"

namespace chase::sim {

namespace {
/// Initial event-heap capacity. The vector grows amortized past this; the
/// point is that steady-state churn never reallocates (the capacity sticks
/// at the high-water mark), which the zero-alloc audit in step() relies on.
/// The callback slab grows the same way, one chunk at a time.
constexpr std::size_t kInitialQueueCapacity = 1024;
}  // namespace

void SleepAwaiter::await_suspend(std::coroutine_handle<> h) const {
  sim->schedule(delay, [h] { h.resume(); });
}

std::coroutine_handle<> Task::promise_type::FinalAwaiter::await_suspend(
    Task::Handle h) noexcept {
  auto& p = h.promise();
  std::coroutine_handle<> cont =
      p.continuation ? p.continuation : std::coroutine_handle<>(std::noop_coroutine());
  if (p.owner != nullptr) {
    // Detached task: deregister and self-destroy. Destroying a coroutine that
    // is suspended at its final suspend point is well-defined.
    p.owner->unregister_detached(h.address());
    h.destroy();
  }
  return cont;
}

void Task::promise_type::unhandled_exception() {
  // Simulation processes must not leak exceptions: there is no caller stack
  // to propagate into. Treat as a programming error.
  std::fprintf(stderr, "chase::sim::Task: unhandled exception in process\n");
  std::terminate();
}

Task::~Task() {
  if (handle_) handle_.destroy();
}

Simulation::Simulation() {
  heap_.reserve(kInitialQueueCapacity);
  slab_.reserve(kInitialQueueCapacity / kSlabChunk);
}

Simulation::~Simulation() {
  // Drop pending callbacks first (they may reference coroutine frames), then
  // destroy frames that never completed. The slab itself stays allocated
  // until the members go, so a frame destructor that schedules still finds
  // valid slots.
  heap_.clear();
  for (auto& chunk : slab_) {
    for (auto& fn : chunk) fn.reset();
  }
  for (void* frame : detached_) {
    std::coroutine_handle<>::from_address(frame).destroy();
  }
}

std::uint32_t Simulation::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slab_used_ == slab_.size() * kSlabChunk) {
    // Growth pass, at a new high-water mark only: one more chunk, and free
    // list room for every slot, so releasing a slot never allocates.
    slab_.emplace_back(kSlabChunk);
    free_slots_.reserve(slab_.size() * kSlabChunk);
  }
  return slab_used_++;
}

void Simulation::schedule(double delay, util::SmallFn<void()> fn) {
  assert(delay >= 0.0 && "cannot schedule into the past");
  if (delay < 0.0) delay = 0.0;
  const std::uint32_t slot = acquire_slot();
  callback(slot) = std::move(fn);
  heap_.push_back(Key{now_ + delay, seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void Simulation::spawn(Task task) {
  Task::Handle h = task.handle_;
  task.handle_ = {};  // release ownership to the simulation
  h.promise().owner = this;
  detached_.insert(h.address());
  // Start at the next event boundary so spawn() is safe to call from
  // anywhere, including inside another process.
  schedule(0.0, [h] { h.resume(); });
}

std::uint64_t Simulation::run(double until) {
  // Checkpoint cadence: level 1 audits every `audit_interval_` events,
  // level 2 (expensive audits enabled) 8x as often.
  const int level = util::audit_level();
  const std::uint64_t interval =
      level >= 2 ? std::max<std::uint64_t>(1, audit_interval_ / 8) : audit_interval_;
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().time <= until) {
    step();
    ++n;
    if (level >= 1 && !audit_hooks_.empty() && ++events_since_audit_ >= interval) {
      events_since_audit_ = 0;
      audit_now();
    }
  }
  if (level >= 1 && !audit_hooks_.empty() && n > 0) {
    events_since_audit_ = 0;
    audit_now();  // final checkpoint: quiescent state is always audited
  }
  if (now_ < until && until < std::numeric_limits<double>::infinity()) {
    now_ = until;
  }
  return n;
}

bool Simulation::step() {
  if (heap_.empty()) return false;
  // Zero-alloc witness: with the counting hook linked (tests) and expensive
  // audits on, the dequeue machinery below — key-heap sift and pop_back —
  // must not reach the global heap. The callback body itself is covered by
  // the steady-state loop test in tests/alloc_stats_test.cpp.
  std::uint64_t news_before = 0;
  const bool audit_allocs =
      util::audit_level() >= 2 && util::alloc_stats::hooked();
  if (audit_allocs) news_before = util::alloc_stats::news();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const Key key = heap_.back();
  heap_.pop_back();
  if (audit_allocs) {
    CHASE_AUDIT(util::alloc_stats::news() == news_before,
                "event dispatch machinery allocated on the global heap");
  }
  CHASE_ASSERT(key.time + 1e-12 >= now_, "event time went backwards");
  now_ = key.time;
  ++events_processed_;
  if (trace_hook_) trace_hook_(key.time, key.seq);
  // Run the callback in place: its slot is not free until it returns, and
  // chunks never move, so anything it schedules lands elsewhere.
  util::SmallFn<void()>& fn = callback(key.slot);
  fn();
  fn.reset();
  free_slots_.push_back(key.slot);
  return true;
}

std::uint64_t Simulation::add_audit_hook(util::SmallFn<void()> hook) {
  const std::uint64_t id = next_audit_hook_id_++;
  audit_hooks_.emplace(id, std::move(hook));
  return id;
}

void Simulation::remove_audit_hook(std::uint64_t id) { audit_hooks_.erase(id); }

void Simulation::audit_now() const {
  check_invariants();
  for (const auto& [id, hook] : audit_hooks_) hook();
}

void Simulation::check_invariants() const {
  CHASE_INVARIANT(now_ >= 0.0, "virtual clock is negative");
  // The heap root is the minimum, so one comparison covers every queued entry.
  CHASE_INVARIANT(heap_.empty() || heap_.front().time >= now_ - 1e-12,
                  "event heap holds work scheduled before now()");
  // A handed-out slot is pending in the heap, free, or running: never two.
  CHASE_INVARIANT(heap_.size() + free_slots_.size() <= slab_used_,
                  "event slab slot both pending and free");
}

}  // namespace chase::sim
