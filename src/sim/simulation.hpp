#pragma once
/// \file simulation.hpp
/// Deterministic single-threaded discrete-event simulation kernel.
///
/// The kernel executes callbacks ordered by (virtual time, insertion
/// sequence). On top of the raw callback queue, `task.hpp` provides C++20
/// coroutine "processes" that `co_await` virtual delays and events — the
/// style in which all CHASE-CI workloads (download workers, trainers,
/// controllers, OSD recovery, ...) are written.
///
/// The event loop is allocation-free in the steady state: callbacks are
/// util::SmallFn (48-byte inline buffer, BlockPool overflow — see
/// util/small_fn.hpp) held in a chunked slab with a free list, and the
/// priority queue is an explicit binary heap of 24-byte (time, seq, slot)
/// keys over a reserved vector, so after warmup neither scheduling nor
/// dispatching an event touches the global heap. At audit level >= 2 with
/// the alloc_stats hook linked, step() asserts this per event.

#include <coroutine>
#include <cstdint>
#include <limits>
#include <map>
#include <unordered_set>
#include <vector>

#include "util/small_fn.hpp"

namespace chase::sim {

class Simulation;

/// An awaitable virtual-time delay; produced by Simulation::sleep().
struct SleepAwaiter {
  Simulation* sim;
  double delay;
  bool await_ready() const noexcept { return delay <= 0.0; }
  void await_suspend(std::coroutine_handle<> h) const;
  void await_resume() const noexcept {}
};

/// Fire-and-forget coroutine process. A Task is either:
///  * awaited by a parent coroutine (`co_await child()`), in which case the
///    parent owns the frame and resumes when the child finishes, or
///  * spawned detached via Simulation::spawn(), in which case the frame
///    destroys itself on completion (or at Simulation teardown).
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::coroutine_handle<> continuation{};
    Simulation* owner = nullptr;  // set when spawned detached
    Task get_return_object() { return Task{Handle::from_promise(*this)}; }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception();
  };

  Task(Task&& other) noexcept : handle_(other.handle_) { other.handle_ = {}; }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task();

  bool valid() const { return static_cast<bool>(handle_); }

  /// Awaiting a Task starts it and suspends the awaiter until it returns.
  /// Awaiting a temporary is safe: temporaries alive across a suspension
  /// point are stored in the awaiting coroutine's frame.
  struct Awaiter {
    Handle child;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
      child.promise().continuation = parent;
      return child;  // symmetric transfer into the child
    }
    void await_resume() const noexcept {}
  };
  Awaiter operator co_await() { return Awaiter{handle_}; }

 private:
  friend class Simulation;
  explicit Task(Handle h) : handle_(h) {}
  Handle handle_{};
};

/// The event queue + virtual clock.
class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  double now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  /// SmallFn converts from any callable; captures beyond 48 bytes land in
  /// the BlockPool rather than the global heap.
  void schedule(double delay, util::SmallFn<void()> fn);

  /// Awaitable delay for coroutine processes.
  SleepAwaiter sleep(double delay) { return SleepAwaiter{this, delay}; }

  /// Start a detached coroutine process. The frame self-destroys when the
  /// coroutine returns; any frames still suspended when the Simulation is
  /// destroyed are destroyed with it.
  void spawn(Task task);

  /// Run until the queue drains or `until` is reached (whichever first).
  /// Returns the number of events processed in this call.
  std::uint64_t run(double until = std::numeric_limits<double>::infinity());

  /// Process a single event; returns false if the queue is empty.
  bool step();

  std::uint64_t events_processed() const { return events_processed_; }
  bool empty() const { return heap_.empty(); }

  // --- invariant-audit checkpoints ------------------------------------------
  //
  // Stateful subsystems (kube, ceph, redis, net, ...) register their
  // check_invariants() here at construction; run() calls every hook after
  // each `audit_interval()` processed events while the audit level is >= 1
  // (see util/check.hpp). Hooks must be read-only over simulation state.

  /// Register an audit hook; returns an id for remove_audit_hook().
  std::uint64_t add_audit_hook(util::SmallFn<void()> hook);
  void remove_audit_hook(std::uint64_t id);
  std::size_t audit_hook_count() const { return audit_hooks_.size(); }

  /// Events between checkpoints (default 1024). Level 2 runs hooks every
  /// `interval / 8` events so expensive audits see more boundaries.
  void set_audit_interval(std::uint64_t interval) { audit_interval_ = interval; }
  std::uint64_t audit_interval() const { return audit_interval_; }
  /// Run every registered audit hook immediately (also called by run()).
  void audit_now() const;

  /// Kernel self-check: virtual time is non-negative and the event heap
  /// never holds work scheduled before `now()`.
  void check_invariants() const;

  /// Observe every processed event as (virtual time, sequence number) —
  /// the event trace hashed by tools/determinism_check. Pass {} to clear.
  void set_trace_hook(util::SmallFn<void(double time, std::uint64_t seq)> hook) {
    trace_hook_ = std::move(hook);
  }

 private:
  friend struct Task::promise_type;
  void unregister_detached(void* frame) { detached_.erase(frame); }

  /// Heap key of one pending event. Sifts move these 24 bytes only; the
  /// callback stays put in its slab slot until it runs.
  struct Key {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const Key& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  /// Slab slots per chunk. Chunks never move or shrink, so a callback's
  /// address is stable while it runs, even if it schedules and the slab
  /// grows another chunk.
  static constexpr std::uint32_t kSlabChunkBits = 8;
  static constexpr std::uint32_t kSlabChunk = 1u << kSlabChunkBits;

  util::SmallFn<void()>& callback(std::uint32_t slot) {
    return slab_[slot >> kSlabChunkBits][slot & (kSlabChunk - 1)];
  }
  std::uint32_t acquire_slot();

  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  // Explicit min-heap (std::push_heap/pop_heap over a reserved vector).
  // (time, seq) keys are unique, so any correct min-heap pops the same
  // sequence: replay hashes do not depend on the heap's layout.
  std::vector<Key> heap_;
  // Callback slab: fixed-size chunks plus a LIFO free list of released
  // slots. Slots past `slab_used_` in the last chunk were never handed out.
  std::vector<std::vector<util::SmallFn<void()>>> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slab_used_ = 0;
  std::unordered_set<void*> detached_;

  std::map<std::uint64_t, util::SmallFn<void()>> audit_hooks_;  // ordered: determinism
  std::uint64_t next_audit_hook_id_ = 0;
  std::uint64_t audit_interval_ = 1024;
  std::uint64_t events_since_audit_ = 0;
  util::SmallFn<void(double, std::uint64_t)> trace_hook_;
};

}  // namespace chase::sim
