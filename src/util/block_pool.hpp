#pragma once
/// \file block_pool.hpp
/// Size-classed free-list allocator backing the simulator's hot-path
/// objects (SmallFn overflow storage, pooled callbacks). The steady-state
/// contract is the point: after warmup every allocate() is a free-list hit
/// and the global operator new is never reached, which is what lets the
/// event loop pass the zero-alloc-per-event audit (see alloc_stats.hpp and
/// Simulation::step).
///
/// Blocks are served in power-of-two classes from 64 to 512 bytes; larger
/// requests fall through to operator new (they are setup-scale by
/// definition — the lint hot-alloc check keeps them off the hot path).
/// Free lists are capped so a burst cannot pin unbounded memory; beyond the
/// cap, blocks return to the system.
///
/// Thread-safe via a mutex: the simulation itself is single-threaded, but
/// the pool is a public process-wide singleton that any thread can reach,
/// and an uncontended lock is a few nanoseconds — noise next to the
/// allocation it replaces.

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace chase::util {

class BlockPool {
 public:
  /// The process-wide pool. Function-local static: safe across
  /// static-initialization order, alive for the whole process.
  static BlockPool& instance();

  /// A block of at least `n` bytes, max_align-aligned. Never returns null
  /// (operator new throws on exhaustion, matching global semantics).
  void* allocate(std::size_t n);

  /// Return a block obtained from allocate() with the same `n`.
  void deallocate(void* p, std::size_t n) noexcept;

  struct Stats {
    std::uint64_t hits = 0;        // served from a free list
    std::uint64_t misses = 0;      // fell through to operator new
    std::uint64_t passthrough = 0; // larger than the biggest class
    std::uint64_t outstanding = 0; // allocated minus deallocated
  };
  Stats stats() const;

  /// Drop every cached block back to the system (tests; leak hygiene).
  void trim() noexcept;

  /// Max cached blocks per class before deallocate() frees to the system.
  static constexpr std::size_t kFreeListCap = 4096;

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

 private:
  BlockPool() = default;
  /// Frees the cached blocks at static teardown — without this the free-
  /// list vectors die holding them and LeakSanitizer reports every cached
  /// block as a direct leak.
  ~BlockPool() { trim(); }

  static constexpr std::array<std::size_t, 4> kClassSizes = {64, 128, 256, 512};
  static int class_for(std::size_t n) noexcept;  // -1 => passthrough

  mutable std::mutex mu_;
  std::array<std::vector<void*>, kClassSizes.size()> free_;
  Stats stats_;
};

/// Minimal std-compatible allocator over the global BlockPool, for
/// containers and shared_ptr control blocks that churn on the hot path
/// (e.g. `std::allocate_shared<Transfer>(PoolAllocator<Transfer>{})`, the
/// per-flow map nodes in net::Network). Stateless: all instances are
/// interchangeable, so container moves/swaps are unconstrained.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    return static_cast<T*>(BlockPool::instance().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    BlockPool::instance().deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace chase::util
