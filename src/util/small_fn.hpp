#pragma once
/// \file small_fn.hpp
/// util::SmallFn — the event loop's callable type. A move-only
/// std::function replacement with a 48-byte inline buffer (libstdc++'s
/// std::function inlines only 16, so every network-transfer lambda in this
/// tree heap-allocated per scheduled event) and BlockPool-backed overflow,
/// so callables that do spill land on a recycled free list instead of the
/// global heap. This is what makes Simulation::schedule allocation-free in
/// the steady state (see the zero-alloc audit in Simulation::step and
/// tests/alloc_stats_test.cpp).
///
/// Deliberate non-goals, so the dispatch stays two loads and an indirect
/// call: no copyability, no target() introspection, no allocator plumbing.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "util/block_pool.hpp"
#include "util/check.hpp"

namespace chase::util {

template <typename Sig>
class SmallFn;  // primary left undefined: use SmallFn<R(Args...)>

template <typename R, typename... Args>
class SmallFn<R(Args...)> {
 public:
  /// Inline capacity: three captured pointers plus a double-sized tail.
  /// With its ops pointer a SmallFn is one 64-byte callback slab slot.
  static constexpr std::size_t kInline = 48;
  static_assert(kInline >= sizeof(void*),
                "spilled callables store their pool pointer in the buffer");

  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      static_assert(sizeof(D*) <= kInline && alignof(D*) <= alignof(std::max_align_t),
                    "the spill pointer itself must fit the inline buffer");
      void* mem = BlockPool::instance().allocate(sizeof(D));
      // The pointer is an *object* living in buf_, created by placement-new
      // (not by writing through a reinterpret_cast, which never starts an
      // object's lifetime); reads go through std::launder in pooled_ops.
      ::new (static_cast<void*>(buf_)) (D*)(::new (mem) D(std::forward<F>(f)));
      ops_ = pooled_ops<D>();
    }
  }

  SmallFn(SmallFn&& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        ops_ = other.ops_;
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) const {
    CHASE_ASSERT(ops_ != nullptr, "SmallFn invoked while empty");
    return ops_->invoke(const_cast<unsigned char*>(buf_),
                        std::forward<Args>(args)...);
  }

  /// True when the wrapped callable lives in the inline buffer (tests).
  bool is_inline() const noexcept { return ops_ != nullptr && !ops_->pooled; }

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInline && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    void (*relocate)(void* dst, void* src) noexcept;  // move + destroy source
    void (*destroy)(void* self) noexcept;
    bool pooled;
  };

  /// The D (inline) or D* (pooled) living in the buffer was created there
  /// by placement-new; `self` is a pointer to the *storage*, so every read
  /// must go through std::launder to reach the object within it.
  template <typename D>
  static D* stored(void* self) noexcept {
    return std::launder(reinterpret_cast<D*>(self));
  }

  template <typename D>
  static const Ops* inline_ops() noexcept {
    static constexpr Ops ops = {
        [](void* self, Args&&... args) -> R {
          return (*stored<D>(self))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
          ::new (dst) D(std::move(*stored<D>(src)));
          stored<D>(src)->~D();
        },
        [](void* self) noexcept { stored<D>(self)->~D(); },
        /*pooled=*/false};
    return &ops;
  }

  template <typename D>
  static const Ops* pooled_ops() noexcept {
    static constexpr Ops ops = {
        [](void* self, Args&&... args) -> R {
          return (**stored<D*>(self))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
          ::new (dst) (D*)(*stored<D*>(src));
          // Trivially-destructible pointer: no pseudo-destructor call needed
          // before the source buffer is reused.
        },
        [](void* self) noexcept {
          D* p = *stored<D*>(self);
          p->~D();
          BlockPool::instance().deallocate(p, sizeof(D));
        },
        /*pooled=*/true};
    return &ops;
  }

  alignas(std::max_align_t) unsigned char buf_[kInline];
  const Ops* ops_ = nullptr;
};

}  // namespace chase::util
