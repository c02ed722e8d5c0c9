#pragma once
/// \file rng.hpp
/// Deterministic pseudo-random number generation for the simulation and the
/// synthetic data generators. A fixed, documented generator (xoshiro256**
/// seeded via splitmix64) keeps every experiment bit-reproducible across
/// platforms, unlike std::default_random_engine / std::normal_distribution
/// whose outputs are implementation-defined.

#include <cstdint>

namespace chase::util {

/// splitmix64 step; used for seeding and as a cheap stateless hash.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless 64-bit mix (one splitmix64 round). Good avalanche; used for
/// CRUSH-style placement draws where the "random" value must be a pure
/// function of its inputs.
std::uint64_t hash_mix(std::uint64_t x);

/// Combine two values into one hash (for (pg, osd) style draws).
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

/// FNV-1a's 64-bit offset basis: where a trace fingerprint starts.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Fold the 8 bytes of `value`, least significant first, into the FNV-1a
/// hash `h`. Event traces are fingerprinted this way: tools/determinism_check,
/// bench_chaos_connect and the tests that pin a trace.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value);

/// The IEEE-754 bits of `d`, so a double is hashed exactly.
std::uint64_t bits_of(double d);

/// xoshiro256** — fast, high-quality, reproducible PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  std::uint64_t next_u64();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_u64(std::uint64_t n);
  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal();
  double normal(double mean, double stddev);
  /// Exponential with given mean. Requires mean > 0.
  double exponential(double mean);
  /// Bernoulli trial.
  bool chance(double p);

  /// Derive an independent child generator (for per-entity streams).
  Rng fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace chase::util
