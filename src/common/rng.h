// Deterministic random number generation and the distributions used by the
// simulator and workloads. Not std::mt19937-based so that streams are cheap
// to fork and bit-identical across platforms.
#ifndef PLANET_COMMON_RNG_H_
#define PLANET_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace planet {

/// xoshiro256** PRNG seeded via splitmix64. Deterministic and forkable:
/// `Fork(tag)` derives an independent stream, used to give every node its own
/// stream from a single experiment seed.
// Sharded runs give every worker a private Rng (Rng::ShardSeed stream);
// instances are never shared across threads, so there is nothing to guard.
class Rng {  // planet-lint: allow(shard-unchecked)
 public:
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Exponential with the given mean (> 0).
  double Exponential(double mean);

  /// Standard normal via Box-Muller.
  double Normal(double mean, double stddev);

  /// Lognormal such that the *median* of samples is `median` and sigma is the
  /// shape parameter of the underlying normal. Used for WAN jitter.
  double Lognormal(double median, double sigma);

  /// Derives an independent deterministic stream.
  Rng Fork(uint64_t tag) const;

  uint64_t seed() const { return seed_; }

  /// Derives the seed for one shard of a sharded run: a full splitmix64
  /// finalizer pass over each half of the (global_seed, shard) pair, chained
  /// so both halves diffuse into the result. Plain `seed + shard` would make
  /// shard streams collide across experiments — ShardSeed(s, 1) ==
  /// (s+1) + 0 — i.e. shard 1 of seed s replays shard 0 of seed s+1.
  /// ShardSeed makes the shard count part of the seed domain: the same
  /// global seed at different shard counts is a different (still
  /// deterministic) experiment. Stream independence is pinned by
  /// tests/common/rng_test.cc.
  static uint64_t ShardSeed(uint64_t global_seed, uint64_t shard);

 private:
  uint64_t seed_;
  uint64_t s_[4];
};

/// Zipfian generator over [0, n) with parameter theta (0 = uniform,
/// typical YCSB theta = 0.99). Uses the Gray et al. method: O(1) per sample
/// after a set-up that sums min(n, 10^6) terms of zeta (closed-form tail
/// beyond). Each thread keeps its last sum, so building generators for the
/// same (n, theta) repeats none of it; theta 0 sums nothing.
class ZipfGenerator {
 public:
  /// Requires n >= 1 and theta in [0, 1) U (1, ...); theta == 1 is
  /// approximated by 0.9999 to keep the closed form defined.
  ZipfGenerator(uint64_t n, double theta);

  /// Next sample in [0, n). Rank 0 is the most popular item.
  uint64_t Next(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  // Unset at theta 0, where Next draws uniformly.
  double alpha_ = 0.0;
  double zetan_ = 0.0;
  double eta_ = 0.0;
  double zeta2_ = 0.0;
};

}  // namespace planet

#endif  // PLANET_COMMON_RNG_H_
