#include "common/rng.h"

#include <cmath>

namespace planet {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97f4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // Avoid the all-zero state (astronomically unlikely but cheap to guard).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  PLANET_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return lo + static_cast<int64_t>(Next() % span);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double mean) {
  PLANET_CHECK(mean > 0.0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 1e-18;
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) u1 = 1e-18;
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

double Rng::Lognormal(double median, double sigma) {
  PLANET_CHECK(median > 0.0);
  return median * std::exp(Normal(0.0, sigma));
}

uint64_t Rng::ShardSeed(uint64_t global_seed, uint64_t shard) {
  // Finalize the global seed through a full splitmix64 avalanche *before*
  // combining it with the shard id, then finalize again. Mixing the raw
  // seed with the shard arithmetically would leave additive structure that
  // lets (seed, shard) and (seed + 1, shard - 1) cancel into the same
  // stream; hashing first destroys that structure (every seed bit affects
  // every mixed bit), and the golden-ratio multiply spreads small shard
  // ids across the word, exactly like Fork's tag mixing.
  uint64_t sm = global_seed;
  uint64_t h = SplitMix64(sm);
  uint64_t mix =
      h ^ (shard * 0x9E3779B97f4A7C15ULL + 0xD1B54A32D192ED03ULL);
  return SplitMix64(mix);
}

Rng Rng::Fork(uint64_t tag) const {
  // Derive a new seed deterministically from (seed, tag) without disturbing
  // this stream's state.
  uint64_t mix = seed_ ^ (tag * 0x9E3779B97f4A7C15ULL + 0xD1B54A32D192ED03ULL);
  uint64_t sm = mix;
  return Rng(SplitMix64(sm));
}

double ZipfGenerator::Zeta(uint64_t n, double theta) {
  // Exact for small n; Euler-Maclaurin style approximation for large n keeps
  // construction O(1) for billion-key spaces.
  if (n <= 1000000) {
    double sum = 0.0;
    for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
    return sum;
  }
  double z = Zeta(1000000, theta);
  // Integral tail approximation of sum_{i=10^6+1}^{n} i^-theta.
  z += (std::pow(double(n), 1.0 - theta) -
        std::pow(1000000.0, 1.0 - theta)) /
       (1.0 - theta);
  return z;
}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
  PLANET_CHECK(n >= 1);
  PLANET_CHECK(theta >= 0.0);
  if (theta_ == 1.0) theta_ = 0.9999;
  if (theta_ == 0.0) return;  // Next never reads the constants below
  // Set-up builds one generator per client over the same key space, and
  // the sum costs one std::pow per key, so each thread keeps its last one.
  struct LastZeta {
    uint64_t n = 0;
    double theta = 0.0;
    double zeta = 0.0;
  };
  thread_local LastZeta last;
  if (last.n != n_ || last.theta != theta_) {
    last = LastZeta{n_, theta_, Zeta(n_, theta_)};
  }
  zetan_ = last.zeta;
  zeta2_ = Zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / double(n_), 1.0 - theta_)) /
         (1.0 - zeta2_ / zetan_);
}

uint64_t ZipfGenerator::Next(Rng& rng) const {
  if (theta_ == 0.0) return rng.Next() % n_;  // uniform special case
  double u = rng.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  uint64_t v = static_cast<uint64_t>(
      double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (v >= n_) v = n_ - 1;
  return v;
}

}  // namespace planet
