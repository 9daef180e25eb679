// Workload generation: key distributions, transaction mixes, and load
// generators (closed-loop client populations and open-loop Poisson arrivals).
#ifndef PLANET_WORKLOAD_WORKLOAD_H_
#define PLANET_WORKLOAD_WORKLOAD_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace planet {

/// How keys are drawn for each access.
enum class KeyDist {
  kUniform,
  kZipf,     ///< YCSB-style zipfian over the whole key space
  kHotspot,  ///< `hot_fraction` of accesses hit the first `hot_keys` keys
};

/// Shape of the transactions a driver issues.
struct WorkloadConfig {
  uint64_t num_keys = 100000;
  KeyDist dist = KeyDist::kUniform;
  double zipf_theta = 0.99;
  uint64_t hot_keys = 100;
  double hot_fraction = 0.9;

  /// Keys read but not written per transaction.
  int reads_per_txn = 2;
  /// Keys read-modify-written per transaction (value := value + 1).
  int writes_per_txn = 2;
  /// Use commutative Add options instead of physical RMW writes.
  bool commutative = false;

  /// Sharded runs: this chooser emits only the keys owned by `shard` out of
  /// `num_shards`, striped round-robin (shard s owns keys congruent to s
  /// mod num_shards). Striping — rather than contiguous ranges — keeps the
  /// per-shard popularity profile of zipf/hotspot identical to the global
  /// one: the globally hottest keys spread one per shard, and rank r within
  /// a shard maps to global rank ~r*num_shards. Defaults preserve the
  /// unsharded behaviour bit-for-bit.
  int num_shards = 1;
  int shard = 0;
};

/// What KeyChooser and the transaction runners require of a config: at
/// least one key, zipf theta >= 0, a hot fraction in [0, 1], reads and
/// writes >= 0, and a shard that owns at least one key and as many keys as
/// one transaction draws (reads + writes, all distinct). They abort on a
/// config it rejects, so tools check every config from user input first.
[[nodiscard]] Status ValidateWorkload(const WorkloadConfig& config);

/// Draws distinct keys according to the configured distribution.
class KeyChooser {
 public:
  explicit KeyChooser(const WorkloadConfig& config);

  /// One key.
  Key Next(Rng& rng) const;

  /// `n` distinct keys (resamples on collision; n must be << num_keys for
  /// uniform/zipf; for tiny hotspot sets it falls back to scanning).
  std::vector<Key> NextDistinct(Rng& rng, int n) const;

 private:
  /// Global key for the shard-local popularity rank (rank 0 = the shard's
  /// hottest key). Identity when unsharded.
  Key MapRank(uint64_t rank) const {
    return rank * static_cast<uint64_t>(config_.num_shards) +
           static_cast<uint64_t>(config_.shard);
  }

  WorkloadConfig config_;
  uint64_t span_;      ///< keys this shard owns
  uint64_t hot_span_;  ///< of those, globally-hot ones (hotspot dist)
  ZipfGenerator zipf_;
};

/// Outcome of one driven transaction, as a workload driver sees it.
struct TxnResult {
  Status status;
  Duration latency = 0;       ///< begin -> definitive outcome
  Duration user_latency = 0;  ///< begin -> first user notification
  bool speculative = false;   ///< user notification was a speculation
  bool early_abort = false;   ///< killed by predictive early abort (F11)
};

/// A function that runs one transaction and reports its result exactly once.
using TxnRunner = std::function<void(std::function<void(TxnResult)>)>;

/// Drives a TxnRunner either closed-loop (one outstanding transaction per
/// generator, optional exponential think time) or open-loop (Poisson
/// arrivals at `rate_per_sec`, possibly many outstanding).
class LoadGenerator {
 public:
  struct Options {
    Duration think_time_mean = 0;  ///< closed loop: mean think time
    double rate_per_sec = 0;       ///< > 0 switches to open loop

    /// Closed loop: number of independent client sessions this generator
    /// multiplexes (each is its own think/issue chain, so one generator
    /// object can stand in for a whole client population — the mega-scale
    /// benches run ~10^6 sessions through a handful of generators).
    uint64_t sessions = 1;

    /// Closed loop: start each session after an initial exponential think
    /// pause instead of all at t=0, so huge populations ramp into their
    /// steady state rather than issuing a simultaneous thundering herd.
    /// Off by default — existing experiments start at t=0 and their golden
    /// histories must not move.
    bool stagger_start = false;
  };

  LoadGenerator(Simulator* sim, Rng rng, TxnRunner runner, Options options);

  /// Starts issuing transactions until `end_time` (simulated).
  void Start(SimTime end_time);

  uint64_t issued() const { return issued_; }
  uint64_t finished() const { return finished_; }

  /// Installs a sink that sees every TxnResult (metrics collection).
  void SetResultSink(std::function<void(const TxnResult&)> sink);

 private:
  void IssueClosedLoop();
  void ScheduleNextArrival();
  void RunOne();

  Simulator* sim_;
  Rng rng_;
  TxnRunner runner_;
  Options options_;
  SimTime end_time_ = 0;
  uint64_t issued_ = 0;
  uint64_t finished_ = 0;
  std::function<void(const TxnResult&)> sink_;
};

}  // namespace planet

#endif  // PLANET_WORKLOAD_WORKLOAD_H_
