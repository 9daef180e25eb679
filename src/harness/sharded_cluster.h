// Sharded deployments: N independent clusters (record space partitioned by
// key), each drained on its own thread.
//
// Each shard is a complete Cluster/TpcCluster — its own Simulator, WAN,
// replicas, and clients — owning the keys congruent to its shard id
// (WorkloadConfig::{num_shards, shard} stripes the key space). Shards never
// message each other, so Drain runs every shard to completion on its own
// thread with no synchronization beyond start and join; the aggregate
// simulates num_shards times the single-cluster population.
//
// Seeding: a single shard keeps base.seed, so ShardedCluster(base, 1) is
// exactly the serial Cluster(base) run. With two or more shards, shard s
// runs with seed Rng::ShardSeed(base.seed, s): the shard count is part of
// the seed domain, and shards=K is bit-identical run to run for fixed K.
#ifndef PLANET_HARNESS_SHARDED_CLUSTER_H_
#define PLANET_HARNESS_SHARDED_CLUSTER_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "harness/cluster.h"
#include "harness/metrics.h"
#include "harness/sweep.h"

namespace planet {

/// What one shard's load generators record. Worker-private during Drain;
/// merged in shard order afterwards.
struct WorkerContext {
  RunMetrics metrics;
};

/// N key-partitioned ClusterT shards plus their worker contexts. ClusterT
/// is Cluster or TpcCluster.
template <typename ClusterT>
class ShardedClusterT {
 public:
  using Options = typename ClusterT::Options;

  /// Builds `num_shards` clusters from `base` (seeded as described above).
  /// The caller thread owns every shard until Drain hands them to the
  /// worker threads, and owns them again after Drain returns.
  ShardedClusterT(const Options& base, int num_shards) {
    PLANET_CHECK_MSG(num_shards >= 1, "num_shards=" << num_shards);
    contexts_.resize(static_cast<size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      Options options = base;
      if (num_shards > 1) {
        options.seed = Rng::ShardSeed(base.seed, static_cast<uint64_t>(s));
      }
      shards_.push_back(std::make_unique<ClusterT>(options));
    }
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  ClusterT* shard(int s) { return shards_[static_cast<size_t>(s)].get(); }
  WorkerContext& context(int s) { return contexts_[static_cast<size_t>(s)]; }

  /// Drains every shard, one thread per shard (a single shard drains
  /// inline). Blocks until all shards are idle. Each worker touches only
  /// its own shard and releases its thread affinity before returning.
  /// Callable repeatedly (load, drain, inspect, load more, drain again).
  void Drain() {
    for (auto& cluster : shards_) cluster->DetachFromThread();
    RunOnThreads(num_shards(), [this](int s) {
      ClusterT* cluster = shard(s);
      cluster->Drain();
      cluster->DetachFromThread();
    });
  }

  /// Shard metrics merged in shard order (deterministic regardless of how
  /// the OS scheduled the workers).
  RunMetrics MergedMetrics() const {
    RunMetrics merged;
    for (const WorkerContext& ctx : contexts_) merged.Merge(ctx.metrics);
    return merged;
  }

  /// True iff every shard's replicas converged.
  bool AllConverged() const {
    for (const auto& cluster : shards_) {
      if (!cluster->ReplicasConverged()) return false;
    }
    return true;
  }

  uint64_t TotalEventsProcessed() const {
    uint64_t total = 0;
    for (const auto& cluster : shards_) {
      total += cluster->sim().events_processed();
    }
    return total;
  }

 private:
  std::vector<std::unique_ptr<ClusterT>> shards_;
  std::vector<WorkerContext> contexts_;
};

using ShardedCluster = ShardedClusterT<Cluster>;
using ShardedTpcCluster = ShardedClusterT<TpcCluster>;

}  // namespace planet

#endif  // PLANET_HARNESS_SHARDED_CLUSTER_H_
