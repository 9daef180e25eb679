// ShardedCluster: key-partitioned parallel deployments. Checks the
// properties drivers lean on — one shard is exactly the serial run,
// run-to-run determinism of the merged metrics (across repeated Drains
// too), key-space partitioning (shards really are disjoint), and the seed
// domain (shard seeds differ from each other and from the base).
#include "harness/sharded_cluster.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "workload/runners.h"
#include "workload/workload.h"

namespace planet {
namespace {

struct MergedSnapshot {
  uint64_t committed;
  uint64_t aborted;
  uint64_t unavailable;
  uint64_t finished;
  uint64_t early_aborts;
  uint64_t events;
  Duration p50;
  Duration p99;

  bool operator==(const MergedSnapshot& o) const {
    return committed == o.committed && aborted == o.aborted &&
           unavailable == o.unavailable && finished == o.finished &&
           early_aborts == o.early_aborts && events == o.events &&
           p50 == o.p50 && p99 == o.p99;
  }
};

MergedSnapshot Snapshot(const RunMetrics& merged, uint64_t events) {
  MergedSnapshot snap;
  snap.committed = merged.committed;
  snap.aborted = merged.aborted;
  snap.unavailable = merged.unavailable;
  snap.finished = merged.finished();
  snap.early_aborts = merged.early_aborts;
  snap.events = events;
  snap.p50 = merged.latency_all.Percentile(50);
  snap.p99 = merged.latency_all.Percentile(99);
  return snap;
}

ClusterOptions BaseOptions(uint64_t seed = 4242) {
  ClusterOptions base;
  base.seed = seed;
  base.clients_per_dc = 1;
  return base;
}

/// Uniform over 1,000 keys; AddLoad sets the shard fields.
WorkloadConfig BaseKeys() {
  WorkloadConfig wl;
  wl.num_keys = 1000;
  return wl;
}

/// The contended early-abort regime: the kill gauge is armed, so every vote
/// and option decision re-runs the estimator, and reaches its memo, on the
/// shard's own thread.
ClusterOptions EarlyAbortOptions() {
  ClusterOptions options = BaseOptions();
  options.clients_per_dc = 4;
  options.planet.kill_threshold = 0.95;
  return options;
}

WorkloadConfig ZipfKeys() {
  WorkloadConfig wl = BaseKeys();
  wl.dist = KeyDist::kZipf;
  wl.zipf_theta = 0.9;
  return wl;
}

/// Starts one PLANET load generator per client of `cluster` (shard `shard`
/// of `num_shards`), drawing from `keys`, issuing for `run` from the
/// cluster's current time and recording into `metrics`. `tag` separates the
/// RNG streams of successive load phases.
void AddLoad(Cluster* cluster, const WorkloadConfig& keys, int shard,
             int num_shards, Duration run, uint64_t tag, RunMetrics* metrics,
             std::vector<std::unique_ptr<LoadGenerator>>* generators) {
  PlanetRunnerPolicy policy;
  policy.speculation_deadline = Millis(250);
  policy.speculate_threshold = 0.9;

  LoadGenerator::Options load;
  load.think_time_mean = Millis(50);

  WorkloadConfig wl = keys;
  wl.num_shards = num_shards;
  wl.shard = shard;
  for (int i = 0; i < cluster->num_clients(); ++i) {
    auto gen = std::make_unique<LoadGenerator>(
        &cluster->sim(), cluster->ForkRng(tag + i),
        MakePlanetRunner(cluster->planet_client(i), wl,
                         cluster->ForkRng(tag + 1000 + i), policy),
        load);
    gen->SetResultSink(metrics->Sink());
    gen->Start(cluster->sim().Now() + run);
    generators->push_back(std::move(gen));
  }
}

/// Loads every shard for `run`, then drains.
void LoadAndDrain(ShardedCluster& sharded, const WorkloadConfig& keys,
                  Duration run, uint64_t tag,
                  std::vector<std::unique_ptr<LoadGenerator>>* generators) {
  for (int s = 0; s < sharded.num_shards(); ++s) {
    AddLoad(sharded.shard(s), keys, s, sharded.num_shards(), run, tag,
            &sharded.context(s).metrics, generators);
  }
  sharded.Drain();
  EXPECT_TRUE(sharded.AllConverged());
}

MergedSnapshot RunShardedPlanet(int num_shards,
                                const ClusterOptions& options = BaseOptions(),
                                const WorkloadConfig& keys = BaseKeys()) {
  ShardedCluster sharded(options, num_shards);
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  LoadAndDrain(sharded, keys, Seconds(5), 7000, &generators);
  return Snapshot(sharded.MergedMetrics(), sharded.TotalEventsProcessed());
}

/// A serial Cluster and a one-shard ShardedCluster run the same load.
void ExpectOneShardIsTheSerialRun(const ClusterOptions& options,
                                  const WorkloadConfig& keys) {
  Cluster cluster(options);
  RunMetrics metrics;
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  AddLoad(&cluster, keys, 0, 1, Seconds(5), 7000, &metrics, &generators);
  cluster.Drain();
  MergedSnapshot serial = Snapshot(metrics, cluster.sim().events_processed());

  MergedSnapshot one = RunShardedPlanet(1, options, keys);
  EXPECT_GT(one.committed, 0u);
  EXPECT_EQ(one, serial);
}

/// Load, drain, load more, drain again, on four worker threads each time:
/// the second phase starts from the state the first left behind.
std::vector<MergedSnapshot> RunTwoPhases(const ClusterOptions& options,
                                         const WorkloadConfig& keys) {
  ShardedCluster sharded(options, 4);
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  LoadAndDrain(sharded, keys, Seconds(3), 7000, &generators);
  MergedSnapshot first =
      Snapshot(sharded.MergedMetrics(), sharded.TotalEventsProcessed());
  LoadAndDrain(sharded, keys, Seconds(3), 9000, &generators);
  MergedSnapshot second =
      Snapshot(sharded.MergedMetrics(), sharded.TotalEventsProcessed());
  EXPECT_GT(second.committed, first.committed);
  EXPECT_GT(second.events, first.events);
  return {first, second};
}

TEST(ShardedCluster, TwoShardsRunTwiceBitIdentical) {
  MergedSnapshot first = RunShardedPlanet(2);
  EXPECT_GT(first.committed, 0u);
  EXPECT_GT(first.events, 0u);
  EXPECT_EQ(RunShardedPlanet(2), first);
}

// Eight worker threads at once: the determinism check at the widest shard
// count the byte-identity suite runs, and the TSan tier's busiest schedule.
TEST(ShardedStress, EightShardsRepeatedRunsIdentical) {
  MergedSnapshot first = RunShardedPlanet(8);
  EXPECT_GT(first.committed, 0u);
  for (int i = 0; i < 2; ++i) EXPECT_EQ(RunShardedPlanet(8), first);
}

TEST(ShardedStress, DifferentSeedsDiverge) {
  // Sanity that the snapshot is actually sensitive to the seed.
  EXPECT_FALSE(RunShardedPlanet(4, BaseOptions(1)) ==
               RunShardedPlanet(4, BaseOptions(2)));
}

TEST(ShardedCluster, OneShardIsTheSerialRun) {
  ExpectOneShardIsTheSerialRun(BaseOptions(), BaseKeys());
}

TEST(ShardedCluster, RepeatedDrainsAreBitIdentical) {
  EXPECT_EQ(RunTwoPhases(BaseOptions(), BaseKeys()),
            RunTwoPhases(BaseOptions(), BaseKeys()));
}

TEST(ShardedCluster, EarlyAbortOneShardIsTheSerialRun) {
  ExpectOneShardIsTheSerialRun(EarlyAbortOptions(), ZipfKeys());
}

TEST(ShardedCluster, EarlyAbortRepeatedDrainsAreBitIdentical) {
  std::vector<MergedSnapshot> first =
      RunTwoPhases(EarlyAbortOptions(), ZipfKeys());
  EXPECT_GT(first.back().early_aborts, 0u) << "the kill gauge never fired";
  EXPECT_EQ(RunTwoPhases(EarlyAbortOptions(), ZipfKeys()), first);
}

TEST(ShardedCluster, ShardCountIsPartOfTheSeedDomain) {
  // With two or more shards, shard s runs ShardSeed(seed, s), so shard
  // count K is its own experiment; only a single shard keeps the base seed.
  ClusterOptions base = BaseOptions();
  for (int num_shards : {2, 3}) {
    ShardedCluster sharded(base, num_shards);
    for (int s = 0; s < num_shards; ++s) {
      EXPECT_EQ(sharded.shard(s)->options().seed,
                Rng::ShardSeed(base.seed, static_cast<uint64_t>(s)));
    }
  }
  MergedSnapshot two = RunShardedPlanet(2);
  MergedSnapshot three = RunShardedPlanet(3);
  EXPECT_GT(two.committed, 0u);
  EXPECT_GT(three.committed, 0u);
  EXPECT_FALSE(two == three);
}

TEST(ShardedCluster, ShardSeedsAreDistinct) {
  ClusterOptions base;
  base.seed = 7;
  std::set<uint64_t> seeds;
  for (int s = 0; s < 4; ++s) {
    seeds.insert(Rng::ShardSeed(base.seed, static_cast<uint64_t>(s)));
  }
  EXPECT_EQ(seeds.size(), 4u);
  EXPECT_EQ(seeds.count(base.seed), 0u)
      << "no shard of a multi-shard run may reuse the base seed (the "
         "serial run owns it)";
}

TEST(KeyChooserSharding, EmitsOnlyOwnedKeysAndCoversAllShards) {
  constexpr int kShards = 4;
  constexpr uint64_t kKeys = 1000;
  for (auto dist : {KeyDist::kUniform, KeyDist::kZipf, KeyDist::kHotspot}) {
    std::set<Key> seen;
    for (int s = 0; s < kShards; ++s) {
      WorkloadConfig wl;
      wl.num_keys = kKeys;
      wl.dist = dist;
      wl.num_shards = kShards;
      wl.shard = s;
      KeyChooser chooser(wl);
      Rng rng(123);
      for (int i = 0; i < 2000; ++i) {
        Key k = chooser.Next(rng);
        ASSERT_LT(k, kKeys);
        ASSERT_EQ(k % kShards, static_cast<Key>(s))
            << "dist " << static_cast<int>(dist) << " leaked a foreign key";
        seen.insert(k);
      }
      // NextDistinct stays inside the shard too.
      for (Key k : chooser.NextDistinct(rng, 8)) {
        ASSERT_EQ(k % kShards, static_cast<Key>(s));
      }
    }
    EXPECT_GT(seen.size(), 100u);
  }
}

TEST(KeyChooserSharding, UnshardedDrawSequenceUnchanged) {
  // num_shards=1 must be the bit-identical historical behaviour — the
  // serial goldens depend on the exact draw sequence. Pin it against a
  // manual reimplementation of the uniform path.
  WorkloadConfig wl;
  wl.num_keys = 777;
  KeyChooser chooser(wl);
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(chooser.Next(a), Key(b.Next() % 777));
  }
}

TEST(LoadGeneratorSessions, MultiplexedSessionsIssueIndependently) {
  // A generator with `sessions = K` and no think time drives K concurrent
  // closed-loop chains: with an instant runner each session issues once per
  // completion, so issued counts scale with K.
  Simulator sim;
  uint64_t runs = 0;
  TxnRunner instant = [&sim, &runs](std::function<void(TxnResult)> done) {
    ++runs;
    sim.Schedule(Micros(10), [done = std::move(done)] {
      done(TxnResult{});  // default Status is Ok
    });
  };
  LoadGenerator::Options opts;
  opts.think_time_mean = Micros(90);
  opts.sessions = 16;
  LoadGenerator gen(&sim, Rng(5), instant, opts);
  gen.Start(Millis(10));
  sim.Run();
  // 16 sessions, ~100us per think+txn cycle over 10ms => ~1600 issues.
  EXPECT_GT(gen.issued(), 800u);
  EXPECT_EQ(gen.issued(), gen.finished());

  // And a single-session generator issues roughly 1/16th of that.
  Simulator sim2;
  uint64_t runs2 = 0;
  TxnRunner instant2 = [&sim2, &runs2](std::function<void(TxnResult)> done) {
    ++runs2;
    sim2.Schedule(Micros(10), [done = std::move(done)] {
      done(TxnResult{});  // default Status is Ok
    });
  };
  LoadGenerator::Options single = opts;
  single.sessions = 1;
  LoadGenerator gen2(&sim2, Rng(5), instant2, single);
  gen2.Start(Millis(10));
  sim2.Run();
  EXPECT_LT(gen2.issued() * 8, gen.issued());
}

TEST(LoadGeneratorSessions, StaggeredStartRampsIn) {
  Simulator sim;
  std::vector<SimTime> first_issue_times;
  TxnRunner recorder = [&](std::function<void(TxnResult)> done) {
    first_issue_times.push_back(sim.Now());
    // Never completes: we only observe the session start ramp.
    (void)done;
  };
  LoadGenerator::Options opts;
  opts.think_time_mean = Millis(1);
  opts.sessions = 64;
  opts.stagger_start = true;
  LoadGenerator gen(&sim, Rng(11), recorder, opts);
  gen.Start(Seconds(1));
  sim.Run();
  ASSERT_EQ(first_issue_times.size(), 64u);
  std::set<SimTime> distinct(first_issue_times.begin(),
                             first_issue_times.end());
  EXPECT_GT(distinct.size(), 32u) << "sessions should not start in lockstep";
}

}  // namespace
}  // namespace planet
