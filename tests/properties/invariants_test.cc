// Property-based sweeps: the protocol invariants must hold for every seed,
// contention level, master placement, and option kind.
//
// Invariants checked after every run (quiesced cluster):
//   I1  Convergence: all replicas hold identical committed state, no pending
//       or deferred options remain.
//   I2  No lost updates: with +1 RMW increments, the sum of all values
//       equals committed transactions x write-set size (physical), or the
//       sum of committed deltas (commutative).
//   I3  Progress: a non-trivial number of transactions commits.
//   I4  Accounting: committed + aborted + unavailable == finished.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "harness/metrics.h"
#include "workload/runners.h"

namespace planet {
namespace {

struct SweepParam {
  uint64_t seed;
  uint64_t num_keys;   // smaller => hotter
  bool commutative;
  int master_dc;       // -1 hashed
  bool enable_classic;
  double loss = 0.0;            // WAN retransmission probability
  int service_cost_us = 0;      // replica CPU per message
  bool force_classic = false;

  friend std::ostream& operator<<(std::ostream& os, const SweepParam& p) {
    os << "seed" << p.seed << "_keys" << p.num_keys << "_"
       << (p.commutative ? "comm" : "phys") << "_m";
    if (p.master_dc < 0) {
      os << "hashed";
    } else {
      os << p.master_dc;
    }
    os << (p.enable_classic ? "_classic" : "_fastonly");
    if (p.loss > 0) os << "_loss" << int(p.loss * 100);
    if (p.service_cost_us > 0) os << "_cpu" << p.service_cost_us;
    if (p.force_classic) os << "_forced";
    return os;
  }
};

class MdccInvariants : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MdccInvariants, HoldUnderLoad) {
  const SweepParam& param = GetParam();
  ClusterOptions options;
  options.seed = param.seed;
  options.mdcc.master_dc = param.master_dc;
  options.mdcc.enable_classic = param.enable_classic;
  options.mdcc.force_classic = param.force_classic;
  options.mdcc.replica_service_cost = Micros(param.service_cost_us);
  options.wan.loss_prob = param.loss;
  options.clients_per_dc = 3;
  Cluster cluster(options);

  WorkloadConfig wl;
  wl.num_keys = param.num_keys;
  wl.reads_per_txn = 1;
  wl.writes_per_txn = 2;
  wl.commutative = param.commutative;

  RunMetrics metrics;
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    auto gen = std::make_unique<LoadGenerator>(
        &cluster.sim(), cluster.ForkRng(100 + i),
        MakeMdccRunner(cluster.client(i), wl, cluster.ForkRng(200 + i)),
        LoadGenerator::Options{});
    gen->SetResultSink(metrics.Sink());
    gen->Start(Seconds(15));
    generators.push_back(std::move(gen));
  }
  cluster.Drain();

  // I1: convergence.
  EXPECT_TRUE(cluster.ReplicasConverged());

  // I2: no lost updates.
  Value total = 0;
  for (const auto& [key, view] : cluster.replica(0)->store().Snapshot()) {
    total += view.value;
  }
  EXPECT_EQ(total, static_cast<Value>(metrics.committed * 2));

  // I3: progress.
  EXPECT_GT(metrics.committed, 10u);
  if (param.commutative) {
    EXPECT_EQ(metrics.aborted, 0u)
        << "commutative options never conflict with each other";
  }

  // I4: accounting.
  uint64_t finished = 0;
  for (const auto& gen : generators) finished += gen->finished();
  EXPECT_EQ(finished, metrics.finished());
  EXPECT_EQ(metrics.unavailable, 0u) << "no partitions in this sweep";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MdccInvariants,
    ::testing::Values(
        // Low contention, both kinds, hashed masters.
        SweepParam{1, 100000, false, -1, true},
        SweepParam{2, 100000, true, -1, true},
        // Medium contention.
        SweepParam{3, 500, false, -1, true},
        SweepParam{4, 500, true, -1, true},
        // Heavy contention (hot 30-key space).
        SweepParam{5, 30, false, -1, true},
        SweepParam{6, 30, true, -1, true},
        SweepParam{7, 30, false, -1, true},
        // Single-DC masters.
        SweepParam{8, 500, false, 0, true},
        SweepParam{9, 30, false, 2, true},
        // Fast path only (no classic rescue).
        SweepParam{10, 500, false, -1, false},
        SweepParam{11, 30, false, -1, false},
        // More seeds at the nastiest setting.
        SweepParam{12, 30, false, -1, true},
        SweepParam{13, 30, true, -1, true},
        // Lossy WAN (retransmission-modelled).
        SweepParam{14, 500, false, -1, true, 0.05},
        SweepParam{15, 30, false, -1, true, 0.10},
        SweepParam{16, 30, true, -1, true, 0.10},
        // Saturable replica CPUs.
        SweepParam{17, 500, false, -1, true, 0.0, 500},
        SweepParam{18, 30, false, -1, true, 0.0, 500},
        // Forced classic path, contended + lossy.
        SweepParam{19, 500, false, -1, true, 0.0, 0, true},
        SweepParam{20, 30, false, -1, true, 0.05, 0, true}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

/// PLANET-layer sweep: speculation accounting invariants.
struct PlanetParam {
  uint64_t seed;
  uint64_t num_keys;
  double threshold;
  double admission_tau = 0.0;

  friend std::ostream& operator<<(std::ostream& os, const PlanetParam& p) {
    os << "seed" << p.seed << "_keys" << p.num_keys << "_thr"
       << int(p.threshold * 100);
    if (p.admission_tau > 0) os << "_adm" << int(p.admission_tau * 100);
    return os;
  }
};

class PlanetInvariants : public ::testing::TestWithParam<PlanetParam> {};

TEST_P(PlanetInvariants, SpeculationAccountingConsistent) {
  const PlanetParam& param = GetParam();
  ClusterOptions options;
  options.seed = param.seed;
  options.clients_per_dc = 2;
  options.planet.enable_admission = param.admission_tau > 0;
  options.planet.admission_threshold = param.admission_tau;
  Cluster cluster(options);

  WorkloadConfig wl;
  wl.num_keys = param.num_keys;
  wl.reads_per_txn = 1;
  wl.writes_per_txn = 1;

  PlanetRunnerPolicy policy;
  policy.speculation_deadline = Millis(60);
  policy.speculate_threshold = param.threshold;
  policy.give_up_below = true;

  RunMetrics metrics;
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    auto gen = std::make_unique<LoadGenerator>(
        &cluster.sim(), cluster.ForkRng(300 + i),
        MakePlanetRunner(cluster.planet_client(i), wl,
                         cluster.ForkRng(400 + i), policy),
        LoadGenerator::Options{});
    gen->SetResultSink(metrics.Sink());
    gen->Start(Seconds(15));
    generators.push_back(std::move(gen));
  }
  cluster.Drain();

  const PlanetStats& stats = cluster.context().stats();
  // Every speculation resolves to exactly one of correct / apology.
  EXPECT_EQ(stats.speculated, stats.speculation_correct + stats.apologies);
  // Outcome accounting matches the driver's view.
  EXPECT_EQ(stats.committed, metrics.committed);
  EXPECT_EQ(stats.aborted, metrics.aborted);
  EXPECT_EQ(stats.unavailable, metrics.unavailable);
  EXPECT_EQ(stats.admission_rejected, metrics.rejected);
  // User notifications: every finished txn (including admission rejections)
  // is notified exactly once.
  EXPECT_EQ(stats.notified, metrics.finished());
  // Speculative user notifications observed by the driver match the stats.
  EXPECT_EQ(metrics.speculative_notifications, stats.speculated);
  // Cluster state stays sound under the PLANET layer too.
  EXPECT_TRUE(cluster.ReplicasConverged());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanetInvariants,
    ::testing::Values(PlanetParam{21, 100000, 0.9},
                      PlanetParam{22, 200, 0.9},
                      PlanetParam{23, 30, 0.9},
                      PlanetParam{24, 30, 0.5},
                      PlanetParam{25, 30, 0.99},
                      PlanetParam{26, 200, 0.0},
                      // Admission control active under contention.
                      PlanetParam{27, 30, 0.9, 0.4},
                      PlanetParam{28, 200, 0.9, 0.6},
                      PlanetParam{29, 30, 0.5, 0.8}),
    [](const ::testing::TestParamInfo<PlanetParam>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

/// Determinism sweep: identical seeds produce identical histories for every
/// stack configuration.
class Determinism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Determinism, IdenticalRunsBitIdentical) {
  auto run = [&](uint64_t seed) {
    ClusterOptions options;
    options.seed = seed;
    options.clients_per_dc = 2;
    Cluster cluster(options);
    WorkloadConfig wl;
    wl.num_keys = 60;
    wl.reads_per_txn = 1;
    wl.writes_per_txn = 1;
    RunMetrics metrics;
    std::vector<std::unique_ptr<LoadGenerator>> generators;
    for (int i = 0; i < cluster.num_clients(); ++i) {
      auto gen = std::make_unique<LoadGenerator>(
          &cluster.sim(), cluster.ForkRng(100 + i),
          MakeMdccRunner(cluster.client(i), wl, cluster.ForkRng(200 + i)),
          LoadGenerator::Options{});
      gen->SetResultSink(metrics.Sink());
      gen->Start(Seconds(8));
      generators.push_back(std::move(gen));
    }
    cluster.Drain();
    std::ostringstream digest;
    digest << metrics.committed << "/" << metrics.aborted << "/"
           << cluster.sim().events_processed() << "/"
           << cluster.net().messages_sent();
    for (const auto& [key, view] : cluster.replica(0)->store().Snapshot()) {
      digest << key << ":" << view.version << "=" << view.value << ";";
    }
    return digest.str();
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Determinism,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace planet
