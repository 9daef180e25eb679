// Tests of the PLANET programming model: stage machine, progress callbacks,
// likelihood queries, speculation/apology, give-up, and admission control.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/cluster.h"

namespace planet {
namespace {

ClusterOptions BaseOptions(uint64_t seed = 11) {
  ClusterOptions options;
  options.seed = seed;
  options.mdcc.num_dcs = 5;
  options.wan = FiveDcWan();
  return options;
}

/// Runs one read-modify-write PLANET transaction on `key` and returns the
/// handle after wiring the given policy callbacks.
struct TxnProbe {
  std::vector<PlanetStage> stages;
  std::vector<TxnProgress> progress;
  Status final_status = Status::Internal("unset");
  bool final_fired = false;
  Outcome outcome;
  bool user_fired = false;
  bool apologized = false;
};

void RunRmw(Cluster& cluster, PlanetClient* client, Key key, TxnProbe* probe,
            Duration timeout = 0,
            std::function<void(PlanetTransaction&)> on_timeout = nullptr) {
  PlanetTransaction txn = client->Begin();
  txn.OnStage([probe](PlanetStage s) { probe->stages.push_back(s); });
  txn.OnProgress(
      [probe](const TxnProgress& p) { probe->progress.push_back(p); });
  txn.OnFinal([probe](Status s) {
    probe->final_status = s;
    probe->final_fired = true;
  });
  txn.OnApology([probe] { probe->apologized = true; });
  if (timeout > 0) txn.WithTimeout(timeout, std::move(on_timeout));
  txn.Read(key, [txn, key, probe](Status s, Value v) mutable {
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(txn.Write(key, v + 1).ok());
    txn.Commit([probe](const Outcome& o) {
      probe->outcome = o;
      probe->user_fired = true;
    });
  });
  (void)cluster;
}

TEST(PlanetTxn, HappyPathStagesAndCallbacks) {
  Cluster cluster(BaseOptions());
  TxnProbe probe;
  RunRmw(cluster, cluster.planet_client(0), 5, &probe);
  cluster.Drain();

  ASSERT_TRUE(probe.final_fired);
  EXPECT_TRUE(probe.final_status.ok());
  ASSERT_TRUE(probe.user_fired);
  EXPECT_TRUE(probe.outcome.status.ok());
  EXPECT_FALSE(probe.outcome.speculative);
  EXPECT_GT(probe.outcome.user_latency, Millis(30)) << "one WAN round trip";

  // Stage sequence: submitted ... committed, never aborted.
  ASSERT_GE(probe.stages.size(), 2u);
  EXPECT_EQ(probe.stages.front(), PlanetStage::kSubmitted);
  EXPECT_EQ(probe.stages.back(), PlanetStage::kCommitted);

  // Progress fired for every vote: 5 replicas voted.
  int votes_seen = 0;
  for (const auto& p : probe.progress) {
    votes_seen = std::max(votes_seen, p.votes_received);
    EXPECT_GE(p.likelihood, 0.0);
    EXPECT_LE(p.likelihood, 1.0);
  }
  EXPECT_GE(votes_seen, 4);
  EXPECT_EQ(probe.progress.back().options_decided, 1);
}

TEST(PlanetTxn, LikelihoodReachesOneOnCommit) {
  Cluster cluster(BaseOptions());
  TxnProbe probe;
  RunRmw(cluster, cluster.planet_client(0), 5, &probe);
  cluster.Drain();
  ASSERT_FALSE(probe.progress.empty());
  EXPECT_DOUBLE_EQ(probe.progress.back().likelihood, 1.0);
}

TEST(PlanetTxn, SpeculationCorrectOnSlowCommit) {
  // Deadline far below the WAN commit latency forces the timeout callback;
  // at low contention the likelihood is high, so the app speculates, and the
  // transaction later commits: speculation correct, no apology.
  Cluster cluster(BaseOptions());
  TxnProbe probe;
  RunRmw(cluster, cluster.planet_client(0), 5, &probe, Millis(20),
         [](PlanetTransaction& t) {
           EXPECT_GT(t.CommitLikelihood(), 0.9);
           t.Speculate();
         });
  cluster.Drain();

  ASSERT_TRUE(probe.user_fired);
  EXPECT_TRUE(probe.outcome.speculative);
  EXPECT_TRUE(probe.outcome.status.ok());
  EXPECT_LE(probe.outcome.user_latency, Millis(25));
  ASSERT_TRUE(probe.final_fired);
  EXPECT_TRUE(probe.final_status.ok());
  EXPECT_FALSE(probe.apologized);
  EXPECT_EQ(cluster.context().stats().speculated, 1u);
  EXPECT_EQ(cluster.context().stats().speculation_correct, 1u);
  EXPECT_EQ(cluster.context().stats().apologies, 0u);
}

TEST(PlanetTxn, ApologyWhenSpeculationWrong) {
  // Force an abort: another transaction steals the version first, while the
  // probe transaction speculates at its deadline regardless of likelihood.
  ClusterOptions options = BaseOptions(17);
  Cluster cluster(options);
  PlanetClient* a = cluster.planet_client(0);
  PlanetClient* b = cluster.planet_client(1);

  // b reads key 9 first (version 0) but commits later.
  PlanetTransaction tb = b->Begin();
  TxnProbe probe_b;
  tb.OnFinal([&](Status s) {
    probe_b.final_status = s;
    probe_b.final_fired = true;
  });
  tb.OnApology([&] { probe_b.apologized = true; });
  tb.WithTimeout(Millis(10), [](PlanetTransaction& t) { t.Speculate(); });

  bool b_read = false;
  tb.Read(9, [&, tb](Status, Value v) mutable {
    b_read = true;
    ASSERT_TRUE(tb.Write(9, v + 100).ok());
    // Delay b's commit until a has committed (scheduled below).
  });
  cluster.sim().RunFor(Millis(5));
  ASSERT_TRUE(b_read);

  // a commits an update to key 9, invalidating b's read version.
  TxnProbe probe_a;
  RunRmw(cluster, a, 9, &probe_a);
  cluster.sim().RunFor(Seconds(2));
  ASSERT_TRUE(probe_a.final_fired);
  ASSERT_TRUE(probe_a.final_status.ok());

  // Now b commits against the stale version and must abort; its speculation
  // (fired at the 10ms deadline) becomes an apology.
  bool b_user_spec = false;
  tb.Commit([&](const Outcome& o) { b_user_spec = o.speculative; });
  cluster.Drain();

  ASSERT_TRUE(probe_b.final_fired);
  EXPECT_TRUE(probe_b.final_status.IsAborted());
  EXPECT_TRUE(b_user_spec);
  EXPECT_TRUE(probe_b.apologized);
  EXPECT_EQ(cluster.context().stats().apologies, 1u);
}

TEST(PlanetTxn, GiveUpNotifiesUserButFinalStillFires) {
  Cluster cluster(BaseOptions());
  TxnProbe probe;
  RunRmw(cluster, cluster.planet_client(0), 5, &probe, Millis(20),
         [](PlanetTransaction& t) { t.GiveUp(); });
  cluster.Drain();

  ASSERT_TRUE(probe.user_fired);
  EXPECT_TRUE(probe.outcome.status.IsTimedOut());
  ASSERT_TRUE(probe.final_fired);
  EXPECT_TRUE(probe.final_status.ok()) << "txn still committed in background";
  EXPECT_EQ(cluster.context().stats().gave_up, 1u);
}

TEST(PlanetTxn, NoTimeoutCallbackMeansNoSpeculation) {
  Cluster cluster(BaseOptions());
  TxnProbe probe;
  RunRmw(cluster, cluster.planet_client(0), 5, &probe);
  cluster.Drain();
  EXPECT_EQ(cluster.context().stats().speculated, 0u);
  EXPECT_FALSE(probe.outcome.speculative);
}

TEST(PlanetTxn, AdmissionControlRejectsHotKeys) {
  ClusterOptions options = BaseOptions(23);
  options.planet.enable_admission = true;
  options.planet.admission_threshold = 0.5;
  Cluster cluster(options);
  PlanetClient* client = cluster.planet_client(0);

  // Teach the conflict model that key 1 is hopeless while key 2 is healthy
  // (otherwise the global rate would taint unseen keys).
  for (int i = 0; i < 200; ++i) {
    cluster.context().conflict_model().RecordVote(1, false);
    cluster.context().conflict_model().RecordVote(2, true);
  }

  TxnProbe probe;
  RunRmw(cluster, client, 1, &probe);
  cluster.Drain();

  ASSERT_TRUE(probe.user_fired);
  EXPECT_TRUE(probe.outcome.status.IsRejected());
  ASSERT_TRUE(probe.final_fired);
  EXPECT_TRUE(probe.final_status.IsRejected());
  EXPECT_EQ(cluster.context().stats().admission_rejected, 1u);
  // Rejection is instant: no WAN round trip.
  EXPECT_LT(probe.outcome.user_latency, Millis(5));
  // And a cold key still goes through.
  TxnProbe probe2;
  RunRmw(cluster, client, 2, &probe2);
  cluster.Drain();
  EXPECT_TRUE(probe2.final_status.ok());
}

TEST(PlanetTxn, StatsAccumulateAcrossTransactions) {
  Cluster cluster(BaseOptions());
  std::vector<std::unique_ptr<TxnProbe>> probes;
  for (int i = 0; i < 8; ++i) {
    probes.push_back(std::make_unique<TxnProbe>());
    RunRmw(cluster, cluster.planet_client(i % cluster.num_clients()),
           static_cast<Key>(1000 + i), probes.back().get());
  }
  cluster.Drain();
  const PlanetStats& stats = cluster.context().stats();
  EXPECT_EQ(stats.started, 8u);
  EXPECT_EQ(stats.committed, 8u);
  EXPECT_EQ(stats.notified, 8u);
  EXPECT_GT(stats.calibration.total(), 0u);
}

TEST(PlanetTxn, ReadOnlyTransactionCommitsLocally) {
  Cluster cluster(BaseOptions());
  PlanetTransaction txn = cluster.planet_client(0)->Begin();
  Status final_status = Status::Internal("unset");
  txn.OnFinal([&](Status s) { final_status = s; });
  txn.Read(3, [txn](Status s, Value) mutable {
    ASSERT_TRUE(s.ok());
    txn.Commit([](const Outcome&) {});
  });
  cluster.Drain();
  EXPECT_TRUE(final_status.ok());
}

TEST(PlanetTxn, CommutativeAddThroughModel) {
  Cluster cluster(BaseOptions());
  PlanetTransaction txn = cluster.planet_client(0)->Begin();
  ASSERT_TRUE(txn.Add(7, 5).ok());
  Status final_status = Status::Internal("unset");
  txn.OnFinal([&](Status s) { final_status = s; });
  txn.Commit([](const Outcome&) {});
  cluster.Drain();
  EXPECT_TRUE(final_status.ok());
  EXPECT_EQ(cluster.replica(0)->store().Read(7).value, 5);
}

TEST(PlanetTxn, LatencyModelLearnsFromTraffic) {
  Cluster cluster(BaseOptions());
  std::vector<std::unique_ptr<TxnProbe>> probes;
  for (int i = 0; i < 5; ++i) {
    probes.push_back(std::make_unique<TxnProbe>());
    RunRmw(cluster, cluster.planet_client(0), static_cast<Key>(50 + i),
           probes.back().get());
  }
  cluster.Drain();
  LatencyModel& lm = cluster.context().latency_model();
  EXPECT_GT(lm.total_samples(), 20u);  // 5 txns x 5 replicas
  // Client 0 lives in us-west; RTT to us-east (~72ms) must be learned.
  Duration p50 = lm.RttPercentile(0, 1, 50);
  EXPECT_GT(p50, Millis(60));
  EXPECT_LT(p50, Millis(110));
}

}  // namespace
}  // namespace planet
