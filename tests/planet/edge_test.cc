// Edge cases of the PLANET programming model: callback idempotence,
// late/duplicate actions, stats reset, shared contexts, likelihood-by-budget.
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace planet {
namespace {

ClusterOptions BaseOptions(uint64_t seed = 311) {
  ClusterOptions options;
  options.seed = seed;
  return options;
}

/// Starts a single-key RMW whose commit is in flight when `at` fires.
PlanetTransaction StartRmw([[maybe_unused]] Cluster& cluster,
                           PlanetClient* client, Key key) {
  PlanetTransaction txn = client->Begin();
  txn.Read(key, [txn, key](Status, Value v) mutable {
    ASSERT_TRUE(txn.Write(key, v + 1).ok());
    txn.Commit([](const Outcome&) {});
  });
  return txn;
}

TEST(PlanetEdge, DoubleSpeculateCountsOnce) {
  Cluster cluster(BaseOptions());
  PlanetClient* client = cluster.planet_client(0);
  int user_notifications = 0;
  PlanetTransaction txn = client->Begin();
  txn.WithTimeout(Millis(20), [](PlanetTransaction& t) {
    t.Speculate();
    t.Speculate();  // idempotent
    t.GiveUp();     // no-op after speculation
  });
  txn.Read(5, [txn, &user_notifications](Status, Value v) mutable {
    ASSERT_TRUE(txn.Write(5, v + 1).ok());
    txn.Commit([&user_notifications](const Outcome&) {
      ++user_notifications;
    });
  });
  cluster.Drain();
  EXPECT_EQ(user_notifications, 1);
  EXPECT_EQ(cluster.context().stats().speculated, 1u);
  EXPECT_EQ(cluster.context().stats().gave_up, 0u);
}

TEST(PlanetEdge, TimeoutAfterFinalIsSilent) {
  // Deadline far beyond the commit: the callback must never fire.
  Cluster cluster(BaseOptions());
  bool timeout_fired = false;
  PlanetTransaction txn = cluster.planet_client(0)->Begin();
  txn.WithTimeout(Seconds(20),
                  [&](PlanetTransaction&) { timeout_fired = true; });
  txn.Read(5, [txn](Status, Value v) mutable {
    ASSERT_TRUE(txn.Write(5, v + 1).ok());
    txn.Commit([](const Outcome&) {});
  });
  cluster.Drain();
  EXPECT_FALSE(timeout_fired);
}

TEST(PlanetEdge, ActionsOnCollectedTxnAreSafe) {
  Cluster cluster(BaseOptions());
  PlanetTransaction txn = StartRmw(cluster, cluster.planet_client(0), 5);
  cluster.Drain();
  // The state has been garbage collected; the handle stays safe.
  EXPECT_EQ(txn.stage(), PlanetStage::kCommitted);
  txn.Speculate();  // no-op
  txn.GiveUp();     // no-op
  EXPECT_DOUBLE_EQ(txn.CommitLikelihood(), 0.0);  // unknown txn: conservative
}

TEST(PlanetEdge, RejectedTxnNeverProposes) {
  ClusterOptions options = BaseOptions();
  options.planet.enable_admission = true;
  options.planet.admission_threshold = 0.99;
  Cluster cluster(options);
  for (int i = 0; i < 100; ++i) {
    cluster.context().conflict_model().RecordOptionOutcome(5, false);
  }
  uint64_t messages_before = 0;
  PlanetTransaction txn = cluster.planet_client(0)->Begin();
  Status final_status = Status::Internal("unset");
  txn.OnFinal([&](Status s) { final_status = s; });
  txn.Read(5, [txn, &cluster, &messages_before](Status, Value v) mutable {
    ASSERT_TRUE(txn.Write(5, v + 1).ok());
    messages_before = cluster.net().messages_sent();
    txn.Commit([](const Outcome&) {});
  });
  cluster.Drain();
  EXPECT_TRUE(final_status.IsRejected());
  EXPECT_EQ(cluster.net().messages_sent(), messages_before)
      << "a rejected transaction sends nothing";
}

TEST(PlanetEdge, LikelihoodByMonotoneInBudget) {
  Cluster cluster(BaseOptions());
  PlanetClient* client = cluster.planet_client(0);
  // Warm the latency model.
  [[maybe_unused]] PlanetTransaction warm = StartRmw(cluster, client, 77);
  cluster.Drain();

  PlanetTransaction txn = StartRmw(cluster, client, 5);
  cluster.sim().RunFor(Millis(30));  // commit in flight, some votes pending
  double tight = txn.CommitLikelihoodBy(Millis(5));
  double medium = txn.CommitLikelihoodBy(Millis(150));
  double loose = txn.CommitLikelihoodBy(Seconds(5));
  EXPECT_LE(tight, medium + 1e-9);
  EXPECT_LE(medium, loose + 1e-9);
  EXPECT_LE(tight, 0.9) << "5ms cannot fetch wide-area votes";
  EXPECT_GT(loose, 0.9);
  cluster.Drain();
}

TEST(PlanetEdge, PredictRemainingTimeTracksWanRtts) {
  Cluster cluster(BaseOptions());
  PlanetClient* client = cluster.planet_client(0);
  // Warm the latency model.
  for (int i = 0; i < 5; ++i) {
    [[maybe_unused]] PlanetTransaction warm =
        StartRmw(cluster, client, Key(70 + i));
    cluster.Drain();
  }
  PlanetTransaction txn = StartRmw(cluster, client, 5);
  cluster.sim().RunFor(Millis(10));  // commit in flight, no WAN votes yet
  Duration remaining = txn.PredictRemainingTime(0.9);
  // The fast quorum from us-west completes around 140-180ms; the prediction
  // must land in that ballpark (well under a second, above 80ms).
  EXPECT_GT(remaining, Millis(80));
  EXPECT_LT(remaining, Millis(500));
  cluster.Drain();
  EXPECT_EQ(txn.stage(), PlanetStage::kCommitted);
}

TEST(PlanetEdge, PredictRemainingTimeAfterDecision) {
  Cluster cluster(BaseOptions());
  PlanetTransaction txn = StartRmw(cluster, cluster.planet_client(0), 5);
  cluster.Drain();
  // Committed (and collected): nothing remains.
  EXPECT_EQ(txn.PredictRemainingTime(), 0);
}

TEST(PlanetEdge, StatsResetKeepsModels) {
  Cluster cluster(BaseOptions());
  [[maybe_unused]] PlanetTransaction txn =
      StartRmw(cluster, cluster.planet_client(0), 5);
  cluster.Drain();
  PlanetStats& stats = cluster.context().stats();
  ASSERT_EQ(stats.committed, 1u);
  uint64_t samples = cluster.context().latency_model().total_samples();
  ASSERT_GT(samples, 0u);
  stats.Reset();
  EXPECT_EQ(stats.committed, 0u);
  EXPECT_EQ(stats.started, 0u);
  EXPECT_EQ(stats.calibration.total(), 0u);
  EXPECT_EQ(cluster.context().latency_model().total_samples(), samples)
      << "Reset discards counters, not learned models";
}

TEST(PlanetEdge, SharedContextAccumulatesAcrossClients) {
  ClusterOptions options = BaseOptions();
  options.clients_per_dc = 2;
  Cluster cluster(options);
  for (int i = 0; i < cluster.num_clients(); ++i) {
    StartRmw(cluster, cluster.planet_client(i), Key(100 + i));
  }
  cluster.Drain();
  EXPECT_EQ(cluster.context().stats().committed,
            uint64_t(cluster.num_clients()));
  // RTTs learned from every client DC.
  LatencyModel& lm = cluster.context().latency_model();
  for (DcId dc = 0; dc < 5; ++dc) {
    EXPECT_GT(lm.HistogramFor(dc, 0).count(), 0u) << "client dc " << dc;
  }
}

TEST(PlanetEdge, ProgressNotFiredAfterFinal) {
  Cluster cluster(BaseOptions());
  bool final_seen = false;
  bool progress_after_final = false;
  PlanetTransaction txn = cluster.planet_client(0)->Begin();
  txn.OnProgress([&](const TxnProgress&) {
    if (final_seen) progress_after_final = true;
  });
  txn.OnFinal([&](Status) { final_seen = true; });
  txn.Read(5, [txn](Status, Value v) mutable {
    ASSERT_TRUE(txn.Write(5, v + 1).ok());
    txn.Commit([](const Outcome&) {});
  });
  cluster.Drain();
  EXPECT_TRUE(final_seen);
  EXPECT_FALSE(progress_after_final)
      << "late votes must not fire app callbacks after the outcome";
}

TEST(PlanetEdge, ExecutingLikelihoodReflectsBufferedWrites) {
  Cluster cluster(BaseOptions());
  // Poison key 1, keep key 2 healthy.
  for (int i = 0; i < 100; ++i) {
    cluster.context().conflict_model().RecordOptionOutcome(1, false);
    cluster.context().conflict_model().RecordOptionOutcome(2, true);
  }
  PlanetClient* client = cluster.planet_client(0);
  PlanetTransaction txn = client->Begin();
  double before = txn.CommitLikelihood();
  EXPECT_DOUBLE_EQ(before, 1.0) << "no writes yet";
  bool checked = false;
  txn.Read(1, [txn, &checked](Status, Value v) mutable {
    ASSERT_TRUE(txn.Write(1, v + 1).ok());
    EXPECT_LT(txn.CommitLikelihood(), 0.3) << "poisoned key dominates";
    checked = true;
    txn.Commit([](const Outcome&) {});
  });
  cluster.Drain();
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace planet
