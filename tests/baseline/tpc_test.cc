// Tests of the 2PC baseline: commit, conflict aborts, lock release,
// replication convergence, and the no-lost-update property.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "harness/metrics.h"
#include "workload/runners.h"

namespace planet {
namespace {

TpcClusterOptions BaseOptions(uint64_t seed = 31) {
  TpcClusterOptions options;
  options.seed = seed;
  options.tpc.num_dcs = 5;
  options.wan = FiveDcWan();
  return options;
}

TEST(Tpc, SingleTxnCommitsAndReplicates) {
  TpcCluster cluster(BaseOptions());
  TpcClient* client = cluster.client(0);
  Status outcome = Status::Internal("unset");
  TxnId txn = client->Begin();
  client->Read(txn, 42, [&](Status s, RecordView view) {
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(view.version, 0u);
    ASSERT_TRUE(client->Write(txn, 42, 7).ok());
    client->Commit(txn, [&](Status s2) { outcome = s2; });
  });
  cluster.Drain();
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(client->committed(), 1u);
  for (DcId dc = 0; dc < 5; ++dc) {
    EXPECT_EQ(cluster.node(dc)->store().Read(42).value, 7) << "dc " << dc;
  }
  EXPECT_TRUE(cluster.ReplicasConverged());
  for (DcId dc = 0; dc < 5; ++dc) {
    EXPECT_EQ(cluster.node(dc)->LockedKeys(), 0u);
  }
}

TEST(Tpc, ReadOnlyCommitsWithoutPrepare) {
  TpcCluster cluster(BaseOptions());
  TpcClient* client = cluster.client(0);
  Status outcome = Status::Internal("unset");
  TxnId txn = client->Begin();
  client->Read(txn, 1, [&](Status, RecordView) {
    client->Commit(txn, [&](Status s) { outcome = s; });
  });
  cluster.Drain();
  EXPECT_TRUE(outcome.ok());
}

TEST(Tpc, WriteRequiresRead) {
  TpcCluster cluster(BaseOptions());
  TpcClient* client = cluster.client(0);
  TxnId txn = client->Begin();
  EXPECT_EQ(client->Write(txn, 5, 1).code(), StatusCode::kFailedPrecondition);
}

TEST(Tpc, ReadYourWritesPhysical) {
  TpcCluster cluster(BaseOptions());
  TpcClient* client = cluster.client(0);
  Value observed = -1;
  TxnId txn = client->Begin();
  client->Read(txn, 8, [&](Status, RecordView view) {
    ASSERT_TRUE(client->Write(txn, 8, view.value + 41).ok());
    client->Read(txn, 8, [&](Status, RecordView again) {
      observed = again.value;  // must see the buffered write
    });
  });
  cluster.Drain();
  EXPECT_EQ(observed, 41);
  // The buffered-read shortcut sends no extra messages (2 for the first
  // remote read only).
  EXPECT_EQ(cluster.net().messages_sent(), 2u);
}

TEST(Tpc, AbortEarlyAfterCommitIsNoOp) {
  TpcCluster cluster(BaseOptions());
  TpcClient* client = cluster.client(0);
  ScheduleDelays delays;
  client->SetScheduleDelays(&delays);
  Status outcome = Status::Internal("unset");
  TxnId txn = client->Begin();
  // A delay directive holds the submission back, so the transaction has
  // not started preparing when AbortEarly arrives: it must still commit.
  delays[txn] = Millis(500);
  client->Read(txn, 42, [&](Status, RecordView view) {
    ASSERT_TRUE(client->Write(txn, 42, view.value + 1).ok());
    client->Commit(txn, [&](Status s) { outcome = s; });
    client->AbortEarly(txn);
  });
  cluster.Drain();
  EXPECT_TRUE(outcome.ok()) << outcome.ToString();
  EXPECT_EQ(client->committed(), 1u);
  EXPECT_TRUE(cluster.ReplicasConverged());
  for (DcId dc = 0; dc < 5; ++dc) {
    EXPECT_EQ(cluster.node(dc)->LockedKeys(), 0u) << "dc " << dc;
  }
}

TEST(Tpc, ConflictingWritesOneWins) {
  TpcCluster cluster(BaseOptions());
  TpcClient* a = cluster.client(0);
  TpcClient* b = cluster.client(1);
  Status sa = Status::Internal("unset"), sb = Status::Internal("unset");
  TxnId ta = a->Begin(), tb = b->Begin();
  a->Read(ta, 9, [&](Status, RecordView) {
    ASSERT_TRUE(a->Write(ta, 9, 100).ok());
    a->Commit(ta, [&](Status s) { sa = s; });
  });
  b->Read(tb, 9, [&](Status, RecordView) {
    ASSERT_TRUE(b->Write(tb, 9, 200).ok());
    b->Commit(tb, [&](Status s) { sb = s; });
  });
  cluster.Drain();
  EXPECT_NE(sa.ok(), sb.ok());
  EXPECT_TRUE(cluster.ReplicasConverged());
  for (DcId dc = 0; dc < 5; ++dc) {
    EXPECT_EQ(cluster.node(dc)->LockedKeys(), 0u) << "dc " << dc;
  }
}

TEST(Tpc, StaleReadAborts) {
  TpcCluster cluster(BaseOptions());
  TpcClient* client = cluster.client(0);

  TxnId t2 = client->Begin();
  client->Read(t2, 4, [](Status, RecordView) {});
  cluster.Drain();

  Status s1 = Status::Internal("unset");
  TxnId t1 = client->Begin();
  client->Read(t1, 4, [&](Status, RecordView) {
    ASSERT_TRUE(client->Write(t1, 4, 1).ok());
    client->Commit(t1, [&](Status s) { s1 = s; });
  });
  cluster.Drain();
  ASSERT_TRUE(s1.ok());

  ASSERT_TRUE(client->Write(t2, 4, 2).ok());
  Status s2 = Status::Internal("unset");
  client->Commit(t2, [&](Status s) { s2 = s; });
  cluster.Drain();
  EXPECT_TRUE(s2.IsAborted());
  EXPECT_EQ(cluster.node(0)->store().Read(4).value, 1);
}

TEST(Tpc, MultiKeyAllOrNothing) {
  // One key prepared, the other conflicted: nothing must be applied and all
  // locks must be released.
  TpcCluster cluster(BaseOptions());
  TpcClient* a = cluster.client(0);
  TpcClient* b = cluster.client(1);

  // b takes key 20 (hashes to some master) with a long-running txn by
  // preparing first. Simplest: b commits a single-key txn while a runs a
  // two-key txn overlapping on 20; one of them aborts or both serialize.
  Status sa = Status::Internal("unset"), sb = Status::Internal("unset");
  TxnId ta = a->Begin(), tb = b->Begin();
  int a_reads = 2;
  for (Key key : {Key{20}, Key{21}}) {
    a->Read(ta, key, [&, key](Status, RecordView) {
      ASSERT_TRUE(a->Write(ta, key, 5).ok());
      if (--a_reads == 0) {
        a->Commit(ta, [&](Status s) { sa = s; });
      }
    });
  }
  b->Read(tb, 20, [&](Status, RecordView) {
    ASSERT_TRUE(b->Write(tb, 20, 9).ok());
    b->Commit(tb, [&](Status s) { sb = s; });
  });
  cluster.Drain();

  EXPECT_TRUE(cluster.ReplicasConverged());
  // Atomicity: if a committed, both 20 and 21 hold 5.
  Value v20 = cluster.node(0)->store().Read(20).value;
  Value v21 = cluster.node(0)->store().Read(21).value;
  if (sa.ok()) {
    // a won on key 20 (b may have won before or after; then v20 is 9 only
    // if b serialized after a and overwrote — but b writes 9 against its
    // read version, so both committing means they serialized).
    EXPECT_EQ(v21, 5);
  } else {
    EXPECT_EQ(v21, 0) << "aborted txn must leave no partial writes";
  }
  for (DcId dc = 0; dc < 5; ++dc) {
    EXPECT_EQ(cluster.node(dc)->LockedKeys(), 0u);
  }
  (void)v20;
  (void)sb;
}

TEST(Tpc, NoLostUpdatesUnderLoad) {
  TpcClusterOptions options = BaseOptions(37);
  options.clients_per_dc = 3;
  TpcCluster cluster(options);

  WorkloadConfig wl;
  wl.num_keys = 40;
  wl.reads_per_txn = 0;
  wl.writes_per_txn = 2;

  RunMetrics metrics;
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    auto gen = std::make_unique<LoadGenerator>(
        &cluster.sim(), cluster.ForkRng(600 + i),
        MakeTpcRunner(cluster.client(i), wl, cluster.ForkRng(700 + i)),
        LoadGenerator::Options{});
    gen->SetResultSink(metrics.Sink());
    gen->Start(Seconds(20));
    generators.push_back(std::move(gen));
  }
  cluster.Drain();

  EXPECT_GT(metrics.committed, 20u);
  EXPECT_TRUE(cluster.ReplicasConverged());
  Value total = 0;
  for (const auto& [key, view] : cluster.node(0)->store().Snapshot()) {
    total += view.value;
  }
  EXPECT_EQ(total, static_cast<Value>(metrics.committed * 2));
  for (DcId dc = 0; dc < 5; ++dc) {
    EXPECT_EQ(cluster.node(dc)->LockedKeys(), 0u);
  }
}

TEST(Tpc, SlowerThanMdccAtLowContention) {
  // The headline latency comparison in miniature: same workload, same WAN,
  // MDCC's fast path beats 2PC's two-phase + sync replication.
  WorkloadConfig wl;
  wl.num_keys = 100000;
  wl.reads_per_txn = 1;
  wl.writes_per_txn = 1;

  RunMetrics mdcc_metrics;
  {
    ClusterOptions options;
    options.seed = 41;
    Cluster cluster(options);
    auto gen = std::make_unique<LoadGenerator>(
        &cluster.sim(), cluster.ForkRng(1),
        MakeMdccRunner(cluster.client(0), wl, cluster.ForkRng(2)),
        LoadGenerator::Options{});
    gen->SetResultSink(mdcc_metrics.Sink());
    gen->Start(Seconds(60));
    cluster.Drain();
  }
  RunMetrics tpc_metrics;
  {
    TpcCluster cluster(BaseOptions(41));
    auto gen = std::make_unique<LoadGenerator>(
        &cluster.sim(), cluster.ForkRng(1),
        MakeTpcRunner(cluster.client(0), wl, cluster.ForkRng(2)),
        LoadGenerator::Options{});
    gen->SetResultSink(tpc_metrics.Sink());
    gen->Start(Seconds(60));
    cluster.Drain();
  }
  ASSERT_GT(mdcc_metrics.committed, 50u);
  ASSERT_GT(tpc_metrics.committed, 50u);
  EXPECT_LT(mdcc_metrics.latency_committed.Percentile(50),
            tpc_metrics.latency_committed.Percentile(50));
}

}  // namespace
}  // namespace planet
