// Generality checks: the stack is not hard-wired to 5 DCs, and the PLANET
// layer surfaces the classic fallback stage.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "harness/metrics.h"
#include "workload/runners.h"

namespace planet {
namespace {

class ClusterSizes : public ::testing::TestWithParam<int> {};

TEST_P(ClusterSizes, EndToEndCommitAndConvergence) {
  int n = GetParam();
  ClusterOptions options;
  options.seed = 1000 + uint64_t(n);
  options.mdcc.num_dcs = n;
  options.wan = UniformWan(n, 40.0);
  options.clients_per_dc = 2;
  Cluster cluster(options);

  WorkloadConfig wl;
  wl.num_keys = 200;
  wl.reads_per_txn = 1;
  wl.writes_per_txn = 2;

  RunMetrics metrics;
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    auto gen = std::make_unique<LoadGenerator>(
        &cluster.sim(), cluster.ForkRng(100 + i),
        MakeMdccRunner(cluster.client(i), wl, cluster.ForkRng(200 + i)),
        LoadGenerator::Options{});
    gen->SetResultSink(metrics.Sink());
    gen->Start(Seconds(10));
    generators.push_back(std::move(gen));
  }
  cluster.Drain();

  EXPECT_GT(metrics.committed, 20u);
  EXPECT_TRUE(cluster.ReplicasConverged());
  Value total = 0;
  for (const auto& [key, view] : cluster.replica(0)->store().Snapshot()) {
    total += view.value;
  }
  EXPECT_EQ(total, static_cast<Value>(metrics.committed * 2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClusterSizes, ::testing::Values(3, 4, 7, 9));

TEST(PlanetGenerality, ClassicFallbackStageSurfaces) {
  ClusterOptions options;
  options.seed = 555;
  Cluster cluster(options);
  PlanetClient* client = cluster.planet_client(0);

  // Block key 5 at two replicas so the fast path fails and the classic path
  // (which queues behind the blocker, then wins) decides the option.
  WriteOption blocker;
  blocker.txn = 999;
  blocker.key = 5;
  blocker.kind = OptionKind::kPhysical;
  blocker.read_version = 0;
  blocker.new_value = 1;
  ASSERT_TRUE(cluster.replica(1)->store().TryAcceptOption(blocker).ok());
  ASSERT_TRUE(cluster.replica(2)->store().TryAcceptOption(blocker).ok());
  cluster.sim().ScheduleAt(Millis(400), [&] {
    cluster.replica(1)->HandleVisibility(999, false, {blocker});
    cluster.replica(2)->HandleVisibility(999, false, {blocker});
  });

  std::vector<PlanetStage> stages;
  Status final_status = Status::Internal("unset");
  PlanetTransaction txn = client->Begin();
  txn.OnStage([&](PlanetStage s) { stages.push_back(s); });
  txn.OnFinal([&](Status s) { final_status = s; });
  txn.Read(5, [txn](Status, Value v) mutable {
    ASSERT_TRUE(txn.Write(5, v + 1).ok());
    txn.Commit([](const Outcome&) {});
  });
  cluster.Drain();

  ASSERT_TRUE(final_status.ok()) << final_status.ToString();
  ASSERT_GE(stages.size(), 3u);
  EXPECT_EQ(stages[0], PlanetStage::kSubmitted);
  EXPECT_NE(std::find(stages.begin(), stages.end(),
                      PlanetStage::kClassicFallback),
            stages.end())
      << "the app must see the classic fallback happen";
  EXPECT_EQ(stages.back(), PlanetStage::kCommitted);
}

TEST(PlanetGenerality, MultiOptionPartialDecisionsVisible) {
  // Two options; progress must report options_decided == 1 at some point
  // before the decision (the fast quorum for the nearer-mastered option
  // completes first only by chance, so just require the intermediate state).
  ClusterOptions options;
  options.seed = 556;
  Cluster cluster(options);
  PlanetClient* client = cluster.planet_client(0);
  bool saw_partial = false;
  PlanetTransaction txn = client->Begin();
  txn.OnProgress([&](const TxnProgress& p) {
    if (p.options_decided == 1 && p.options_total == 2 &&
        p.stage == PlanetStage::kSubmitted) {
      saw_partial = true;
      EXPECT_GT(p.likelihood, 0.5) << "one option chosen lifts the estimate";
    }
  });
  int reads = 2;
  for (Key key : {Key{10}, Key{11}}) {
    txn.Read(key, [txn, key, &reads](Status, Value v) mutable {
      ASSERT_TRUE(txn.Write(key, v + 1).ok());
      if (--reads == 0) {
        txn.Commit([](const Outcome&) {});
      }
    });
  }
  cluster.Drain();
  EXPECT_TRUE(saw_partial);
}

}  // namespace
}  // namespace planet
