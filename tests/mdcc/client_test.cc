// Coordinator-level unit tests: fast-path decision rules, classic fallback
// triggering, force_classic, phase/observer sequencing, and GC behaviour.
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace planet {
namespace {

ClusterOptions Opts(uint64_t seed = 991) {
  ClusterOptions options;
  options.seed = seed;
  return options;
}

WriteOption Blocker(TxnId txn, Key key) {
  WriteOption o;
  o.txn = txn;
  o.key = key;
  o.kind = OptionKind::kPhysical;
  o.read_version = 0;
  o.new_value = 777;
  return o;
}

TEST(Coordinator, FastPathDecidesAtQuorumNotAllVotes) {
  Cluster cluster(Opts());
  Client* client = cluster.client(0);  // us-west
  Status outcome = Status::Internal("unset");
  SimTime decided_at = 0;
  TxnId txn = client->Begin();
  client->Read(txn, 5, [&](Status, RecordView v) {
    ASSERT_TRUE(client->Write(txn, 5, v.value + 1).ok());
    client->Commit(txn, [&](Status s) {
      outcome = s;
      decided_at = cluster.sim().Now();
    });
  });
  cluster.Drain();
  ASSERT_TRUE(outcome.ok());
  // The 4th-closest replica from us-west is eu-ireland (~140ms RTT); the
  // farthest (singapore, ~176ms) must NOT gate the decision.
  EXPECT_LT(decided_at, Millis(172));
  EXPECT_GT(decided_at, Millis(130));
}

TEST(Coordinator, ClassicFallbackAfterTwoRejects) {
  Cluster cluster(Opts());
  Client* client = cluster.client(0);
  // Pre-place a conflicting pending option at exactly two replicas: the fast
  // quorum (4/5) becomes unreachable, forcing the classic path. The key's
  // master (dc 5 % 5 = 0) must NOT be one of them, and the blocker must be
  // resolvable so the queued classic proposal eventually wins.
  Key key = 5;  // master: dc 0
  ASSERT_TRUE(
      cluster.replica(1)->store().TryAcceptOption(Blocker(999, key)).ok());
  ASSERT_TRUE(
      cluster.replica(2)->store().TryAcceptOption(Blocker(999, key)).ok());

  Status outcome = Status::Internal("unset");
  TxnId txn = client->Begin();
  client->Read(txn, key, [&](Status, RecordView v) {
    ASSERT_TRUE(client->Write(txn, key, v.value + 1).ok());
    client->Commit(txn, [&](Status s) { outcome = s; });
  });
  // Release the blocker shortly after (its "coordinator" aborts it).
  cluster.sim().ScheduleAt(Millis(400), [&] {
    cluster.replica(1)->HandleVisibility(999, false, {Blocker(999, key)});
    cluster.replica(2)->HandleVisibility(999, false, {Blocker(999, key)});
  });
  cluster.Drain();
  EXPECT_TRUE(outcome.ok()) << outcome.ToString();
  EXPECT_EQ(client->classic_fallbacks(), 1u);
  EXPECT_TRUE(cluster.ReplicasConverged());
}

TEST(Coordinator, NoClassicWhenDisabled) {
  ClusterOptions options = Opts();
  options.mdcc.enable_classic = false;
  Cluster cluster(options);
  Client* client = cluster.client(0);
  Key key = 5;
  ASSERT_TRUE(
      cluster.replica(1)->store().TryAcceptOption(Blocker(999, key)).ok());
  ASSERT_TRUE(
      cluster.replica(2)->store().TryAcceptOption(Blocker(999, key)).ok());
  Status outcome = Status::Internal("unset");
  TxnId txn = client->Begin();
  client->Read(txn, key, [&](Status, RecordView v) {
    ASSERT_TRUE(client->Write(txn, key, v.value + 1).ok());
    client->Commit(txn, [&](Status s) { outcome = s; });
  });
  cluster.Drain();
  EXPECT_TRUE(outcome.IsAborted());
  EXPECT_EQ(client->classic_fallbacks(), 0u);
}

TEST(Coordinator, ForceClassicSkipsFastPath) {
  ClusterOptions options = Opts();
  options.mdcc.force_classic = true;
  Cluster cluster(options);
  Client* client = cluster.client(0);
  Status outcome = Status::Internal("unset");
  TxnId txn = client->Begin();
  client->Read(txn, 5, [&](Status, RecordView v) {
    ASSERT_TRUE(client->Write(txn, 5, v.value + 1).ok());
    client->Commit(txn, [&](Status s) { outcome = s; });
  });
  cluster.Drain();
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(client->classic_fallbacks(), 1u);
  EXPECT_EQ(cluster.replica(0)->fast_accept_requests(), 0u)
      << "no fast-path accepts were sent";
  EXPECT_TRUE(cluster.ReplicasConverged());
}

TEST(Coordinator, ObserverSequencing) {
  struct Recorder : ClientObserver {
    std::vector<std::string> events;
    void OnSend(DcId) override {}
    void OnVote(const VoteEvent& e, bool counted) override {
      if (counted) events.push_back(e.accepted ? "vote+" : "vote-");
    }
    void OnClassicReply(DcId) override {}
    void OnOptionDecided(TxnId, Key, bool chosen) override {
      events.push_back(chosen ? "opt+" : "opt-");
    }
    void OnPhase(TxnId, TxnPhase phase) override {
      events.push_back(std::string("phase:") + TxnPhaseName(phase));
    }
  } recorder;
  std::vector<std::string>& events = recorder.events;
  Cluster cluster(Opts());
  Client* client = cluster.client(0);
  client->SetObserver(&recorder);
  TxnId txn = client->Begin();
  client->Read(txn, 5, [&](Status, RecordView v) {
    ASSERT_TRUE(client->Write(txn, 5, v.value + 1).ok());
    client->Commit(txn, [&](Status) { events.push_back("done"); });
  });
  cluster.Drain();
  ASSERT_GE(events.size(), 7u);
  EXPECT_EQ(events.front(), "phase:proposing");
  // 4 accepts, then the option decision, then the committed phase, then the
  // commit callback; the 5th vote may arrive after.
  auto opt = std::find(events.begin(), events.end(), "opt+");
  ASSERT_NE(opt, events.end());
  EXPECT_EQ(std::count(events.begin(), opt, "vote+"), 4);
  auto committed = std::find(events.begin(), events.end(), "phase:committed");
  ASSERT_NE(committed, events.end());
  EXPECT_LT(opt, committed);
  auto done = std::find(events.begin(), events.end(), "done");
  ASSERT_NE(done, events.end());
  EXPECT_LT(committed, done);
}

TEST(Coordinator, ViewIsGarbageCollectedAfterDecision) {
  Cluster cluster(Opts());
  Client* client = cluster.client(0);
  TxnId txn = client->Begin();
  EXPECT_NE(client->View(txn), nullptr);
  client->Read(txn, 5, [&](Status, RecordView v) {
    ASSERT_TRUE(client->Write(txn, 5, v.value + 1).ok());
    client->Commit(txn, [](Status) {});
  });
  cluster.Drain();
  EXPECT_EQ(client->View(txn), nullptr) << "state reclaimed after all votes";
}

TEST(Coordinator, AbortEarlyDiscards) {
  Cluster cluster(Opts());
  Client* client = cluster.client(0);
  TxnId txn = client->Begin();
  client->AbortEarly(txn);
  EXPECT_EQ(client->View(txn), nullptr);
  EXPECT_EQ(client->committed(), 0u);
  EXPECT_EQ(client->aborted(), 0u);
}

TEST(Coordinator, AbortEarlyAfterCommitIsNoOp) {
  Cluster cluster(Opts());
  Client* client = cluster.client(0);
  Status outcome = Status::Internal("unset");
  TxnId txn = client->Begin();
  client->Read(txn, 3, [&](Status, RecordView v) {
    ASSERT_TRUE(client->Write(txn, 3, v.value + 1).ok());
    client->Commit(txn, [&](Status s) { outcome = s; });
    client->AbortEarly(txn);  // already proposing: must not drop it
  });
  cluster.Drain();
  EXPECT_TRUE(outcome.ok()) << outcome.ToString();
  EXPECT_EQ(client->committed(), 1u);
  EXPECT_TRUE(cluster.ReplicasConverged());
}

TEST(Coordinator, TimeoutYieldsUnavailableAndCleansUp) {
  ClusterOptions options = Opts();
  options.mdcc.txn_timeout = Seconds(1);
  options.recovery_period = Millis(500);
  Cluster cluster(options);
  Client* client = cluster.client(0);
  // Cut the coordinator's DC off from everything but itself.
  for (DcId dc = 1; dc < 5; ++dc) cluster.net().SetPartitioned(0, dc, true);
  Status outcome = Status::Internal("unset");
  TxnId txn = client->Begin();
  client->Read(txn, 5, [&](Status, RecordView v) {
    ASSERT_TRUE(client->Write(txn, 5, v.value + 1).ok());
    client->Commit(txn, [&](Status s) { outcome = s; });
  });
  cluster.sim().RunFor(Seconds(3));
  EXPECT_TRUE(outcome.IsUnavailable());
  // The local replica accepted the option; the abort visibility (same DC)
  // cleans it up.
  EXPECT_EQ(cluster.replica(0)->store().TotalPending(), 0u);
  EXPECT_EQ(client->timed_out(), 1u);
}

}  // namespace
}  // namespace planet
