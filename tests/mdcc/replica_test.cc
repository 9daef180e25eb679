// Protocol-level unit tests of the Replica: acceptor behaviour, master
// classic rounds and queueing, decided-transaction guard, version-ordered
// visibility, recovery queries, and anti-entropy adoption.
#include <gtest/gtest.h>

#include "harness/wan.h"
#include "mdcc/replica.h"

namespace planet {
namespace {

class ReplicaFixture : public ::testing::Test {
 protected:
  ReplicaFixture() : net_(&sim_, Rng(5)) {
    config_.num_dcs = 5;
    config_.txn_timeout = Seconds(5);
    ApplyWan(&net_, UniformWan(5, 10.0));  // 10ms one-way everywhere
    std::vector<Replica*> peers;
    for (DcId dc = 0; dc < 5; ++dc) {
      replicas_.push_back(std::make_unique<Replica>(
          &sim_, &net_, dc, dc, Rng(100 + uint64_t(dc)), config_));
      peers.push_back(replicas_.back().get());
    }
    for (auto& r : replicas_) r->SetPeers(peers);
    // A spare node id for "the coordinator" (replies need a source node).
    net_.RegisterNode(5, 0);
  }

  static WriteOption Physical(TxnId txn, Key key, Version rv, Value v) {
    WriteOption o;
    o.txn = txn;
    o.key = key;
    o.read_version = rv;
    o.new_value = v;
    return o;
  }

  Replica* replica(DcId dc) { return replicas_[size_t(dc)].get(); }
  /// Master of `key` under the hashed policy.
  Replica* master_of(Key key) { return replica(config_.MasterOf(key)); }

  MdccConfig config_;
  Simulator sim_;
  Network net_;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

TEST_F(ReplicaFixture, FastAcceptThenVisibilityApplies) {
  WriteOption o = Physical(1, 7, 0, 42);
  VoteReply vote;
  replica(0)->HandleFastAccept(o, 5, [&](VoteReply v) { vote = v; });
  EXPECT_TRUE(vote.accepted);
  EXPECT_EQ(replica(0)->store().TotalPending(), 1u);
  replica(0)->HandleVisibility(1, true, {o});
  EXPECT_EQ(replica(0)->store().Read(7).value, 42);
  EXPECT_EQ(replica(0)->store().TotalPending(), 0u);
}

TEST_F(ReplicaFixture, DecidedTxnRefusesLateAccept) {
  WriteOption o = Physical(1, 7, 0, 42);
  replica(0)->HandleVisibility(1, false, {o});  // abort decision first
  VoteReply vote;
  replica(0)->HandleFastAccept(o, 5, [&](VoteReply v) { vote = v; });
  EXPECT_FALSE(vote.accepted);
  EXPECT_EQ(replica(0)->store().TotalPending(), 0u)
      << "late accept after the decision must not strand a pending option";
}

TEST_F(ReplicaFixture, VisibilityOutOfOrderDefersThenApplies) {
  // Receive the v1->v2 transition before the v0->v1 transition.
  WriteOption first = Physical(1, 7, 0, 10);
  WriteOption second = Physical(2, 7, 1, 20);
  replica(0)->HandleVisibility(2, true, {second});
  EXPECT_EQ(replica(0)->store().Read(7).version, 0u);
  EXPECT_EQ(replica(0)->DeferredCount(), 1u);
  replica(0)->HandleVisibility(1, true, {first});
  EXPECT_EQ(replica(0)->store().Read(7).version, 2u);
  EXPECT_EQ(replica(0)->store().Read(7).value, 20);
  EXPECT_EQ(replica(0)->DeferredCount(), 0u);
}

TEST_F(ReplicaFixture, CrashDropsDeferredChains) {
  replica(0)->HandleVisibility(2, true, {Physical(2, 7, 1, 20)});
  ASSERT_EQ(replica(0)->DeferredCount(), 1u);
  replica(0)->Crash();
  EXPECT_EQ(replica(0)->DeferredCount(), 0u) << "deferred chains are volatile";
  replica(0)->Restart();
  EXPECT_EQ(replica(0)->DeferredCount(), 0u);
}

TEST_F(ReplicaFixture, DuplicateVisibilityIsIdempotent) {
  WriteOption o = Physical(1, 7, 0, 42);
  replica(0)->HandleVisibility(1, true, {o});
  replica(0)->HandleVisibility(1, true, {o});
  EXPECT_EQ(replica(0)->store().Read(7).version, 1u);
  EXPECT_EQ(replica(0)->store().Read(7).value, 42);
}

TEST_F(ReplicaFixture, ClassicProposeWinsQuorum) {
  Key key = 3;  // master dc 3
  WriteOption o = Physical(1, key, 0, 9);
  bool decided = false, chosen = false;
  master_of(key)->HandleClassicPropose(o, 5, [&](ClassicReply r) {
    decided = true;
    chosen = r.chosen;
  });
  sim_.Run();
  EXPECT_TRUE(decided);
  EXPECT_TRUE(chosen);
  // The master and a majority of peers hold the pending option.
  int holders = 0;
  for (DcId dc = 0; dc < 5; ++dc) {
    holders += replica(dc)->store().PendingFor(key).size();
  }
  EXPECT_GE(holders, config_.ClassicQuorum());
}

TEST_F(ReplicaFixture, ClassicProposeStaleRejectedImmediately) {
  Key key = 3;
  master_of(key)->store().SeedValue(key, 1);  // version 1 at the master
  WriteOption o = Physical(1, key, 0, 9);     // stale read version
  bool decided = false, chosen = true;
  master_of(key)->HandleClassicPropose(o, 5, [&](ClassicReply r) {
    decided = true;
    chosen = r.chosen;
  });
  EXPECT_TRUE(decided) << "stale proposals fail without any messages";
  EXPECT_FALSE(chosen);
}

TEST_F(ReplicaFixture, ClassicQueueSerializesConflicts) {
  Key key = 3;
  Replica* master = master_of(key);
  // Txn 1 holds the record at the master via a fast accept.
  WriteOption holder = Physical(1, key, 0, 1);
  master->HandleFastAccept(holder, 5, [](VoteReply) {});
  // Txn 2's classic proposal conflicts: it must wait, not fail.
  WriteOption waiter = Physical(2, key, 0, 2);
  bool decided = false, chosen = false;
  master->HandleClassicPropose(waiter, 5, [&](ClassicReply r) {
    decided = true;
    chosen = r.chosen;
  });
  sim_.RunFor(Millis(100));
  EXPECT_FALSE(decided) << "queued behind txn 1's pending option";
  // Txn 1 aborts; the queue drains and txn 2's round proceeds and wins.
  master->HandleVisibility(1, false, {holder});
  sim_.Run();
  EXPECT_TRUE(decided);
  EXPECT_TRUE(chosen);
}

TEST_F(ReplicaFixture, ClassicQueueTimesOut) {
  Key key = 3;
  Replica* master = master_of(key);
  WriteOption holder = Physical(1, key, 0, 1);
  master->HandleFastAccept(holder, 5, [](VoteReply) {});
  WriteOption waiter = Physical(2, key, 0, 2);
  bool decided = false, chosen = true;
  master->HandleClassicPropose(waiter, 5, [&](ClassicReply r) {
    decided = true;
    chosen = r.chosen;
  });
  // The holder never resolves; the queue timeout rejects the waiter.
  sim_.RunFor(kClassicQueueTimeout + Millis(50));
  EXPECT_TRUE(decided);
  EXPECT_FALSE(chosen);
}

TEST_F(ReplicaFixture, AbortNoticeLearnsAnAbort) {
  Key key = 3;
  Replica* master = master_of(key);
  Replica* peer = replica((config_.MasterOf(key) + 1) % 5);
  // Txn 1 holds the record at the master and at a peer; txn 2's classic
  // proposal queues behind it at the master.
  WriteOption holder = Physical(1, key, 0, 1);
  master->HandleFastAccept(holder, 5, [](VoteReply) {});
  peer->HandleFastAccept(holder, 5, [](VoteReply) {});
  WriteOption waiter = Physical(2, key, 0, 2);
  bool decided = false, chosen = false;
  master->HandleClassicPropose(waiter, 5, [&](ClassicReply r) {
    decided = true;
    chosen = r.chosen;
  });
  sim_.RunFor(Millis(100));
  ASSERT_FALSE(decided);

  // The coordinator kills txn 1 early; both replicas learn the abort.
  peer->HandleAbortNotice(1, {holder});
  master->HandleAbortNotice(1, {holder});
  EXPECT_EQ(peer->abort_notices_received(), 1u);
  EXPECT_EQ(master->abort_notices_received(), 1u);
  EXPECT_EQ(peer->store().TotalPending(), 0u);
  VoteReply late;
  late.accepted = true;
  peer->HandleFastAccept(holder, 5, [&](VoteReply v) { late = v; });
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(peer->store().TotalPending(), 0u)
      << "a late accept after the notice must not strand a pending option";
  bool known = false, commit = true;
  peer->HandleResolveQuery(1, [&](bool k, bool c) {
    known = k;
    commit = c;
  });
  EXPECT_TRUE(known);
  EXPECT_FALSE(commit);

  // The released record unblocks the master's queue: txn 2's round wins.
  sim_.Run();
  EXPECT_TRUE(decided);
  EXPECT_TRUE(chosen);
}

TEST_F(ReplicaFixture, ResolveQueryAnswersKnownDecisions) {
  WriteOption o = Physical(1, 7, 0, 42);
  replica(0)->HandleVisibility(1, true, {o});
  bool known = false, commit = false;
  replica(0)->HandleResolveQuery(1, [&](bool k, bool c) {
    known = k;
    commit = c;
  });
  EXPECT_TRUE(known);
  EXPECT_TRUE(commit);
  replica(0)->HandleResolveQuery(999, [&](bool k, bool) { known = k; });
  EXPECT_FALSE(known);
}

TEST_F(ReplicaFixture, RecoveryResolvesStrandedPending) {
  // Replica 0 accepted txn 1; the decision (commit) reached only replica 1.
  WriteOption o = Physical(1, 7, 0, 42);
  replica(0)->HandleFastAccept(o, 5, [](VoteReply) {});
  replica(1)->HandleVisibility(1, true, {o});
  replica(0)->EnableRecovery(Seconds(1));
  sim_.RunFor(config_.txn_timeout + Seconds(3));
  EXPECT_EQ(replica(0)->store().TotalPending(), 0u);
  EXPECT_EQ(replica(0)->store().Read(7).value, 42);
  EXPECT_EQ(replica(0)->recovered_options(), 1u);
}

TEST_F(ReplicaFixture, SyncAdoptsFresherPhysicalState) {
  replica(1)->store().ApplyOrLearn(Physical(1, 7, 0, 10));
  replica(1)->store().ApplyOrLearn(Physical(2, 7, 1, 20));
  replica(0)->RequestSyncAll();
  sim_.Run();
  EXPECT_EQ(replica(0)->store().Read(7).version, 2u);
  EXPECT_EQ(replica(0)->store().Read(7).value, 20);
  EXPECT_GE(replica(0)->sync_records_adopted(), 1u);
}

TEST_F(ReplicaFixture, SyncDoesNotRegress) {
  replica(0)->store().ApplyOrLearn(Physical(1, 7, 0, 10));
  replica(0)->store().ApplyOrLearn(Physical(2, 7, 1, 20));
  replica(1)->store().ApplyOrLearn(Physical(1, 7, 0, 10));
  replica(0)->RequestSyncAll();  // peers are older or equal
  sim_.Run();
  EXPECT_EQ(replica(0)->store().Read(7).version, 2u);
  EXPECT_EQ(replica(0)->store().Read(7).value, 20);
}

TEST_F(ReplicaFixture, SyncClearsObsoleteDeferred) {
  // Replica 0 deferred the v2->v3 transition, but sync jumps it to v3
  // directly: the deferred entry must be discarded, not replayed.
  WriteOption third = Physical(3, 7, 2, 30);
  replica(0)->HandleVisibility(3, true, {third});
  EXPECT_EQ(replica(0)->DeferredCount(), 1u);
  replica(1)->store().ApplyOrLearn(Physical(1, 7, 0, 10));
  replica(1)->store().ApplyOrLearn(Physical(2, 7, 1, 20));
  replica(1)->store().ApplyOrLearn(third);
  replica(0)->RequestSyncAll();
  sim_.Run();
  EXPECT_EQ(replica(0)->DeferredCount(), 0u);
  EXPECT_EQ(replica(0)->store().Read(7).version, 3u);
  EXPECT_EQ(replica(0)->store().Read(7).value, 30);
}

TEST_F(ReplicaFixture, SyncAdoptsCounterWithMoreDeltas) {
  WriteOption d1;
  d1.txn = 1;
  d1.key = 9;
  d1.kind = OptionKind::kCommutative;
  d1.delta = 5;
  WriteOption d2 = d1;
  d2.txn = 2;
  d2.delta = 3;
  replica(0)->store().ApplyOrLearn(d1);  // value 5, 1 delta
  replica(1)->store().ApplyOrLearn(d1);
  replica(1)->store().ApplyOrLearn(d2);  // value 8, 2 deltas
  replica(0)->RequestSyncAll();
  sim_.Run();
  EXPECT_EQ(replica(0)->store().Read(9).value, 8);
}

// Regression: once the decided set outgrew its GC threshold with every
// decision younger than the horizon, each Visibility rescanned the whole
// set and freed nothing: learning 150,000 decisions took about 18 s. A
// pass now re-arms the threshold at twice its survivors.
TEST_F(ReplicaFixture, DecidedSetGcKeepsYoungDecisionsCheap) {
  constexpr TxnId kDecisions = 150000;
  for (TxnId txn = 1; txn <= kDecisions; ++txn) {
    replica(0)->HandleVisibility(txn, txn % 2 == 0, {});
  }
  sim_.Run();
  bool known = false;
  bool committed = true;
  replica(0)->HandleResolveQuery(1, [&](bool k, bool c) {
    known = k;
    committed = c;
  });
  EXPECT_TRUE(known) << "a decision younger than the horizon stays";
  EXPECT_FALSE(committed);
}

}  // namespace
}  // namespace planet
