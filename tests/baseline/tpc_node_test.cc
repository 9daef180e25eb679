// Node-level unit tests of the 2PC participant: locking discipline,
// prepare validation, replication ordering.
#include <gtest/gtest.h>

#include "baseline/tpc.h"
#include "harness/wan.h"

namespace planet {
namespace {

class TpcNodeFixture : public ::testing::Test {
 protected:
  TpcNodeFixture() : net_(&sim_, Rng(9)) {
    config_.num_dcs = 5;
    ApplyWan(&net_, UniformWan(5, 10.0));
    std::vector<TpcNode*> peers;
    for (DcId dc = 0; dc < 5; ++dc) {
      nodes_.push_back(std::make_unique<TpcNode>(
          &sim_, &net_, dc, dc, Rng(50 + uint64_t(dc)), config_));
      peers.push_back(nodes_.back().get());
    }
    for (auto& n : nodes_) n->SetPeers(peers);
  }

  static WriteOption Physical(TxnId txn, Key key, Version rv, Value v) {
    WriteOption o;
    o.txn = txn;
    o.key = key;
    o.read_version = rv;
    o.new_value = v;
    return o;
  }

  TpcNode* home_of(Key key) {
    return nodes_[size_t(config_.MasterOf(key))].get();
  }

  TpcConfig config_;
  Simulator sim_;
  Network net_;
  std::vector<std::unique_ptr<TpcNode>> nodes_;
};

TEST_F(TpcNodeFixture, PrepareTakesLock) {
  TpcNode* home = home_of(3);
  bool yes = false;
  home->HandlePrepare(1, 3, 0, [&](bool v) { yes = v; });
  EXPECT_TRUE(yes);
  EXPECT_EQ(home->LockedKeys(), 1u);
}

TEST_F(TpcNodeFixture, ConflictingPrepareVotesNo) {
  TpcNode* home = home_of(3);
  home->HandlePrepare(1, 3, 0, [](bool) {});
  bool second = true;
  home->HandlePrepare(2, 3, 0, [&](bool v) { second = v; });
  EXPECT_FALSE(second) << "no-wait locking";
  EXPECT_EQ(home->LockedKeys(), 1u);
}

TEST_F(TpcNodeFixture, ReprepareBySameTxnIsIdempotent) {
  TpcNode* home = home_of(3);
  home->HandlePrepare(1, 3, 0, [](bool) {});
  bool again = false;
  home->HandlePrepare(1, 3, 0, [&](bool v) { again = v; });
  EXPECT_TRUE(again);
  EXPECT_EQ(home->LockedKeys(), 1u);
}

TEST_F(TpcNodeFixture, StalePrepareVotesNo) {
  TpcNode* home = home_of(3);
  home->store().SeedValue(3, 9);  // version 1
  bool yes = true;
  home->HandlePrepare(1, 3, /*read_version=*/0, [&](bool v) { yes = v; });
  EXPECT_FALSE(yes);
  EXPECT_EQ(home->LockedKeys(), 0u);
}

TEST_F(TpcNodeFixture, AbortReleasesOnlyOwnLock) {
  TpcNode* home = home_of(3);
  home->HandlePrepare(1, 3, 0, [](bool) {});
  home->HandleAbort(2, 3);  // wrong txn: no effect
  EXPECT_EQ(home->LockedKeys(), 1u);
  home->HandleAbort(1, 3);
  EXPECT_EQ(home->LockedKeys(), 0u);
}

TEST_F(TpcNodeFixture, CommitAppliesReplicatesAndAcks) {
  TpcNode* home = home_of(3);
  home->HandlePrepare(1, 3, 0, [](bool) {});
  bool acked = false;
  home->HandleCommit(1, Physical(1, 3, 0, 42), [&] { acked = true; });
  EXPECT_EQ(home->store().Read(3).value, 42) << "applied immediately";
  EXPECT_EQ(home->LockedKeys(), 0u) << "lock released at apply";
  EXPECT_FALSE(acked) << "ack waits for the replication quorum";
  sim_.Run();
  EXPECT_TRUE(acked);
  int holders = 0;
  for (auto& n : nodes_) {
    if (n->store().Read(3).value == 42) ++holders;
  }
  EXPECT_EQ(holders, 5) << "replication reaches everyone eventually";
}

TEST_F(TpcNodeFixture, ReplicationAppliesInVersionOrder) {
  TpcNode* node = nodes_[1].get();
  // v1->v2 arrives before v0->v1.
  bool ack2 = false, ack1 = false;
  node->HandleReplicate(Physical(2, 3, 1, 20), [&] { ack2 = true; });
  EXPECT_TRUE(ack2);
  EXPECT_EQ(node->store().Read(3).version, 0u) << "deferred";
  node->HandleReplicate(Physical(1, 3, 0, 10), [&] { ack1 = true; });
  EXPECT_TRUE(ack1);
  EXPECT_EQ(node->store().Read(3).version, 2u);
  EXPECT_EQ(node->store().Read(3).value, 20);
}

TEST_F(TpcNodeFixture, CrashDropsDeferredReplication) {
  TpcNode* node = nodes_[1].get();
  node->HandleReplicate(Physical(2, 3, 1, 20), [] {});
  ASSERT_EQ(node->store().DeferredCount(), 1u);
  node->Crash();
  EXPECT_EQ(node->store().DeferredCount(), 0u);
  node->Restart();
  node->HandleReplicate(Physical(1, 3, 0, 10), [] {});
  EXPECT_EQ(node->store().Read(3).version, 1u) << "the lost link stays lost";
}

TEST_F(TpcNodeFixture, DuplicateReplicationIgnored) {
  TpcNode* node = nodes_[1].get();
  node->HandleReplicate(Physical(1, 3, 0, 10), [] {});
  node->HandleReplicate(Physical(1, 3, 0, 10), [] {});
  EXPECT_EQ(node->store().Read(3).version, 1u);
}

}  // namespace
}  // namespace planet
