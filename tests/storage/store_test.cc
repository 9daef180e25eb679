#include "storage/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace planet {
namespace {

WriteOption Physical(TxnId txn, Key key, Version read_version, Value value) {
  WriteOption o;
  o.txn = txn;
  o.key = key;
  o.kind = OptionKind::kPhysical;
  o.read_version = read_version;
  o.new_value = value;
  return o;
}

WriteOption Commutative(TxnId txn, Key key, Value delta) {
  WriteOption o;
  o.txn = txn;
  o.key = key;
  o.kind = OptionKind::kCommutative;
  o.delta = delta;
  return o;
}

TEST(Store, UnwrittenKeyReadsZero) {
  Store store;
  RecordView v = store.Read(12345);
  EXPECT_EQ(v.version, 0u);
  EXPECT_EQ(v.value, 0);
}

TEST(Store, SeedValueBumpsVersion) {
  Store store;
  store.SeedValue(1, 50);
  EXPECT_EQ(store.Read(1).version, 1u);
  EXPECT_EQ(store.Read(1).value, 50);
}

TEST(Store, AcceptApplyPhysical) {
  Store store;
  WriteOption o = Physical(10, 1, 0, 42);
  ASSERT_TRUE(store.TryAcceptOption(o).ok());
  EXPECT_EQ(store.TotalPending(), 1u);
  EXPECT_EQ(store.Read(1).value, 0) << "pending is not visible";
  store.ApplyOrLearn(o);
  EXPECT_EQ(store.Read(1).version, 1u);
  EXPECT_EQ(store.Read(1).value, 42);
  EXPECT_EQ(store.TotalPending(), 0u);
}

TEST(Store, StaleReadVersionRejected) {
  Store store;
  store.SeedValue(1, 5);  // version 1
  Status st = store.TryAcceptOption(Physical(10, 1, 0, 42));
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(store.rejects_stale(), 1u);
  EXPECT_EQ(store.TotalPending(), 0u) << "a rejected option is not accepted";
}

TEST(Store, PendingConflictRejected) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Physical(10, 1, 0, 42)).ok());
  Status st = store.TryAcceptOption(Physical(11, 1, 0, 43));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.rejects_conflict(), 1u);
  EXPECT_EQ(store.TotalPending(), 1u);
}

TEST(Store, SameTxnReacceptIsIdempotent) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Physical(10, 1, 0, 42)).ok());
  ASSERT_TRUE(store.TryAcceptOption(Physical(10, 1, 0, 99)).ok());  // replaces
  ASSERT_EQ(store.TotalPending(), 1u);
  EXPECT_EQ(store.PendingFor(1)[0].new_value, 99);
  store.ApplyOrLearn(Physical(10, 1, 0, 99));
  EXPECT_EQ(store.Read(1).value, 99);
  EXPECT_EQ(store.TotalPending(), 0u);
}

TEST(Store, RemoveOptionClearsPending) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Physical(10, 1, 0, 42)).ok());
  store.RemoveOption(10, 1);
  EXPECT_EQ(store.TotalPending(), 0u);
  EXPECT_EQ(store.Read(1).version, 0u);
  // Now another txn can take the record.
  EXPECT_TRUE(store.TryAcceptOption(Physical(11, 1, 0, 43)).ok());
}

TEST(Store, LearnOptionAppliesDirectly) {
  Store store;
  store.ApplyOrLearn(Physical(10, 1, 0, 42));  // never accepted here
  EXPECT_EQ(store.Read(1).version, 1u);
  EXPECT_EQ(store.Read(1).value, 42);
}

TEST(Store, LearnErasesMatchingPending) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Physical(10, 1, 0, 42)).ok());
  store.ApplyOrLearn(Physical(10, 1, 0, 42));
  EXPECT_EQ(store.TotalPending(), 0u);
  EXPECT_EQ(store.Read(1).version, 1u);
}

TEST(Store, CommutativeDoesNotBumpVersion) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Commutative(10, 1, 5)).ok());
  store.ApplyOrLearn(Commutative(10, 1, 5));
  EXPECT_EQ(store.Read(1).value, 5);
  EXPECT_EQ(store.Read(1).version, 0u);
}

TEST(Store, CommutativeOptionsCoexist) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Commutative(10, 1, 5)).ok());
  EXPECT_TRUE(store.TryAcceptOption(Commutative(11, 1, 3)).ok());
  EXPECT_EQ(store.TotalPending(), 2u);
  store.ApplyOrLearn(Commutative(10, 1, 5));
  store.ApplyOrLearn(Commutative(11, 1, 3));
  EXPECT_EQ(store.TotalPending(), 0u);
  EXPECT_EQ(store.Read(1).value, 8);
}

TEST(Store, CommutativeConflictsWithPendingPhysical) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Physical(10, 1, 0, 42)).ok());
  EXPECT_EQ(store.TryAcceptOption(Commutative(11, 1, 3)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Store, PhysicalConflictsWithPendingCommutative) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Commutative(10, 1, 3)).ok());
  EXPECT_EQ(store.TryAcceptOption(Physical(11, 1, 0, 42)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Store, DemarcationLowerBound) {
  Store store;
  store.SeedValue(1, 10);
  store.SetBounds(1, ValueBounds{0, 1000});
  // Two pending -6 deltas would allow the value to go to -2: the second must
  // be rejected even though each alone is fine.
  ASSERT_TRUE(store.TryAcceptOption(Commutative(10, 1, -6)).ok());
  Status st = store.TryAcceptOption(Commutative(11, 1, -6));
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(store.rejects_bounds(), 1u);
  // A smaller decrement still fits.
  EXPECT_TRUE(store.TryAcceptOption(Commutative(11, 1, -4)).ok());
}

TEST(Store, DemarcationUpperBound) {
  Store store;
  store.SetBounds(1, ValueBounds{0, 10});
  ASSERT_TRUE(store.TryAcceptOption(Commutative(10, 1, 6)).ok());
  EXPECT_TRUE(store.TryAcceptOption(Commutative(11, 1, 6)).IsAborted());
  EXPECT_TRUE(store.TryAcceptOption(Commutative(11, 1, 4)).ok());
}

TEST(Store, WalRecordsTransitions) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Physical(10, 1, 0, 42)).ok());
  store.ApplyOrLearn(Physical(10, 1, 0, 42));
  store.ApplyOrLearn(Physical(11, 2, 0, 7));
  ASSERT_EQ(store.wal().size(), 2u);
  EXPECT_EQ(store.wal()[0].txn, 10u);
  EXPECT_EQ(store.wal()[0].new_value, 42);
  EXPECT_EQ(store.wal()[1].key, 2u);
}

TEST(Store, SnapshotListsMaterializedRecords) {
  Store store;
  store.SeedValue(3, 30);
  store.SeedValue(1, 10);
  auto snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[1].value, 10);
  EXPECT_EQ(snap[3].value, 30);
}

TEST(Store, PendingForReturnsOptions) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Commutative(10, 1, 5)).ok());
  ASSERT_TRUE(store.TryAcceptOption(Commutative(11, 1, 2)).ok());
  auto pending = store.PendingFor(1);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(store.PendingFor(999).size(), 0u);
}

TEST(Store, ExportStateRoundTrips) {
  Store a;
  a.SeedValue(1, 10);
  a.ApplyOrLearn(Commutative(5, 2, 7));
  auto state = a.ExportState();
  ASSERT_EQ(state.size(), 2u);
  Store b;
  for (const auto& entry : state) EXPECT_TRUE(b.AdoptRecord(entry));
  EXPECT_EQ(b.Snapshot(), a.Snapshot());
}

TEST(Store, AdoptRecordRefusesStaleState) {
  Store store;
  store.SeedValue(1, 10);
  store.SeedValue(1, 20);  // version 2
  EXPECT_FALSE(store.AdoptRecord(SyncEntry{1, 1, 99, 0, {}}));
  EXPECT_EQ(store.Read(1).value, 20);
  EXPECT_TRUE(store.AdoptRecord(SyncEntry{1, 3, 30, 0, {}}));
  EXPECT_EQ(store.Read(1).value, 30);
}

TEST(Store, AdoptRecordUsesDeltaCountAtEqualVersion) {
  Store store;
  store.ApplyOrLearn(Commutative(1, 9, 5));  // value 5, 1 delta, version 0
  // Same version, fewer deltas: refused.
  EXPECT_FALSE(store.AdoptRecord(SyncEntry{9, 0, 0, 0, {}}));
  // Same version, more deltas: adopted.
  EXPECT_TRUE(store.AdoptRecord(SyncEntry{9, 0, 8, 2, {}}));
  EXPECT_EQ(store.Read(9).value, 8);
}

// Regression: a delta the record inherited through AdoptRecord must not be
// applied again when the transaction's own (late) learn arrives. Found by
// planet_fuzz: a restarted replica synced a peer's counter that already
// embedded txn T's delta, then received T's visibility broadcast, applied
// the delta a second time, and anti-entropy spread the corrupt record to
// every replica ("equal version, more deltas" reads as fresher).
TEST(Store, LearnAfterAdoptionOfSameDeltaIsIdempotent) {
  Store peer;
  WriteOption t = Commutative(42, 7, 5);
  peer.ApplyOrLearn(t);  // peer applied T: value 5, one delta

  Store restarted;
  for (const auto& entry : peer.ExportState()) {
    ASSERT_TRUE(restarted.AdoptRecord(entry));
  }
  EXPECT_EQ(restarted.Read(7).value, 5);

  restarted.ApplyOrLearn(t);  // T's visibility arrives after the sync
  EXPECT_EQ(restarted.Read(7).value, 5) << "delta applied twice";

  // The idempotence must survive a crash: the adoption WAL entry carries
  // the embedded delta set.
  restarted.RecoverFromWal();
  restarted.ApplyOrLearn(t);
  EXPECT_EQ(restarted.Read(7).value, 5) << "delta re-applied after replay";
}

TEST(Store, DirectReapplicationOfSameDeltaIsIdempotent) {
  Store store;
  WriteOption t = Commutative(42, 7, 5);
  store.ApplyOrLearn(t);
  store.ApplyOrLearn(t);  // duplicate visibility delivery
  EXPECT_EQ(store.Read(7).value, 5);

  store.RecoverFromWal();
  EXPECT_EQ(store.Read(7).value, 5);
  store.ApplyOrLearn(t);
  EXPECT_EQ(store.Read(7).value, 5);
}

TEST(Store, AdoptRecordKeepsPendingOptions) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Commutative(7, 3, 1)).ok());
  EXPECT_TRUE(store.AdoptRecord(SyncEntry{3, 2, 50, 0, {}}));
  EXPECT_EQ(store.TotalPending(), 1u) << "sync must not drop pendings";
  EXPECT_EQ(store.Read(3).value, 50);
}

TEST(Store, SnapshotOmitsUntouchedDefaults) {
  Store store;
  ASSERT_TRUE(store.TryAcceptOption(Physical(1, 4, 0, 9)).ok());
  store.RemoveOption(1, 4);  // record materialized but never committed to
  EXPECT_TRUE(store.Snapshot().empty());
}

TEST(Store, VersionChainAdvancesSequentially) {
  Store store;
  for (Version v = 0; v < 10; ++v) {
    WriteOption o = Physical(100 + v, 1, v, static_cast<Value>(v + 1));
    ASSERT_TRUE(store.TryAcceptOption(o).ok()) << "v=" << v;
    store.ApplyOrLearn(o);
  }
  EXPECT_EQ(store.Read(1).version, 10u);
  EXPECT_EQ(store.Read(1).value, 10);
}

// Version-ordered apply (ApplyInOrder), the learner path of both stacks.

TEST(Store, OutOfOrderLearnsApplyInVersionOrder) {
  Store store;
  store.ApplyInOrder(Physical(12, 1, 2, 30));  // waits for v2
  store.ApplyInOrder(Physical(11, 1, 1, 20));  // waits for v1
  EXPECT_EQ(store.DeferredCount(), 2u);
  EXPECT_EQ(store.Read(1).version, 0u) << "nothing applies out of order";
  store.ApplyInOrder(Physical(10, 1, 0, 10));  // unblocks the chain
  EXPECT_EQ(store.DeferredCount(), 0u);
  EXPECT_EQ(store.Read(1).version, 3u);
  EXPECT_EQ(store.Read(1).value, 30);
  ASSERT_EQ(store.wal().size(), 3u);
  EXPECT_EQ(store.wal()[0].txn, 10u);
  EXPECT_EQ(store.wal()[1].txn, 11u);
  EXPECT_EQ(store.wal()[2].txn, 12u);
}

TEST(Store, CommutativeLearnsApplyWithoutWaiting) {
  Store store;
  store.ApplyInOrder(Physical(11, 1, 1, 20));  // deferred
  store.ApplyInOrder(Commutative(12, 1, 5));
  EXPECT_EQ(store.Read(1).value, 5);
  EXPECT_EQ(store.DeferredCount(), 1u);
}

TEST(Store, LearnBehindCurrentVersionIsDropped) {
  Store store;
  WriteOption late = Physical(10, 1, 0, 42);
  ASSERT_TRUE(store.TryAcceptOption(late).ok());
  // Anti-entropy installs a newer record; the pending option stays.
  ASSERT_TRUE(store.AdoptRecord(SyncEntry{1, 1, 7, 0, {}}));
  ASSERT_EQ(store.TotalPending(), 1u);
  store.ApplyInOrder(late);  // its visibility arrives after the sync
  EXPECT_EQ(store.TotalPending(), 0u) << "the obsolete pending entry goes";
  EXPECT_EQ(store.Read(1).version, 1u);
  EXPECT_EQ(store.Read(1).value, 7);
  EXPECT_EQ(store.DeferredCount(), 0u);
  EXPECT_EQ(store.wal().size(), 1u) << "only the adoption is logged";
}

TEST(Store, AdoptRecordPrunesAndDrainsDeferredChain) {
  Store store;
  store.ApplyInOrder(Physical(11, 1, 1, 20));
  store.ApplyInOrder(Physical(12, 1, 2, 30));
  store.ApplyInOrder(Physical(14, 1, 4, 50));
  ASSERT_EQ(store.DeferredCount(), 3u);
  // Jumping to v2 makes the v1 transition obsolete and unblocks v2 -> v3;
  // v4 still waits for the missing v3 transition.
  ASSERT_TRUE(store.AdoptRecord(SyncEntry{1, 2, 25, 0, {}}));
  EXPECT_EQ(store.Read(1).version, 3u);
  EXPECT_EQ(store.Read(1).value, 30);
  EXPECT_EQ(store.DeferredCount(), 1u);
  store.ApplyInOrder(Physical(13, 1, 3, 40));
  EXPECT_EQ(store.Read(1).version, 5u);
  EXPECT_EQ(store.Read(1).value, 50);
  EXPECT_EQ(store.DeferredCount(), 0u);
}

TEST(Store, RefusedAdoptionLeavesDeferredChain) {
  Store store;
  store.SeedValue(1, 10);  // version 1
  store.ApplyInOrder(Physical(12, 1, 2, 30));
  EXPECT_FALSE(store.AdoptRecord(SyncEntry{1, 1, 10, 0, {}}));
  EXPECT_EQ(store.DeferredCount(), 1u);
  EXPECT_EQ(store.Read(1).version, 1u);
}

// More records than one index doubling or one record chunk holds: every
// third key is accepted and applied, every third adopted from a peer, and
// every third only accepted (pending, still at the logical default).
TEST(Store, ManyRecordsMatchAMapReference) {
  constexpr uint64_t kKeys = 120000;
  Store store;
  std::map<Key, RecordView> committed;
  std::vector<SyncEntry> exported;
  for (uint64_t i = 0; i < kKeys; ++i) {
    const Key key = i * 2654435761u;  // distinct and not sequential
    const Value value = static_cast<Value>(i) + 1;
    switch (i % 3) {
      case 0:
        ASSERT_TRUE(store.TryAcceptOption(Physical(i + 1, key, 0, value)).ok());
        store.ApplyOrLearn(Physical(i + 1, key, 0, value));
        committed[key] = RecordView{1, value};
        break;
      case 1:
        ASSERT_TRUE(store.AdoptRecord(SyncEntry{key, 5, value, 0, {}}));
        committed[key] = RecordView{5, value};
        break;
      default:
        ASSERT_TRUE(store.TryAcceptOption(Physical(i + 1, key, 0, value)).ok());
        exported.push_back(SyncEntry{key, 0, 0, 0, {}});
        break;
    }
  }
  for (const auto& [key, view] : committed) {
    exported.push_back(SyncEntry{key, view.version, view.value, 0, {}});
  }
  std::sort(exported.begin(), exported.end(),
            [](const SyncEntry& a, const SyncEntry& b) {
              return a.key < b.key;
            });

  auto expect_state = [&](size_t pending) {
    EXPECT_EQ(store.Snapshot(), committed);
    EXPECT_EQ(store.TotalPending(), pending);
    for (const auto& [key, view] : committed) {
      ASSERT_EQ(store.Read(key), view) << "key " << key;
    }
    EXPECT_EQ(store.Read(1), RecordView{}) << "never touched";
    std::vector<SyncEntry> state = store.ExportState();
    ASSERT_EQ(state.size(), exported.size());
    for (size_t i = 0; i < state.size(); ++i) {
      ASSERT_EQ(state[i].key, exported[i].key);
      ASSERT_EQ(state[i].version, exported[i].version);
      ASSERT_EQ(state[i].value, exported[i].value);
    }
  };
  expect_state(kKeys / 3);
  // Replay keeps the committed records; pending-only ones come back only
  // if logged, and accepts are not.
  store.RecoverFromWal();
  std::erase_if(exported, [](const SyncEntry& e) { return e.version == 0; });
  expect_state(0);
}

}  // namespace
}  // namespace planet
