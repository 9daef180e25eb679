// Crash-point sweep: recovery must work from EVERY prefix of the WAL, not
// just the crash points a workload happens to hit. Part one replays every
// prefix of a 50-entry log at the store level and checks the rebuilt state
// against stepwise ground truth. Part two power-cycles a live replica once
// per prefix inside one simulation — truncating its WAL to the prefix
// before restart — and requires WAL replay + RequestSyncAll to converge the
// replica byte-identically every time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/cluster.h"
#include "storage/store.h"

namespace planet {
namespace {

constexpr size_t kSweepEntries = 50;

TEST(CrashPointSweep, StoreReplaysEveryWalPrefixExactly) {
  // Ground truth: apply a deterministic mix of seeds, physical overwrites,
  // and commutative deltas, snapshotting after every WAL append.
  Store store;
  Rng rng(515);
  std::vector<std::map<Key, RecordView>> truth;
  truth.push_back(store.Snapshot());  // prefix 0 = empty
  while (store.wal().size() < kSweepEntries) {
    Key key = static_cast<Key>(rng.UniformInt(0, 9));
    RecordView cur = store.Read(key);
    if (cur.version == 0) {
      store.SeedValue(key, rng.UniformInt(1, 100));
    } else if (rng.Bernoulli(0.5)) {
      WriteOption option;
      option.txn = static_cast<TxnId>(store.wal().size());
      option.key = key;
      option.kind = OptionKind::kPhysical;
      option.read_version = cur.version;
      option.new_value = rng.UniformInt(1, 100);
      store.ApplyOrLearn(option);
    } else {
      WriteOption option;
      option.txn = static_cast<TxnId>(store.wal().size());
      option.key = key;
      option.kind = OptionKind::kCommutative;
      option.delta = rng.UniformInt(1, 5);
      store.ApplyOrLearn(option);
    }
    ASSERT_EQ(store.wal().size(), truth.size())
        << "each operation must append exactly one WAL entry";
    truth.push_back(store.Snapshot());
  }

  const std::vector<WalEntry> full_log = store.wal();
  for (size_t p = 0; p <= kSweepEntries; ++p) {
    Store recovered;
    recovered.RestoreFromLog(
        std::vector<WalEntry>(full_log.begin(), full_log.begin() + p));
    EXPECT_EQ(recovered.Snapshot(), truth[p]) << "prefix " << p;
    EXPECT_EQ(recovered.wal().size(), p)
        << "replay must not grow the restored log";
    EXPECT_EQ(recovered.TotalPending(), 0u)
        << "pending options are volatile and must not survive recovery";
  }
}

TEST(CrashPointSweep, ReplicaRecoversFromEveryWalPrefix) {
  // One scripted increment per second on key 0 builds a 50-commit chain
  // (seed entry + 50 physical entries in every replica's WAL). Then, at
  // quiet times, replica 2 is power-cycled once per prefix p: crash,
  // truncate its WAL to the first p entries (the suffix died with the
  // power), restart. Replay of the prefix plus the automatic anti-entropy
  // catch-up must restore byte-identical state every single time.
  ClusterOptions options;
  options.seed = 515;
  options.clients_per_dc = 1;
  options.mdcc.txn_timeout = Seconds(2);
  options.mdcc.read_timeout = Millis(500);
  options.recovery_period = Seconds(1);
  Cluster cluster(options);
  cluster.SeedKey(0, 100);

  uint64_t committed = 0;
  Client* client = cluster.client(0);  // DC 0, key 0's master DC
  for (int k = 0; k < static_cast<int>(kSweepEntries); ++k) {
    cluster.sim().ScheduleAt(Seconds(1 + k), [&committed, client] {
      TxnId txn = client->Begin();
      client->Read(txn, 0, [&committed, client, txn](Status s, RecordView v) {
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_TRUE(client->Write(txn, 0, v.value + 1).ok());
        client->Commit(txn, [&committed](Status c) {
          if (c.ok()) ++committed;
        });
      });
    });
  }

  // Capture the full WAL once traffic has quiesced.
  std::vector<WalEntry> full_log;
  cluster.sim().ScheduleAt(Seconds(60), [&] {
    full_log = cluster.replica(2)->store().wal();
  });

  std::vector<std::string> failures;
  auto check_recovered = [&](size_t p) {
    auto want = cluster.replica(0)->store().Snapshot();
    auto got = cluster.replica(2)->store().Snapshot();
    if (got != want) {
      failures.push_back("prefix " + std::to_string(p) +
                         ": replica 2 does not match replica 0 after "
                         "replay + sync");
    }
    if (!cluster.ReplicasConverged()) {
      failures.push_back("prefix " + std::to_string(p) +
                         ": cluster not converged");
    }
  };
  for (size_t p = 0; p <= kSweepEntries; ++p) {
    SimTime base = Seconds(70 + 10 * static_cast<int64_t>(p));
    cluster.sim().ScheduleAt(base, [&, p] {
      ASSERT_GE(full_log.size(), kSweepEntries + 1)
          << "seed entry + one entry per committed increment";
      cluster.CrashReplica(2);
      cluster.replica(2)->store().RestoreFromLog(
          std::vector<WalEntry>(full_log.begin(), full_log.begin() + p));
      cluster.RestartReplica(2);
    });
    cluster.sim().ScheduleAt(base + Seconds(9), [&, p] { check_recovered(p); });
  }
  cluster.Drain();

  EXPECT_EQ(committed, kSweepEntries);
  for (const std::string& f : failures) ADD_FAILURE() << f;
  // The quiesced chain: seed v1=100 plus 50 committed increments.
  RecordView final_view = cluster.replica(0)->store().Read(0);
  EXPECT_EQ(final_view.version, 1 + kSweepEntries);
  EXPECT_EQ(final_view.value, static_cast<Value>(100 + kSweepEntries));
}

}  // namespace
}  // namespace planet
