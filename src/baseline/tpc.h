// Geo-replicated two-phase-commit baseline.
//
// This is the comparison system: a classical eager commit protocol with
// primary-copy semantics and no progress visibility, no prediction, no
// speculation. Each key has a home (master) node; commit runs
//   Phase 1  Prepare at every written key's home node: validate the read
//            version and take a no-wait write lock (conflict => vote no).
//   Phase 2  Commit: apply at the home node, then synchronously replicate
//            to a majority of the other data centers before acking; or
//            Abort: release locks.
// Reads are served by the local DC replica (read committed) through the
// same client front end as the MDCC stack (txn/coordinator.h), so that the
// comparison isolates commit processing.
#ifndef PLANET_BASELINE_TPC_H_
#define PLANET_BASELINE_TPC_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "sim/node.h"
#include "storage/store.h"
#include "txn/coordinator.h"

namespace planet {

/// Baseline configuration: StackConfig's timeouts and master placement
/// (MasterOf is a key's home node).
struct TpcConfig : StackConfig {
  /// Synchronous replication degree: majority of DCs (including the master).
  int ReplicationQuorum() const { return num_dcs / 2 + 1; }
};

/// Participant + replica node of the 2PC baseline.
class TpcNode : public Node {
 public:
  TpcNode(Simulator* sim, Network* net, NodeId id, DcId dc, Rng rng,
          const TpcConfig& config);

  void SetPeers(std::vector<TpcNode*> peers);

  Store& store() { return store_; }
  const Store& store() const { return store_; }

  /// Phase 1 at the key's home node.
  void HandlePrepare(TxnId txn, Key key, Version read_version,
                     std::function<void(bool)> reply);

  /// Phase 2 commit at the key's home node: applies, then replies once a
  /// majority of DCs (including this one) hold the update.
  void HandleCommit(TxnId txn, const WriteOption& option,
                    std::function<void()> reply);

  /// Phase 2 abort at the key's home node: releases the lock.
  void HandleAbort(TxnId txn, Key key);

  /// Replication apply at a non-home replica (Store::ApplyInOrder).
  void HandleReplicate(const WriteOption& option,
                       std::function<void()> ack);

  /// Local read-committed read.
  void HandleRead(Key key, std::function<void(RecordView)> reply);

  /// Crash/restart: locks and deferred chains are volatile; committed state
  /// is rebuilt from the WAL. 2PC has no anti-entropy, so replication this
  /// node missed while down stays missing — the blocking behaviour the
  /// baseline is meant to exhibit.
  void Crash();
  void Restart();

  size_t LockedKeys() const { return locks_.size(); }

 private:
  TpcConfig config_;
  Store store_;
  std::vector<TpcNode*> peers_;
  /// key -> the transaction holding its lock.
  FlatMap<TxnId> locks_;
};

/// Client-side 2PC coordinator: the shared front end (Read, Write, Commit,
/// AbortEarly, recording, isolation, schedule delays) over the 2PC commit.
/// A finished transaction whose phase-2 commit went out but whose ack
/// quorum never arrived is recorded in doubt, so the oracles treat its
/// writes as possibly applied.
class TpcClient : public Coordinator {
 public:
  TpcClient(Simulator* sim, Network* net, NodeId id, DcId dc, Rng rng,
            const TpcConfig& config, std::vector<TpcNode*> nodes);

  TxnId Begin();

  uint64_t committed() const { return committed_; }
  uint64_t aborted() const { return aborted_; }

 private:
  enum class Phase { kExecuting, kPreparing, kCommitting, kDone };
  struct TxnState : TxnBuffer {
    Phase phase = Phase::kExecuting;
    EventId timeout_event = kInvalidEventId;
    int votes_pending = 0;
    bool vote_failed = false;
    std::vector<Key> prepared;  ///< keys that voted yes (locks to release)
    int acks_pending = 0;
    bool commit_sent = false;  ///< phase-2 commit messages are out
  };

  TxnState* Find(TxnId txn);
  TxnBuffer* FindExecuting(TxnId txn) override;
  void Forget(TxnId txn) override;
  void SendRead(std::shared_ptr<PendingRead> read) override;
  void StartCommit(TxnBuffer& txn) override;
  void OnVote(TxnId txn, Key key, bool yes);
  void StartPhase2(TxnState& state, bool commit, Status outcome);
  void OnCommitAck(TxnId txn);
  void Finish(TxnState& state, Status outcome);

  TpcConfig config_;
  std::vector<TpcNode*> nodes_;
  std::unordered_map<TxnId, TxnState> txns_;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
};

}  // namespace planet

#endif  // PLANET_BASELINE_TPC_H_
