// Replica node: acceptor of per-record Paxos instances, per-record master
// for the classic path, and learner of transaction visibility.
//
// Safety argument (documented in DESIGN.md): an option is *chosen* when a
// fast quorum (N - floor(N/4)) or a classic quorum (majority, serialized by
// the key's master) accepts it. Every acceptor applies the same conflict
// check before accepting, so two conflicting options can never both be
// chosen: their quorums would overlap in an acceptor that accepted both
// while both were pending, which the check forbids. The commit point of a
// transaction is the coordinator's decision (all options chosen); replicas
// make options visible only on the coordinator's Visibility message, and
// physical transitions are applied in version order so replicas converge to
// identical state regardless of delivery order.
#ifndef PLANET_MDCC_REPLICA_H_
#define PLANET_MDCC_REPLICA_H_

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "mdcc/config.h"
#include "sim/node.h"
#include "storage/store.h"

namespace planet {

/// Reply to a (fast or classic) accept request.
struct VoteReply {
  bool accepted = false;
  /// Rejection breakdown (meaningful when !accepted).
  bool stale = false;     ///< version mismatch / bounds violated
  bool conflict = false;  ///< pending option of another transaction
};

/// Reply to a classic proposal.
struct ClassicReply {
  bool chosen = false;
  /// Rejected because the receiving DC is not the master of the option's
  /// key at the proposal's epoch (stale-epoch or misrouted proposal).
  bool wrong_master = false;
  /// The replica's current epoch for the key's group, so the coordinator
  /// can catch up without probing every DC.
  int epoch_hint = 0;
};

class Replica : public Node {
 public:
  Replica(Simulator* sim, Network* net, NodeId id, DcId dc, Rng rng,
          const MdccConfig& config);

  /// Wires up peer replicas (call once, after all replicas are built).
  void SetPeers(std::vector<Replica*> peers);

  Store& store() { return store_; }
  const Store& store() const { return store_; }

  // -- Acceptor ---------------------------------------------------------
  /// Fast-path accept: check the option against local state; accept if
  /// compatible. `reply` is routed back to the caller over the network.
  void HandleFastAccept(const WriteOption& option, NodeId reply_to,
                        std::function<void(VoteReply)> reply);

  // -- Master (classic path) -------------------------------------------
  /// Classic proposal: this replica must be the master of the option's key
  /// at the option's mastership epoch. It serializes the option (local
  /// check first), then gathers a classic quorum from its peers.
  /// `reply.chosen` means the option is chosen; a proposal carrying a stale
  /// epoch (or routed to the wrong DC) is rejected with `wrong_master`.
  void HandleClassicPropose(const WriteOption& option, NodeId reply_to,
                            std::function<void(ClassicReply)> reply);

  /// Peer-side accept of a master-forwarded option.
  void HandleMasterAccept(const WriteOption& option, NodeId master,
                          std::function<void(VoteReply)> reply);

  // -- Learner ----------------------------------------------------------
  /// Coordinator decision: commit makes every option visible (in version
  /// order for physical options); abort drops pending options.
  void HandleVisibility(TxnId txn, bool commit,
                        const std::vector<WriteOption>& options);

  /// Predictive early abort (experiment F11): the coordinator killed the
  /// transaction before its Paxos round resolved. Runs the learn step of an
  /// abort Visibility — pending options are dropped, the decision is learned
  /// so late accepts are refused and resolve queries answer — and differs
  /// from it only in the abort_notices_received counter and the message
  /// class (MsgClass::kAbortNotice); the decided-set GC stays with
  /// Visibility. Safe across failover and WAL recovery by construction: the
  /// body is idempotent, touches only volatile state (never the WAL), rides
  /// the incarnation-guarded service queue, and the Network drops
  /// deliveries to crashed nodes — a notice that raced a crash is simply
  /// re-resolved by the recovery protocol like any other lost decision.
  void HandleAbortNotice(TxnId txn, const std::vector<WriteOption>& options);

  uint64_t abort_notices_received() const { return abort_notices_received_; }

  // -- Reads ------------------------------------------------------------
  /// Committed-visibility read of a key (the serializable / causal path).
  void HandleRead(Key key, NodeId reply_to,
                  std::function<void(RecordView)> reply);

  /// Read-committed-visibility read: may expose a pending physical option's
  /// would-be state (see Store::ReadSpeculative); the reply says whether it
  /// did. Same service cost as HandleRead.
  /// Reply callback matches the HandleRead family's public RPC signature.
  void HandleReadSpeculative(  // planet-lint: allow(std-function-hot-path)
      Key key, NodeId reply_to, std::function<void(RecordView, bool)> reply);

  // -- Recovery ---------------------------------------------------------
  /// Starts the pending-option resolution protocol: every `period`, pending
  /// options older than the transaction timeout are resolved by asking peer
  /// replicas for the transaction's decision (which they learned from the
  /// Visibility broadcast). This heals replicas that were partitioned away
  /// when the decision was published. A decision unknown to every reachable
  /// peer (e.g. the coordinator was partitioned from the whole cluster) is
  /// retried next period.
  void EnableRecovery(Duration period);

  /// Peer-side: decision of `txn` if this replica learned it.
  /// Calls `reply(known, committed)`.
  void HandleResolveQuery(TxnId txn, std::function<void(bool, bool)> reply);

  uint64_t recovered_options() const { return recovered_options_; }

  /// Anti-entropy: pulls committed state from every peer and adopts fresher
  /// records (higher version; or more applied deltas for counter records).
  /// Heals a replica that missed commit visibilities for options it never
  /// voted on — run it after a partition heals (the harness exposes
  /// Cluster::HealDc, and operators would trigger it the same way).
  void RequestSyncAll();

  /// Peer side of anti-entropy: ships the committed state plus this
  /// replica's view of the mastership epochs (so a restarted replica does
  /// not resurrect a superseded epoch).
  void HandleSyncRequest(
      std::function<void(std::vector<SyncEntry>, std::vector<int>)> reply);

  uint64_t sync_records_adopted() const { return sync_records_adopted_; }

  // -- Crash / recovery --------------------------------------------------
  /// Powers the replica off: volatile state (pending options, classic
  /// rounds and queues, learned decisions, deferred chains, epochs) is
  /// lost; the WAL survives. In-flight messages to/from this node are
  /// dropped by the Network.
  void Crash();

  /// Powers the replica back on: replays the WAL to rebuild committed
  /// state, then runs RequestSyncAll to catch up on commits it missed.
  void Restart();

  /// Number of physical transitions waiting for earlier versions (tests).
  size_t DeferredCount() const { return store_.DeferredCount(); }

  /// Experiment counters.
  uint64_t fast_accept_requests() const { return fast_accept_requests_; }
  uint64_t classic_proposals() const { return classic_proposals_; }
  uint64_t stale_epoch_rejects() const { return stale_epoch_rejects_; }
  uint64_t resolve_queries_sent() const { return resolve_queries_sent_; }

  /// This replica's view of the mastership epoch of a key group (groups are
  /// identified by the epoch-0 master DC).
  int group_epoch(int group) const {
    return group_epoch_[static_cast<size_t>(group)];
  }

 private:
  struct ClassicRound {
    WriteOption option;
    NodeId reply_to = kInvalidNodeId;
    std::function<void(ClassicReply)> reply;
    int accepts = 0;
    int rejects = 0;
    bool done = false;
  };

  /// Shared acceptor logic for fast and master-forwarded accepts.
  VoteReply TryAccept(const WriteOption& option);

  /// Service-queue body of HandleClassicPropose (every public message
  /// handler charges config_.replica_service_cost on the node's serial CPU).
  void ClassicPropose(const WriteOption& option,
                      std::function<void(ClassicReply)> reply);

  /// Learns the decision of `txn`: records it (late accepts are refused and
  /// resolve queries answered from decided_), clears the pending and
  /// resolve state, applies (commit) or drops (abort) each option, and
  /// drains each key's classic queue. Visibility, AbortNotice and a known
  /// resolve reply all end here.
  void Learn(TxnId txn, bool commit, const std::vector<WriteOption>& options);

  /// Collects one peer vote for a classic round this node masters.
  void OnMasterVote(uint64_t round_id, VoteReply vote);

  /// Runs the quorum phase of a classic proposal this master has already
  /// accepted locally.
  void StartClassicRound(const WriteOption& option,
                         std::function<void(ClassicReply)> reply);

  /// Retries queued classic proposals for `key` after its pending state
  /// changed (visibility processed).
  void DrainClassicQueue(Key key);

  /// Applies a committed option in version order (Store::ApplyInOrder),
  /// unless the chaos_drop_learn mutation swallows it.
  void ApplyDecided(const WriteOption& option);

  struct QueuedProposal {
    uint64_t qid = 0;
    WriteOption option;
    std::function<void(ClassicReply)> reply;
    EventId timeout_event = kInvalidEventId;
  };

  MdccConfig config_;
  Store store_;
  std::vector<Replica*> peers_;  // all replicas including this one
  std::unordered_map<uint64_t, ClassicRound> rounds_;
  /// Per-key serialization queue of classic proposals (master role).
  std::unordered_map<Key, std::deque<QueuedProposal>> classic_queue_;
  uint64_t next_qid_ = 1;
  uint64_t next_round_id_ = 1;
  /// Transactions whose decision this replica has learned, each packed as
  /// `learn time << 1 | commit`; accepts for them are refused so a late
  /// FastAccept cannot strand a pending option after the Visibility
  /// broadcast has already passed; recovery queries are answered from here.
  /// GC'd after a horizon.
  FlatMap<uint64_t> decided_;
  /// decided_ size above which a Visibility runs the GC. A pass re-arms it
  /// at twice its survivors (at least kDecidedGcFloor), so decisions younger
  /// than the horizon cannot make every learn rescan the whole set.
  static constexpr size_t kDecidedGcFloor = 100000;
  size_t decided_gc_at_ = kDecidedGcFloor;

  // -- Recovery state ----------------------------------------------------
  struct PendingTxn {
    SimTime since = 0;
    std::vector<WriteOption> options;
    /// Capped exponential backoff for resolve queries: a decision unknown
    /// to every reachable peer (long partition) must not generate a
    /// fixed-rate query storm.
    int resolve_attempts = 0;
    SimTime next_resolve = 0;
  };
  void ScheduleRecoveryScan();
  void RecoveryScan();
  void OnResolveReply(TxnId txn, bool known, bool commit);
  /// Records a failed resolve round for backoff purposes.
  void NoteResolveFailure(TxnId txn);
  void OnSyncState(const std::vector<SyncEntry>& state,
                   const std::vector<int>& epochs);

  Duration recovery_period_ = 0;
  bool recovery_scan_scheduled_ = false;
  std::unordered_map<TxnId, PendingTxn> pending_since_;
  /// Outstanding recovery queries: txn -> unknown-replies still expected.
  std::unordered_map<TxnId, int> resolve_inflight_;
  uint64_t recovered_options_ = 0;
  uint64_t sync_records_adopted_ = 0;
  uint64_t resolve_queries_sent_ = 0;

  /// Highest mastership epoch seen per key group. Volatile: a restarted
  /// replica re-learns epochs from sync replies and incoming proposals.
  std::vector<int> group_epoch_;

  uint64_t fast_accept_requests_ = 0;
  uint64_t classic_proposals_ = 0;
  uint64_t stale_epoch_rejects_ = 0;
  uint64_t abort_notices_received_ = 0;
  /// Committed learns swallowed so far by the chaos_drop_learn mutation.
  uint64_t chaos_dropped_ = 0;
};

}  // namespace planet

#endif  // PLANET_MDCC_REPLICA_H_
