// Client-side transaction coordinator for the MDCC-style commit stack.
//
// The coordinator lives in the client library (as in MDCC/PLANET). Reads,
// write buffering and the rest of the client front end come from
// Coordinator (txn/coordinator.h), shared with the 2PC baseline. At commit
// time it proposes one option per written key to the per-record Paxos
// instances — fast path first (direct to all replicas, fast quorum), with a
// classic fallback through the key's master once the fast quorum becomes
// unreachable. The transaction commits iff every option is chosen; the
// decision is broadcast as a Visibility message.
//
// Observability: every send, vote, classic reply, option decision and phase
// change is surfaced through one ClientObserver — the substrate for PLANET's
// progress callbacks and commit-likelihood prediction. The observer sees
// every vote, including votes that arrive after the transaction has been
// decided, feeding the predictor's latency/conflict models.
#ifndef PLANET_MDCC_CLIENT_H_
#define PLANET_MDCC_CLIENT_H_

#include <unordered_map>
#include <vector>

#include "mdcc/config.h"
#include "mdcc/replica.h"
#include "txn/coordinator.h"

namespace planet {

/// Commit phase of a transaction, exposed to applications via PLANET.
enum class TxnPhase {
  kExecuting,   ///< reads / buffered writes
  kProposing,   ///< fast-path options in flight
  kClassic,     ///< at least one option fell back to its master
  kCommitted,   ///< decided commit, visibility broadcast
  kAborted,     ///< decided abort, visibility broadcast
};

const char* TxnPhaseName(TxnPhase phase);

/// One acceptor vote observed by the coordinator.
struct VoteEvent {
  TxnId txn = kInvalidTxnId;
  Key key = 0;
  DcId replica_dc = 0;
  bool accepted = false;
  Duration rtt = 0;  ///< coordinator-observed round trip
};

/// Coordinator-side progress of one option.
struct OptionProgress {
  WriteOption option;
  std::vector<int8_t> votes;  ///< per DC: -1 unknown, 0 reject, 1 accept
  int accepts = 0;
  int rejects = 0;
  bool decided = false;
  bool chosen = false;
  bool via_classic = false;
  bool classic_inflight = false;
  SimTime proposed_at = 0;
  /// Mastership epoch of the latest classic attempt and how many attempts
  /// were made (failover retries bump both).
  int classic_epoch = 0;
  int classic_attempts = 0;
  EventId failover_event = kInvalidEventId;
};

/// Full coordinator-side view of a transaction (used by the PLANET layer
/// to compute commit likelihood).
struct TxnView {
  TxnId id = kInvalidTxnId;
  TxnPhase phase = TxnPhase::kExecuting;
  SimTime begin_time = 0;
  SimTime propose_time = 0;
  SimTime classic_time = 0;  ///< first classic fallback (0 if none)
  SimTime decide_time = 0;
  Status outcome;
  std::vector<OptionProgress> options;
};

/// What a Client reports while its transactions run (the PLANET layer's
/// feed). Every hook fires on the commit hot path, synchronously, inside
/// the coordinator's own handler.
class ClientObserver {
 public:
  virtual ~ClientObserver() = default;

  /// A protocol request (read, fast accept, classic proposal) leaves for
  /// `dc`.
  virtual void OnSend(DcId dc) = 0;

  /// An acceptor vote arrived. `counted` says it was tallied into a live
  /// transaction's option; a late vote (transaction already collected) is
  /// reported with counted = false. Fires after the tally and before the
  /// quorum / fallback step, so the observer may kill the transaction.
  virtual void OnVote(const VoteEvent& vote, bool counted) = 0;

  /// A classic proposal's reply arrived from the master in `dc`.
  virtual void OnClassicReply(DcId dc) = 0;

  /// An option of `txn` was decided (chosen or not).
  virtual void OnOptionDecided(TxnId txn, Key key, bool chosen) = 0;

  /// `txn` entered `phase`.
  virtual void OnPhase(TxnId txn, TxnPhase phase) = 0;
};

/// The client node. One per simulated application server; owns the
/// coordinators of all transactions it begins. Not thread safe (simulated).
class Client : public Coordinator {
 public:
  Client(Simulator* sim, Network* net, NodeId id, DcId dc, Rng rng,
         const MdccConfig& config, std::vector<Replica*> replicas);

  /// Starts a transaction. Reads go to the local DC replica: committed
  /// state, or under kReadCommitted the would-be state of a pending option.
  TxnId Begin();

  /// Buffers a commutative delta (no prior read required).
  [[nodiscard]] Status Add(TxnId txn, Key key, Value delta);

  /// Predictive early abort (PLANET, experiment F11): abandons a submitted,
  /// still-undecided transaction immediately instead of riding the Paxos
  /// round to its certain end. The commit callback fires with Aborted, and
  /// an AbortNotice broadcast (MsgClass::kAbortNotice) proactively releases
  /// the transaction's pending options at every replica — late votes and
  /// classic replies are ignored, and no further fallback work is started
  /// for the transaction. The coordinator is the sole decider, so killing
  /// before any decision exists is always safe. Returns false (no-op) when
  /// the transaction is unknown, not yet submitted, or already decided.
  bool KillInFlight(TxnId txn);

  /// Live view of a transaction; nullptr once it has been garbage collected
  /// (shortly after its decision).
  const TxnView* View(TxnId txn) const;

  /// Writes buffered so far (pre-commit); used by admission control to
  /// estimate a prior commit likelihood before any message is sent.
  std::vector<WriteOption> PendingWrites(TxnId txn) const;

  /// Installs the observer of every transaction of this client (nullptr
  /// removes it). `observer` must outlive the client or be removed first.
  void SetObserver(ClientObserver* observer) { observer_ = observer; }

  /// This coordinator's view of a key group's mastership epoch.
  int group_epoch(int group) const {
    return group_epoch_[static_cast<size_t>(group)];
  }

  uint64_t failovers() const { return failovers_; }

  const MdccConfig& config() const { return config_; }
  Replica* local_replica() const { return replicas_[static_cast<size_t>(dc_)]; }

  /// Outcome counters.
  uint64_t committed() const { return committed_; }
  uint64_t aborted() const { return aborted_; }
  uint64_t timed_out() const { return timed_out_; }
  uint64_t classic_fallbacks() const { return classic_fallbacks_; }

 private:
  struct TxnState : TxnBuffer {
    TxnView view;
    EventId timeout_event = kInvalidEventId;
    int outstanding_replies = 0;
    int options_decided = 0;
    bool done = false;
    bool cb_fired = false;
    /// Killed by KillInFlight: vote/classic handlers stop driving the
    /// option state machine (no classic fallback for a dead transaction).
    bool early_killed = false;
  };

  TxnState* Find(TxnId txn);
  OptionProgress* FindOption(TxnState& state, Key key);

  TxnBuffer* FindExecuting(TxnId txn) override;
  void Forget(TxnId txn) override;
  /// Committed-visibility read, or the speculative one under
  /// kReadCommitted.
  void SendRead(std::shared_ptr<PendingRead> read) override;
  /// Stamps the propose time and proposes (or decides a read-only txn
  /// immediately).
  void StartCommit(TxnBuffer& txn) override;
  void ProposeFast(TxnState& state);
  void StartClassic(TxnState& state, OptionProgress& op);
  void OnVoteEvent(const VoteEvent& event);
  void OnClassicResult(TxnId txn, Key key, int attempt_epoch, DcId master_dc,
                       ClassicReply result);
  /// Fires when a classic attempt got no reply within
  /// master_failover_timeout: bumps the group epoch and re-proposes to the
  /// next epoch's master.
  void OnClassicFailover(TxnId txn, Key key, int attempt_epoch);
  void OnOptionDecided(TxnState& state, OptionProgress& op, bool chosen,
                       bool via_classic);
  void OnTimeout(TxnId txn);
  /// `early_kill` routes the decision broadcast through AbortNotice instead
  /// of Visibility (KillInFlight only; the vanilla paths never set it).
  void Decide(TxnState& state, bool commit, Status outcome,
              bool early_kill = false);
  void SetPhase(TxnState& state, TxnPhase phase);
  void MaybeGc(TxnId txn);

  MdccConfig config_;
  std::vector<Replica*> replicas_;
  std::unordered_map<TxnId, TxnState> txns_;
  ClientObserver* observer_ = nullptr;
  /// This coordinator's mastership-epoch view per key group. Advanced by
  /// failover timeouts and by epoch hints in classic replies; never moves
  /// backward, so a revived old master is simply not used again.
  std::vector<int> group_epoch_;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  uint64_t timed_out_ = 0;
  uint64_t classic_fallbacks_ = 0;
  uint64_t failovers_ = 0;
};

}  // namespace planet

#endif  // PLANET_MDCC_CLIENT_H_
