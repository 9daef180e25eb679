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
// Observability: every vote, option decision and phase change is surfaced
// through TxnObserver — this is the substrate for PLANET's progress
// callbacks and commit-likelihood prediction. A global vote listener
// additionally sees every vote (including votes that arrive after the
// transaction has been decided), feeding the predictor's latency/conflict
// models.
#ifndef PLANET_MDCC_CLIENT_H_
#define PLANET_MDCC_CLIENT_H_

#include <unordered_map>
#include <vector>

#include "common/inline_function.h"
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
  bool stale = false;     ///< rejected: version mismatch / bounds / decided
  bool conflict = false;  ///< rejected: pending option of another txn
  Duration rtt = 0;       ///< coordinator-observed round trip
  bool fast_path = true;
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

/// Hooks fired while a transaction is in flight. The hooks use the
/// simulator's small-buffer callable (move-only), so installing an observer
/// never allocates: every hook fires on the commit hot path. 32 bytes holds
/// the [this, txn] captures PLANET installs with room to spare.
struct TxnObserver {
  InlineFunction<void(const VoteEvent&), 32> on_vote;
  InlineFunction<void(Key key, bool chosen, bool via_classic), 32>
      on_option_decided;
  InlineFunction<void(TxnPhase phase), 32> on_phase;
};

/// The client node. One per simulated application server; owns the
/// coordinators of all transactions it begins. Not thread safe (simulated).
class Client : public Coordinator {
 public:
  /// Predictor-feed listeners fire on every vote / decision / send, so they
  /// share the observers' no-allocation callable. The predictor installs
  /// [this] lambdas; 32 bytes leaves headroom for a fatter consumer.
  using VoteListener = InlineFunction<void(const VoteEvent&), 32>;
  using OptionListener =
      InlineFunction<void(Key key, bool chosen, bool via_classic), 32>;
  using SendListener = InlineFunction<void(DcId dst_dc), 32>;
  using ClassicListener =
      InlineFunction<void(DcId master_dc, bool chosen, Duration rtt), 32>;

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

  uint64_t early_kills() const { return early_kills_; }

  /// Live view of a transaction; nullptr once it has been garbage collected
  /// (shortly after its decision).
  const TxnView* View(TxnId txn) const;

  /// Writes buffered so far (pre-commit); used by admission control to
  /// estimate a prior commit likelihood before any message is sent.
  std::vector<WriteOption> PendingWrites(TxnId txn) const;

  /// Installs per-transaction hooks (PLANET layer).
  void SetObserver(TxnId txn, TxnObserver observer);

  /// Sees every vote this client ever observes (predictor feed).
  void SetGlobalVoteListener(VoteListener listener);

  /// Sees every option decision (predictor feed: option-level outcomes).
  void SetGlobalOptionListener(OptionListener listener);

  /// Sees every protocol request this client sends, keyed by destination
  /// DC (predictor feed: reachability probes).
  void SetGlobalSendListener(SendListener listener);

  /// Sees every classic-proposal reply with the master DC that answered
  /// (predictor feed: reachability acks for masters that never fast-vote).
  void SetGlobalClassicListener(ClassicListener listener);

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
    TxnObserver observer;
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
                       ClassicReply result, Duration rtt);
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
  VoteListener global_vote_listener_;
  OptionListener global_option_listener_;
  SendListener global_send_listener_;
  ClassicListener global_classic_listener_;
  /// This coordinator's mastership-epoch view per key group. Advanced by
  /// failover timeouts and by epoch hints in classic replies; never moves
  /// backward, so a revived old master is simply not used again.
  std::vector<int> group_epoch_;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  uint64_t timed_out_ = 0;
  uint64_t classic_fallbacks_ = 0;
  uint64_t failovers_ = 0;
  uint64_t early_kills_ = 0;
};

}  // namespace planet

#endif  // PLANET_MDCC_CLIENT_H_
