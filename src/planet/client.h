// PlanetClient: the PLANET layer over the MDCC coordinator, plus the shared
// PlanetContext (learned models, admission controller, statistics).
#ifndef PLANET_PLANET_CLIENT_H_
#define PLANET_PLANET_CLIENT_H_

#include <memory>
#include <unordered_map>

#include "mdcc/client.h"
#include "planet/predictor.h"
#include "planet/transaction.h"

namespace planet {

/// Aggregate statistics of all transactions run through a PlanetContext.
struct PlanetStats {
  uint64_t started = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t unavailable = 0;
  uint64_t admission_rejected = 0;
  uint64_t speculated = 0;
  uint64_t speculation_correct = 0;
  uint64_t apologies = 0;
  uint64_t gave_up = 0;
  /// User notifications (speculative, give-up, rejection or final); at
  /// most one per transaction.
  uint64_t notified = 0;
  /// Transactions killed by the predictive early-abort path (experiment
  /// F11); every early abort is also counted in `aborted`.
  uint64_t early_aborts = 0;

  /// Reliability diagram of the prior (at-submit) likelihood predictions.
  CalibrationTracker calibration{10};

  double CommitRate() const {
    uint64_t finished = committed + aborted + unavailable;
    return finished == 0 ? 0.0 : double(committed) / double(finished);
  }
  double ApologyRate() const {
    return speculated == 0 ? 0.0 : double(apologies) / double(speculated);
  }

  /// Zeroes every counter and the calibration (keeps the learned models
  /// alive; used to discard warm-up phases in experiments).
  void Reset() { *this = {}; }
};

/// State shared by the PlanetClients of one deployment: the online-learned
/// latency/conflict models, the estimator, and the statistics sink. Share
/// one context across all clients of a data center (or globally) so every
/// client benefits from every observation.
class PlanetContext {
 public:
  PlanetContext(const MdccConfig& mdcc, const PlanetConfig& planet);

  const MdccConfig& mdcc_config() const { return mdcc_; }
  const PlanetConfig& planet_config() const { return planet_; }
  PlanetConfig& mutable_planet_config() { return planet_; }

  LatencyModel& latency_model() { return latency_; }
  ConflictModel& conflict_model() { return conflict_; }
  ReachabilityTracker& reachability() { return reach_; }
  const ReachabilityTracker& reachability() const { return reach_; }
  const CommitLikelihoodEstimator& estimator() const { return estimator_; }
  PlanetStats& stats() { return stats_; }
  const PlanetStats& stats() const { return stats_; }

 private:
  MdccConfig mdcc_;
  PlanetConfig planet_;
  LatencyModel latency_;
  ConflictModel conflict_;
  ReachabilityTracker reach_;
  CommitLikelihoodEstimator estimator_;
  PlanetStats stats_;
};

/// One PLANET client endpoint: wraps one MDCC coordinator client and runs
/// the programming model (stages, callbacks, prediction, speculation,
/// admission control). It observes the coordinator: every send, vote and
/// reply feeds the shared models, and a submitted transaction's votes,
/// option decisions and phases drive its progress callbacks and kill gauge.
class PlanetClient : private ClientObserver {
 public:
  /// `db` must outlive this client; `ctx` is shared and must outlive it too.
  /// It registers itself as `db`'s observer, so it is neither copied nor
  /// moved.
  PlanetClient(Client* db, PlanetContext* ctx);
  PlanetClient(const PlanetClient&) = delete;
  PlanetClient& operator=(const PlanetClient&) = delete;

  /// Starts a transaction and returns its handle.
  PlanetTransaction Begin();

  Client* db() const { return db_; }
  PlanetContext* context() const { return ctx_; }
  DcId dc() const { return db_->dc(); }

  // History recording, isolation and predictive-replay delays are set on
  // the coordinator (db()): the PLANET layer adds no storage accesses of
  // its own, so the coordinator's log is this client's complete history.

  // -- Handle backends (called by PlanetTransaction) ---------------------
  void Read(TxnId txn, Key key, std::function<void(Status, Value)> cb);
  [[nodiscard]] Status Write(TxnId txn, Key key, Value value);
  [[nodiscard]] Status Add(TxnId txn, Key key, Value delta);
  void SetOnProgress(TxnId txn, std::function<void(const TxnProgress&)> cb);
  void SetOnStage(TxnId txn, std::function<void(PlanetStage)> cb);
  void SetOnFinal(TxnId txn, std::function<void(Status)> cb);
  void SetOnApology(TxnId txn, std::function<void()> cb);
  void SetTimeout(TxnId txn, Duration timeout,
                  std::function<void(PlanetTransaction&)> cb);
  void Commit(TxnId txn, std::function<void(const Outcome&)> user_cb);
  /// Drops a not-yet-submitted transaction (e.g. after a read timeout
  /// against a crashed replica). No-op once submitted.
  void AbortEarly(TxnId txn);
  double Likelihood(TxnId txn) const;
  double LikelihoodBy(TxnId txn, Duration budget) const;
  void Speculate(TxnId txn);
  void GiveUp(TxnId txn);
  PlanetStage StageOf(TxnId txn) const;

 private:
  struct TxnState {
    TxnId id = kInvalidTxnId;
    SimTime begin = 0;
    PlanetStage stage = PlanetStage::kExecuting;
    std::function<void(const TxnProgress&)> on_progress;
    std::function<void(PlanetStage)> on_stage;
    std::function<void(Status)> on_final;
    std::function<void()> on_apology;
    std::function<void(PlanetTransaction&)> on_timeout;
    std::function<void(const Outcome&)> user_cb;
    Duration timeout = 0;
    EventId timeout_event = kInvalidEventId;
    bool speculated = false;
    bool user_notified = false;
    bool final_known = false;
    double prior_likelihood = 1.0;
    int votes_received = 0;
    int votes_total = 0;
    int options_total = 0;
    int options_decided = 0;
    /// Predictive early abort: armed at submit when kill_threshold > 0.
    DoomGauge gauge;
    bool early_aborted = false;
  };

  // ClientObserver hooks.
  void OnSend(DcId dc) override;
  void OnVote(const VoteEvent& vote, bool counted) override;
  void OnClassicReply(DcId dc) override;
  void OnOptionDecided(TxnId txn, Key key, bool chosen) override;
  void OnPhase(TxnId txn, TxnPhase phase) override;

  TxnState* Find(TxnId txn);
  const TxnState* Find(TxnId txn) const;
  void SetStage(TxnState& state, PlanetStage stage);
  void FireProgress(TxnState& state);
  /// Feeds the kill gauge with the current DoomScore (1 - likelihood) and
  /// kills the transaction through the coordinator once it trips. No-op —
  /// a single branch, no events, no RNG — when the gauge is disabled, so
  /// kill_threshold = 0 replays byte-identical to the vanilla stack.
  void MaybeKill(TxnState& state);
  void NotifyUser(TxnState& state, Status status, bool speculative);
  void ResolveFinal(TxnId txn, Status status);
  void OnDeadline(TxnId txn);

  Client* db_;
  PlanetContext* ctx_;
  std::unordered_map<TxnId, TxnState> txns_;
};

}  // namespace planet

#endif  // PLANET_PLANET_CLIENT_H_
