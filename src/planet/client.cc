#include "planet/client.h"

#include "common/logging.h"

namespace planet {

const char* PlanetStageName(PlanetStage stage) {
  switch (stage) {
    case PlanetStage::kExecuting:
      return "executing";
    case PlanetStage::kSubmitted:
      return "submitted";
    case PlanetStage::kClassicFallback:
      return "classic-fallback";
    case PlanetStage::kSpeculativelyCommitted:
      return "speculatively-committed";
    case PlanetStage::kTimedOutUnknown:
      return "timed-out-unknown";
    case PlanetStage::kCommitted:
      return "committed";
    case PlanetStage::kAborted:
      return "aborted";
    case PlanetStage::kRejected:
      return "rejected";
  }
  return "?";
}

PlanetContext::PlanetContext(const MdccConfig& mdcc, const PlanetConfig& planet)
    : mdcc_(mdcc),
      planet_(planet),
      latency_(mdcc.num_dcs, kLatencyPriorHint),
      conflict_(kConflictAlpha),
      reach_(mdcc.num_dcs, planet.dead_after),
      estimator_(mdcc_, planet_, &latency_, &conflict_, &reach_) {}

PlanetClient::PlanetClient(Client* db, PlanetContext* ctx)
    : db_(db), ctx_(ctx) {
  PLANET_CHECK(db != nullptr && ctx != nullptr);
  db_->SetObserver(this);
}

// Every vote this coordinator observes (including late ones) feeds the shared
// latency and conflict models; every reply is also a reachability ack, and
// every send a probe (passive failure detection, no new traffic).
void PlanetClient::OnSend(DcId dc) {
  ctx_->reachability().RecordProbe(dc, db_->Now());
}

void PlanetClient::OnVote(const VoteEvent& vote, bool counted) {
  ctx_->latency_model().RecordRtt(db_->dc(), vote.replica_dc, vote.rtt);
  ctx_->conflict_model().RecordVote(vote.key, vote.accepted);
  ctx_->reachability().RecordAck(vote.replica_dc, db_->Now());
  if (!counted) return;
  TxnState* state = Find(vote.txn);
  if (state == nullptr || state->final_known) return;
  ++state->votes_received;
  FireProgress(*state);
  MaybeKill(*state);
}

void PlanetClient::OnClassicReply(DcId dc) {
  ctx_->reachability().RecordAck(dc, db_->Now());
}

void PlanetClient::OnOptionDecided(TxnId txn, Key key, bool chosen) {
  ctx_->conflict_model().RecordOptionOutcome(key, chosen);
  TxnState* state = Find(txn);
  if (state == nullptr || state->final_known) return;
  ++state->options_decided;
  FireProgress(*state);
  MaybeKill(*state);
}

void PlanetClient::OnPhase(TxnId txn, TxnPhase phase) {
  TxnState* state = Find(txn);
  if (state == nullptr || state->final_known) return;
  if (phase == TxnPhase::kClassic && state->stage == PlanetStage::kSubmitted) {
    SetStage(*state, PlanetStage::kClassicFallback);
  }
}

PlanetTransaction PlanetClient::Begin() {
  TxnId txn = db_->Begin();
  TxnState& state = txns_[txn];
  state.id = txn;
  state.begin = db_->Now();
  ++ctx_->stats().started;
  return PlanetTransaction(this, txn);
}

PlanetClient::TxnState* PlanetClient::Find(TxnId txn) {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

const PlanetClient::TxnState* PlanetClient::Find(TxnId txn) const {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

void PlanetClient::Read(TxnId txn, Key key,
                        std::function<void(Status, Value)> cb) {
  db_->Read(txn, key, [cb = std::move(cb)](Status status, RecordView view) {
    cb(status, view.value);
  });
}

Status PlanetClient::Write(TxnId txn, Key key, Value value) {
  return db_->Write(txn, key, value);
}

Status PlanetClient::Add(TxnId txn, Key key, Value delta) {
  return db_->Add(txn, key, delta);
}

void PlanetClient::SetOnProgress(TxnId txn,
                                 std::function<void(const TxnProgress&)> cb) {
  if (TxnState* state = Find(txn)) state->on_progress = std::move(cb);
}
void PlanetClient::SetOnStage(TxnId txn, std::function<void(PlanetStage)> cb) {
  if (TxnState* state = Find(txn)) state->on_stage = std::move(cb);
}
void PlanetClient::SetOnFinal(TxnId txn, std::function<void(Status)> cb) {
  if (TxnState* state = Find(txn)) state->on_final = std::move(cb);
}
void PlanetClient::SetOnApology(TxnId txn, std::function<void()> cb) {
  if (TxnState* state = Find(txn)) state->on_apology = std::move(cb);
}
void PlanetClient::SetTimeout(TxnId txn, Duration timeout,
                              std::function<void(PlanetTransaction&)> cb) {
  if (TxnState* state = Find(txn)) {
    state->timeout = timeout;
    state->on_timeout = std::move(cb);
  }
}

void PlanetClient::Commit(TxnId txn,
                          std::function<void(const Outcome&)> user_cb) {
  TxnState* state = Find(txn);
  PLANET_CHECK_MSG(state != nullptr, "commit on unknown planet txn " << txn);
  PLANET_CHECK(state->stage == PlanetStage::kExecuting);
  state->user_cb = std::move(user_cb);

  const PlanetConfig& pc = ctx_->planet_config();
  std::vector<WriteOption> writes = db_->PendingWrites(txn);
  state->prior_likelihood =
      ctx_->estimator().EstimateFresh(writes, db_->Now());
  // Latency-aware admission folds the learned RTT tails into the admission
  // prior; calibration keeps using the pure conflict prior (it predicts
  // "commits eventually", which is what the outcome label measures).
  double admission_prior =
      pc.admission_sla > 0
          ? ctx_->estimator().EstimateFreshBy(writes, pc.admission_sla,
                                              db_->dc(), db_->Now())
          : state->prior_likelihood;
  state->options_total = static_cast<int>(writes.size());
  state->votes_total =
      state->options_total * ctx_->mdcc_config().num_dcs;

  // Admission control: turn a likely abort into an instant rejection before
  // any message is sent (the goodput mechanism of experiment F6).
  if (pc.enable_admission && !writes.empty() &&
      admission_prior < pc.admission_threshold) {
    ++ctx_->stats().admission_rejected;
    db_->AbortEarly(txn);
    SetStage(*state, PlanetStage::kRejected);
    Status rejected = Status::Rejected("admission control");
    NotifyUser(*state, rejected, /*speculative=*/false);
    state->final_known = true;
    if (state->on_final) state->on_final(rejected);
    txns_.erase(txn);
    return;
  }

  // Arm the predictive kill gauge (F11). With the threshold at 0 the gauge
  // stays disabled and MaybeKill is a single dead branch per progress event.
  if (pc.kill_threshold > 0) {
    state->gauge =
        DoomGauge(pc.kill_threshold, pc.kill_hysteresis, pc.kill_confirm);
  }

  SetStage(*state, PlanetStage::kSubmitted);
  if (state->timeout > 0) {
    state->timeout_event = db_->simulator()->Schedule(
        state->timeout, [this, txn] { OnDeadline(txn); });
  }
  db_->Commit(txn, [this, txn](Status status) { ResolveFinal(txn, status); });
}

void PlanetClient::MaybeKill(TxnState& state) {
  if (!state.gauge.enabled() || state.early_aborted) return;
  // DoomScore: the complement of the live commit-likelihood estimate. The
  // gauge demands `kill_confirm` consecutive above-threshold observations
  // with hysteresis, so one noisy vote cannot kill a healthy transaction.
  double doom = 1.0 - Likelihood(state.id);
  if (!state.gauge.Update(doom)) return;
  if (db_->KillInFlight(state.id)) {
    state.early_aborted = true;
    ++ctx_->stats().early_aborts;
  }
}

void PlanetClient::AbortEarly(TxnId txn) {
  TxnState* state = Find(txn);
  if (state == nullptr || state->stage != PlanetStage::kExecuting) return;
  db_->AbortEarly(txn);
  txns_.erase(txn);
}

void PlanetClient::OnDeadline(TxnId txn) {
  TxnState* state = Find(txn);
  if (state == nullptr || state->final_known) return;
  state->timeout_event = kInvalidEventId;
  if (state->on_timeout) {
    PlanetTransaction handle(this, txn);
    state->on_timeout(handle);
  }
}

void PlanetClient::Speculate(TxnId txn) {
  TxnState* state = Find(txn);
  if (state == nullptr || state->final_known || state->user_notified) return;
  PLANET_CHECK_MSG(state->stage == PlanetStage::kSubmitted ||
                       state->stage == PlanetStage::kClassicFallback,
                   "speculate in stage " << PlanetStageName(state->stage));
  state->speculated = true;
  ++ctx_->stats().speculated;
  SetStage(*state, PlanetStage::kSpeculativelyCommitted);
  NotifyUser(*state, Status::OK(), /*speculative=*/true);
}

void PlanetClient::GiveUp(TxnId txn) {
  TxnState* state = Find(txn);
  if (state == nullptr || state->final_known || state->user_notified) return;
  ++ctx_->stats().gave_up;
  SetStage(*state, PlanetStage::kTimedOutUnknown);
  NotifyUser(*state, Status::TimedOut("gave up waiting"),
             /*speculative=*/false);
}

void PlanetClient::ResolveFinal(TxnId txn, Status status) {
  TxnState* state = Find(txn);
  if (state == nullptr || state->final_known) return;
  state->final_known = true;
  if (state->timeout_event != kInvalidEventId) {
    db_->simulator()->Cancel(state->timeout_event);
    state->timeout_event = kInvalidEventId;
  }

  PlanetStats& stats = ctx_->stats();
  bool committed = status.ok();
  if (committed) {
    ++stats.committed;
  } else if (status.IsUnavailable()) {
    ++stats.unavailable;
  } else {
    ++stats.aborted;
  }
  // Calibration of the prior prediction: only write transactions whose
  // outcome reflects contention (timeouts say nothing about conflicts).
  if (state->options_total > 0 && !status.IsUnavailable()) {
    stats.calibration.Record(state->prior_likelihood, committed);
  }
  if (state->speculated) {
    if (committed) {
      ++stats.speculation_correct;
    } else {
      ++stats.apologies;
      if (state->on_apology) state->on_apology();
    }
  }
  SetStage(*state, committed ? PlanetStage::kCommitted
                             : PlanetStage::kAborted);
  if (!state->user_notified) {
    NotifyUser(*state, status, /*speculative=*/false);
  }
  if (state->on_final) state->on_final(status);
  txns_.erase(txn);
}

void PlanetClient::NotifyUser(TxnState& state, Status status,
                              bool speculative) {
  if (state.user_notified) return;
  state.user_notified = true;
  ++ctx_->stats().notified;
  if (state.user_cb) {
    Outcome outcome;
    outcome.status = std::move(status);
    outcome.speculative = speculative;
    outcome.early_abort = state.early_aborted;
    outcome.user_latency = db_->Now() - state.begin;
    auto cb = std::move(state.user_cb);
    cb(outcome);
  }
}

void PlanetClient::SetStage(TxnState& state, PlanetStage stage) {
  state.stage = stage;
  if (state.on_stage) state.on_stage(stage);
  FireProgress(state);
}

void PlanetClient::FireProgress(TxnState& state) {
  if (!state.on_progress) return;
  TxnProgress progress;
  progress.stage = state.stage;
  progress.likelihood = Likelihood(state.id);
  progress.options_total = state.options_total;
  progress.options_decided = state.options_decided;
  progress.votes_received = state.votes_received;
  progress.votes_total = state.votes_total;
  progress.elapsed = db_->Now() - state.begin;
  state.on_progress(progress);
}

double PlanetClient::Likelihood(TxnId txn) const {
  const TxnState* state = Find(txn);
  if (state == nullptr) return 0.0;
  if (state->final_known) {
    return state->stage == PlanetStage::kCommitted ? 1.0 : 0.0;
  }
  switch (state->stage) {
    case PlanetStage::kCommitted:
      return 1.0;
    case PlanetStage::kAborted:
    case PlanetStage::kRejected:
      return 0.0;
    case PlanetStage::kExecuting:
      return ctx_->estimator().EstimateFresh(db_->PendingWrites(txn),
                                             db_->Now());
    default:
      break;
  }
  const TxnView* view = db_->View(txn);
  if (view == nullptr) return state->prior_likelihood;
  if (view->options.empty() && state->options_total > 0) {
    // Submitted but options not proposed yet (the instant between the
    // admission check and the fast-accept broadcast).
    return state->prior_likelihood;
  }
  return ctx_->estimator().Estimate(*view, db_->Now());
}

double PlanetClient::LikelihoodBy(TxnId txn, Duration budget) const {
  const TxnState* state = Find(txn);
  if (state == nullptr) return 0.0;
  if (state->final_known) {
    return state->stage == PlanetStage::kCommitted ? 1.0 : 0.0;
  }
  const TxnView* view = db_->View(txn);
  if (view == nullptr) return Likelihood(txn);
  return ctx_->estimator().EstimateBy(*view, db_->Now(), budget, db_->dc());
}

PlanetStage PlanetClient::StageOf(TxnId txn) const {
  const TxnState* state = Find(txn);
  return state == nullptr ? PlanetStage::kCommitted : state->stage;
}

}  // namespace planet
