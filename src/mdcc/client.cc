#include "mdcc/client.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace planet {

const char* TxnPhaseName(TxnPhase phase) {
  switch (phase) {
    case TxnPhase::kExecuting:
      return "executing";
    case TxnPhase::kProposing:
      return "proposing";
    case TxnPhase::kClassic:
      return "classic";
    case TxnPhase::kCommitted:
      return "committed";
    case TxnPhase::kAborted:
      return "aborted";
  }
  return "?";
}

Client::Client(Simulator* sim, Network* net, NodeId id, DcId dc, Rng rng,
               const MdccConfig& config, std::vector<Replica*> replicas)
    : Coordinator(sim, net, id, dc, rng, config),
      config_(config),
      replicas_(std::move(replicas)) {
  PLANET_CHECK(static_cast<int>(replicas_.size()) == config_.num_dcs);
  group_epoch_.assign(static_cast<size_t>(config_.num_dcs), 0);
}

TxnId Client::Begin() {
  TxnId txn = NewTxnId();
  TxnState& state = txns_[txn];
  state.id = txn;
  state.begin = Now();
  state.view.id = txn;
  state.view.phase = TxnPhase::kExecuting;
  state.view.begin_time = state.begin;
  return txn;
}

Client::TxnState* Client::Find(TxnId txn) {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

OptionProgress* Client::FindOption(TxnState& state, Key key) {
  for (OptionProgress& op : state.view.options) {
    if (op.option.key == key) return &op;
  }
  return nullptr;
}

Client::TxnBuffer* Client::FindExecuting(TxnId txn) {
  TxnState* state = Find(txn);
  return state != nullptr && !state->done &&
                 state->view.phase == TxnPhase::kExecuting
             ? state
             : nullptr;
}

void Client::Forget(TxnId txn) { txns_.erase(txn); }

void Client::SendRead(std::shared_ptr<PendingRead> read) {
  if (observer_ != nullptr) observer_->OnSend(dc_);
  Replica* replica = local_replica();
  NodeId replica_id = replica->id();
  net_->Send(id_, replica_id,
             [this, replica, replica_id, read = std::move(read)] {
    // Shared reply path of both read flavours; `speculative` says whether
    // the view exposes a pending (undecided) option.
    auto reply = [this, replica_id, read](RecordView view, bool speculative) {
      net_->Send(replica_id, id_, [this, read, view, speculative] {
        OnReadReply(read, view, speculative);
      });
    };
    if (isolation() == IsolationLevel::kReadCommitted) {
      replica->HandleReadSpeculative(read->key, id_, std::move(reply));
    } else {
      replica->HandleRead(read->key, id_,
                          [reply = std::move(reply)](RecordView view) {
                            reply(view, false);
                          });
    }
  });
}

Status Client::Add(TxnId txn, Key key, Value delta) {
  TxnBuffer* state = FindExecuting(txn);
  if (state == nullptr) return Status::InvalidArgument("txn not executing");
  auto existing = state->writes.find(key);
  if (existing != state->writes.end()) {
    if (existing->second.kind != OptionKind::kCommutative) {
      return Status::InvalidArgument("key already has a physical write");
    }
    existing->second.delta += delta;
    return Status::OK();
  }
  WriteOption option;
  option.txn = txn;
  option.key = key;
  option.kind = OptionKind::kCommutative;
  option.delta = delta;
  state->writes[key] = option;
  return Status::OK();
}

void Client::StartCommit(TxnBuffer& txn) {
  TxnState& state = static_cast<TxnState&>(txn);
  state.view.propose_time = Now();
  if (state.writes.empty()) {
    // Read-only: needs no coordination.
    Decide(state, true, Status::OK());
    return;
  }
  ProposeFast(state);
}

bool Client::KillInFlight(TxnId txn) {
  TxnState* state = Find(txn);
  if (state == nullptr || state->done) return false;
  if (state->view.phase != TxnPhase::kProposing &&
      state->view.phase != TxnPhase::kClassic) {
    return false;
  }
  state->early_killed = true;
  Decide(*state, false, Status::Aborted("predicted doom (early abort)"),
         /*early_kill=*/true);
  return true;
}

void Client::ProposeFast(TxnState& state) {
  TxnId txn = state.view.id;
  for (const auto& [key, option] : state.writes) {
    OptionProgress op;
    op.option = option;
    op.votes.assign(static_cast<size_t>(config_.num_dcs), -1);
    op.proposed_at = Now();
    state.view.options.push_back(std::move(op));
  }
  SetPhase(state, TxnPhase::kProposing);
  state.timeout_event =
      sim_->Schedule(config_.txn_timeout, [this, txn] { OnTimeout(txn); });

  if (config_.force_classic) {
    PLANET_CHECK_MSG(config_.enable_classic,
                     "force_classic requires enable_classic");
    for (OptionProgress& op : state.view.options) StartClassic(state, op);
    return;
  }

  for (const OptionProgress& op : state.view.options) {
    const WriteOption option = op.option;
    for (DcId d = 0; d < config_.num_dcs; ++d) {
      Replica* replica = replicas_[static_cast<size_t>(d)];
      NodeId replica_id = replica->id();
      ++state.outstanding_replies;
      if (observer_ != nullptr) observer_->OnSend(d);
      SimTime sent = Now();
      net_->Send(id_, replica_id, [this, replica, replica_id, option, d,
                                   sent] {
        replica->HandleFastAccept(
            option, id_,
            [this, replica_id, option, d, sent](VoteReply reply) {
              net_->Send(replica_id, id_, [this, option, d, sent, reply] {
                VoteEvent event;
                event.txn = option.txn;
                event.key = option.key;
                event.replica_dc = d;
                event.accepted = reply.accepted;
                event.rtt = Now() - sent;
                OnVoteEvent(event);
              });
            });
      });
    }
  }
}

void Client::OnVoteEvent(const VoteEvent& event) {
  TxnState* state = Find(event.txn);
  OptionProgress* op = nullptr;
  if (state != nullptr) {
    --state->outstanding_replies;
    op = FindOption(*state, event.key);
  }
  if (op != nullptr) {
    op->votes[static_cast<size_t>(event.replica_dc)] = event.accepted ? 1 : 0;
    if (event.accepted) {
      ++op->accepts;
    } else {
      ++op->rejects;
    }
  }
  if (observer_ != nullptr) observer_->OnVote(event, op != nullptr);
  // A killed transaction's options stop driving the state machine: the
  // observer above may have just fired KillInFlight, and starting a classic
  // fallback for a dead transaction would only burn a master round. Vanilla
  // runs never set early_killed, so the path is unchanged.
  if (op != nullptr && !op->decided && !op->classic_inflight &&
      !state->early_killed) {
    if (op->accepts >= config_.FastQuorum()) {
      OnOptionDecided(*state, *op, /*chosen=*/true, /*via_classic=*/false);
    } else if (op->rejects > config_.num_dcs - config_.FastQuorum()) {
      // Fast quorum unreachable.
      if (config_.enable_classic) {
        StartClassic(*state, *op);
      } else {
        OnOptionDecided(*state, *op, /*chosen=*/false, /*via_classic=*/false);
      }
    }
  }
  if (state != nullptr) MaybeGc(event.txn);
}

void Client::StartClassic(TxnState& state, OptionProgress& op) {
  op.classic_inflight = true;
  if (op.classic_attempts == 0) {
    // Failover retries of the same option are not new fallbacks.
    ++classic_fallbacks_;
    if (state.view.classic_time == 0) state.view.classic_time = Now();
    if (state.view.phase == TxnPhase::kProposing) {
      SetPhase(state, TxnPhase::kClassic);
    }
  }

  size_t group = static_cast<size_t>(config_.MasterOf(op.option.key));
  int epoch = std::max(group_epoch_[group], op.classic_epoch);
  op.classic_epoch = epoch;
  ++op.classic_attempts;

  WriteOption option = op.option;
  option.epoch = epoch;
  DcId master_dc = config_.MasterAt(option.key, epoch);
  Replica* master = replicas_[static_cast<size_t>(master_dc)];
  NodeId master_id = master->id();
  ++state.outstanding_replies;
  if (observer_ != nullptr) observer_->OnSend(master_dc);

  TxnId txn = state.view.id;
  if (config_.master_failover_timeout > 0) {
    op.failover_event =
        sim_->Schedule(config_.master_failover_timeout,
                       [this, txn, key = option.key, epoch] {
                         OnClassicFailover(txn, key, epoch);
                       });
  }
  net_->Send(id_, master_id, [this, master, master_id, master_dc, option,
                               epoch] {
    master->HandleClassicPropose(
        option, id_,
        [this, master_id, master_dc, option, epoch](ClassicReply r) {
          net_->Send(master_id, id_, [this, master_dc, option, epoch, r] {
            OnClassicResult(option.txn, option.key, epoch, master_dc, r);
          });
        });
  });
}

void Client::OnClassicResult(TxnId txn, Key key, int attempt_epoch,
                             DcId master_dc, ClassicReply result) {
  if (observer_ != nullptr) observer_->OnClassicReply(master_dc);
  size_t group = static_cast<size_t>(config_.MasterOf(key));
  if (result.epoch_hint > group_epoch_[group]) {
    group_epoch_[group] = result.epoch_hint;
  }
  TxnState* state = Find(txn);
  if (state == nullptr) return;
  --state->outstanding_replies;
  OptionProgress* op = FindOption(*state, key);
  if (op != nullptr && !op->decided && !state->early_killed) {
    if (result.chosen) {
      // A chosen option is chosen regardless of which attempt won the race.
      if (op->failover_event != kInvalidEventId) {
        sim_->Cancel(op->failover_event);
        op->failover_event = kInvalidEventId;
      }
      op->classic_inflight = false;
      OnOptionDecided(*state, *op, /*chosen=*/true, /*via_classic=*/true);
    } else if (attempt_epoch < op->classic_epoch) {
      // Reject from a superseded attempt; the live attempt will decide.
    } else if (result.wrong_master && config_.master_failover_timeout > 0 &&
               op->classic_attempts < config_.num_dcs) {
      // Our epoch view was stale; retry immediately at the hinted epoch.
      if (op->failover_event != kInvalidEventId) {
        sim_->Cancel(op->failover_event);
        op->failover_event = kInvalidEventId;
      }
      if (group_epoch_[group] <= attempt_epoch) {
        group_epoch_[group] = attempt_epoch + 1;
      }
      op->classic_epoch = group_epoch_[group];
      StartClassic(*state, *op);
    } else {
      if (op->failover_event != kInvalidEventId) {
        sim_->Cancel(op->failover_event);
        op->failover_event = kInvalidEventId;
      }
      op->classic_inflight = false;
      OnOptionDecided(*state, *op, /*chosen=*/false, /*via_classic=*/true);
    }
  }
  MaybeGc(txn);
}

void Client::OnClassicFailover(TxnId txn, Key key, int attempt_epoch) {
  TxnState* state = Find(txn);
  if (state == nullptr || state->done) return;
  OptionProgress* op = FindOption(*state, key);
  if (op == nullptr || op->decided || !op->classic_inflight) return;
  if (op->classic_epoch != attempt_epoch) return;  // superseded attempt
  op->failover_event = kInvalidEventId;
  if (op->classic_attempts >= config_.num_dcs) {
    // Every DC has had a turn; let the transaction timeout decide.
    return;
  }
  ++failovers_;
  size_t group = static_cast<size_t>(config_.MasterOf(key));
  if (group_epoch_[group] <= attempt_epoch) {
    group_epoch_[group] = attempt_epoch + 1;
  }
  op->classic_epoch = group_epoch_[group];
  StartClassic(*state, *op);
}

void Client::OnOptionDecided(TxnState& state, OptionProgress& op, bool chosen,
                             bool via_classic) {
  PLANET_CHECK(!op.decided);
  op.decided = true;
  op.chosen = chosen;
  op.via_classic = via_classic;
  ++state.options_decided;
  if (observer_ != nullptr) {
    observer_->OnOptionDecided(state.view.id, op.option.key, chosen);
  }
  if (state.done) return;
  if (!chosen) {
    Decide(state, false, Status::Aborted("option rejected"));
  } else if (state.options_decided ==
             static_cast<int>(state.view.options.size())) {
    Decide(state, true, Status::OK());
  }
}

void Client::OnTimeout(TxnId txn) {
  TxnState* state = Find(txn);
  if (state == nullptr || state->done) return;
  state->timeout_event = kInvalidEventId;  // it just fired
  Decide(*state, false, Status::Unavailable("transaction timeout"));
}

void Client::Decide(TxnState& state, bool commit, Status outcome,
                    bool early_kill) {
  if (state.done) return;
  state.done = true;
  state.view.decide_time = Now();
  state.view.outcome = outcome;
  NoteDecision(state, outcome, /*in_doubt=*/false, state.early_killed);
  if (state.timeout_event != kInvalidEventId) {
    sim_->Cancel(state.timeout_event);
    state.timeout_event = kInvalidEventId;
  }
  if (commit) {
    ++committed_;
  } else if (outcome.IsUnavailable()) {
    ++timed_out_;
  } else {
    ++aborted_;
  }
  SetPhase(state, commit ? TxnPhase::kCommitted : TxnPhase::kAborted);

  // Visibility broadcast: every replica learns the decision for every option
  // (including replicas that rejected or never voted).
  if (!state.view.options.empty()) {
    std::vector<WriteOption> options;
    options.reserve(state.view.options.size());
    for (const OptionProgress& op : state.view.options) {
      options.push_back(op.option);
    }
    // One shared copy for the whole broadcast instead of a fresh vector
    // per replica closure (the fan-out is num_dcs wide on every decide).
    auto shared = std::make_shared<const std::vector<WriteOption>>(
        std::move(options));
    TxnId txn = state.view.id;
    for (Replica* replica : replicas_) {
      if (early_kill) {
        // Early kill: release the pending options with an explicit
        // AbortNotice instead of a Visibility, so replicas also
        // short-circuit their resolve backoff for this transaction.
        net_->Send(id_, replica->id(), MsgClass::kAbortNotice,
                   [replica, txn, shared] {
                     replica->HandleAbortNotice(txn, *shared);
                   });
      } else {
        net_->Send(id_, replica->id(), [replica, txn, commit, shared] {
          replica->HandleVisibility(txn, commit, *shared);
        });
      }
    }
  }

  // Fire the commit callback as its own event: avoids unbounded recursion
  // when the callback immediately starts the next transaction.
  TxnId txn = state.view.id;
  sim_->Schedule(0, [this, txn, outcome] {
    TxnState* st = Find(txn);
    if (st == nullptr) return;
    st->cb_fired = true;
    CommitCallback cb = std::move(st->commit_cb);
    if (cb) cb(outcome);
    MaybeGc(txn);
  });

  // Backstop GC in case some votes never arrive (partitions).
  sim_->Schedule(2 * config_.txn_timeout, [this, txn] { txns_.erase(txn); });
}

void Client::SetPhase(TxnState& state, TxnPhase phase) {
  state.view.phase = phase;
  if (observer_ != nullptr) observer_->OnPhase(state.view.id, phase);
}

void Client::MaybeGc(TxnId txn) {
  TxnState* state = Find(txn);
  if (state == nullptr) return;
  if (state->done && state->cb_fired && state->outstanding_replies <= 0) {
    txns_.erase(txn);
  }
}

std::vector<WriteOption> Client::PendingWrites(TxnId txn) const {
  std::vector<WriteOption> writes;
  auto it = txns_.find(txn);
  if (it == txns_.end()) return writes;
  writes.reserve(it->second.writes.size());
  for (const auto& [key, option] : it->second.writes) writes.push_back(option);
  return writes;
}

const TxnView* Client::View(TxnId txn) const {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second.view;
}

}  // namespace planet
