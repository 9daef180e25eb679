#include "baseline/tpc.h"

#include <memory>

#include "common/logging.h"

namespace planet {

TpcNode::TpcNode(Simulator* sim, Network* net, NodeId id, DcId dc, Rng rng,
                 const TpcConfig& config)
    : Node(sim, net, id, dc, rng), config_(config) {}

void TpcNode::SetPeers(std::vector<TpcNode*> peers) {
  PLANET_CHECK(static_cast<int>(peers.size()) == config_.num_dcs);
  peers_ = std::move(peers);
}

void TpcNode::HandlePrepare(TxnId txn, Key key, Version read_version,
                            std::function<void(bool)> reply) {
  PLANET_CHECK(config_.MasterOf(key) == dc_);
  const TxnId* holder = locks_.Find(key);
  if (holder != nullptr && *holder != txn) {
    reply(false);  // no-wait: lock conflict votes no
    return;
  }
  if (store_.Read(key).version != read_version) {
    reply(false);  // stale read
    return;
  }
  locks_.TryEmplace(key, txn);
  reply(true);
}

void TpcNode::HandleCommit(TxnId txn, const WriteOption& option,
                           std::function<void()> reply) {
  PLANET_CHECK(config_.MasterOf(option.key) == dc_);
  // A missing lock is legal after a crash-restart: locks are volatile, but
  // the coordinator's commit decision stands, so apply regardless.
  const TxnId* holder = locks_.Find(option.key);
  if (holder != nullptr && *holder == txn) locks_.Erase(option.key);
  store_.ApplyInOrder(option);

  int needed = config_.ReplicationQuorum() - 1;  // master already holds it
  if (needed <= 0) {
    reply();
    return;
  }
  auto remaining = std::make_shared<int>(needed);
  auto done = std::make_shared<bool>(false);
  auto reply_shared =
      std::make_shared<std::function<void()>>(std::move(reply));
  for (TpcNode* peer : peers_) {
    if (peer == this) continue;
    NodeId peer_id = peer->id();
    net_->Send(id_, peer_id, [this, peer, peer_id, option, remaining, done,
                              reply_shared] {
      peer->HandleReplicate(option, [this, peer_id, remaining, done,
                                     reply_shared] {
        net_->Send(peer_id, id_, [remaining, done, reply_shared] {
          if (*done) return;
          if (--(*remaining) <= 0) {
            *done = true;
            (*reply_shared)();
          }
        });
      });
    });
  }
}

void TpcNode::HandleAbort(TxnId txn, Key key) {
  const TxnId* holder = locks_.Find(key);
  if (holder != nullptr && *holder == txn) locks_.Erase(key);
}

void TpcNode::HandleReplicate(const WriteOption& option,
                              std::function<void()> ack) {
  store_.ApplyInOrder(option);
  ack();
}

void TpcNode::HandleRead(Key key, std::function<void(RecordView)> reply) {
  reply(store_.Read(key));
}

void TpcNode::Crash() {
  PLANET_CHECK_MSG(!crashed(), "crash of already-crashed 2PC node dc=" << dc_);
  BeginCrash();
  locks_.clear();
  store_.DropDeferred();
}

void TpcNode::Restart() {
  PLANET_CHECK_MSG(crashed(), "restart of live 2PC node dc=" << dc_);
  EndCrash();
  store_.RecoverFromWal();
}

// --------------------------------------------------------------- client

TpcClient::TpcClient(Simulator* sim, Network* net, NodeId id, DcId dc, Rng rng,
                     const TpcConfig& config, std::vector<TpcNode*> nodes)
    : Coordinator(sim, net, id, dc, rng, config),
      config_(config),
      nodes_(std::move(nodes)) {
  PLANET_CHECK(static_cast<int>(nodes_.size()) == config_.num_dcs);
}

TxnId TpcClient::Begin() {
  TxnId txn = NewTxnId();
  TxnState& state = txns_[txn];
  state.id = txn;
  state.begin = Now();
  return txn;
}

TpcClient::TxnState* TpcClient::Find(TxnId txn) {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

TpcClient::TxnBuffer* TpcClient::FindExecuting(TxnId txn) {
  TxnState* state = Find(txn);
  return state != nullptr && state->phase == Phase::kExecuting ? state
                                                              : nullptr;
}

void TpcClient::Forget(TxnId txn) { txns_.erase(txn); }

void TpcClient::SendRead(std::shared_ptr<PendingRead> read) {
  TpcNode* node = nodes_[static_cast<size_t>(dc_)];
  NodeId node_id = node->id();
  net_->Send(id_, node_id, [this, node, node_id, read = std::move(read)] {
    node->HandleRead(read->key, [this, node_id, read](RecordView view) {
      net_->Send(node_id, id_, [this, read, view] {
        OnReadReply(read, view, /*speculative=*/false);
      });
    });
  });
}

void TpcClient::StartCommit(TxnBuffer& txn_state) {
  TxnState& state = static_cast<TxnState&>(txn_state);
  TxnId txn = state.id;
  if (state.writes.empty()) {
    state.phase = Phase::kCommitting;
    Finish(state, Status::OK());
    return;
  }
  state.phase = Phase::kPreparing;
  state.votes_pending = static_cast<int>(state.writes.size());
  state.timeout_event = sim_->Schedule(config_.txn_timeout, [this, txn] {
    TxnState* st = Find(txn);
    if (st == nullptr || st->phase == Phase::kDone) return;
    st->timeout_event = kInvalidEventId;
    if (st->phase == Phase::kPreparing) {
      StartPhase2(*st, /*commit=*/false,
                  Status::Unavailable("prepare timeout"));
    } else {
      // Phase 2 hung (a home node crashed mid-commit): the classic 2PC
      // in-doubt window. Unwedge the client; the decision stands at
      // whichever replicas already received it.
      Finish(*st, Status::Unavailable("commit outcome unknown"));
    }
  });

  for (const auto& [key, option] : state.writes) {
    DcId home = config_.MasterOf(key);
    TpcNode* node = nodes_[static_cast<size_t>(home)];
    NodeId node_id = node->id();
    Version rv = option.read_version;
    net_->Send(id_, node_id, [this, node, node_id, txn, key = key, rv] {
      node->HandlePrepare(txn, key, rv, [this, node_id, txn, key](bool yes) {
        net_->Send(node_id, id_, [this, txn, key, yes] {
          OnVote(txn, key, yes);
        });
      });
    });
  }
}

void TpcClient::OnVote(TxnId txn, Key key, bool yes) {
  TxnState* state = Find(txn);
  if (state == nullptr) return;
  if (state->phase != Phase::kPreparing) {
    // Late vote after a timeout-abort: release the stray lock.
    if (yes) {
      DcId home = config_.MasterOf(key);
      TpcNode* node = nodes_[static_cast<size_t>(home)];
      net_->Send(id_, node->id(), [node, txn, key] {
        node->HandleAbort(txn, key);
      });
    }
    return;
  }
  --state->votes_pending;
  if (yes) {
    state->prepared.push_back(key);
  } else {
    state->vote_failed = true;
  }
  if (state->votes_pending == 0) {
    if (state->vote_failed) {
      StartPhase2(*state, /*commit=*/false, Status::Aborted("prepare no"));
    } else {
      StartPhase2(*state, /*commit=*/true, Status::OK());
    }
  }
}

void TpcClient::StartPhase2(TxnState& state, bool commit, Status outcome) {
  state.phase = Phase::kCommitting;
  TxnId txn = state.id;
  if (!commit) {
    for (Key key : state.prepared) {
      DcId home = config_.MasterOf(key);
      TpcNode* node = nodes_[static_cast<size_t>(home)];
      net_->Send(id_, node->id(), [node, txn, key] {
        node->HandleAbort(txn, key);
      });
    }
    Finish(state, std::move(outcome));
    return;
  }
  state.commit_sent = true;
  state.acks_pending = static_cast<int>(state.writes.size());
  for (const auto& [key, option] : state.writes) {
    DcId home = config_.MasterOf(key);
    TpcNode* node = nodes_[static_cast<size_t>(home)];
    NodeId node_id = node->id();
    net_->Send(id_, node_id, [this, node, node_id, txn, option = option] {
      node->HandleCommit(txn, option, [this, node_id, txn] {
        net_->Send(node_id, id_, [this, txn] { OnCommitAck(txn); });
      });
    });
  }
}

void TpcClient::OnCommitAck(TxnId txn) {
  TxnState* state = Find(txn);
  if (state == nullptr || state->phase != Phase::kCommitting) return;
  if (--state->acks_pending == 0) Finish(*state, Status::OK());
}

void TpcClient::Finish(TxnState& state, Status outcome) {
  if (state.phase == Phase::kDone) return;
  state.phase = Phase::kDone;
  if (state.timeout_event != kInvalidEventId) {
    sim_->Cancel(state.timeout_event);
    state.timeout_event = kInvalidEventId;
  }
  // Phase-2 commit went out but the ack never came back: the decision is
  // commit, yet this coordinator cannot know where it landed (in doubt).
  NoteDecision(state, outcome, /*in_doubt=*/!outcome.ok() && state.commit_sent,
               /*early_abort=*/false);
  if (outcome.ok()) {
    ++committed_;
  } else {
    ++aborted_;
  }
  TxnId txn = state.id;
  CommitCallback cb = std::move(state.commit_cb);
  sim_->Schedule(0, [cb = std::move(cb), outcome] {
    if (cb) cb(outcome);
  });
  // Keep the state briefly so late votes can release stray locks, then GC.
  sim_->Schedule(2 * config_.txn_timeout, [this, txn] { txns_.erase(txn); });
}

}  // namespace planet
