#include "mdcc/replica.h"

#include <algorithm>

#include "common/logging.h"

namespace planet {

Replica::Replica(Simulator* sim, Network* net, NodeId id, DcId dc, Rng rng,
                 const MdccConfig& config)
    : Node(sim, net, id, dc, rng), config_(config) {
  group_epoch_.assign(static_cast<size_t>(config_.num_dcs), 0);
}

void Replica::SetPeers(std::vector<Replica*> peers) {
  PLANET_CHECK(static_cast<int>(peers.size()) == config_.num_dcs);
  peers_ = std::move(peers);
}


void Replica::HandleFastAccept(const WriteOption& option, NodeId /*reply_to*/,
                               std::function<void(VoteReply)> reply) {
  Serve(config_.replica_service_cost,
        [this, option, reply = std::move(reply)] {
          ++fast_accept_requests_;
          reply(TryAccept(option));
        });
}

void Replica::HandleClassicPropose(const WriteOption& option,
                                   NodeId /*reply_to*/,
                                   std::function<void(ClassicReply)> reply) {
  Serve(config_.replica_service_cost,
        [this, option, reply = std::move(reply)]() mutable {
          ClassicPropose(option, std::move(reply));
        });
}

void Replica::HandleMasterAccept(const WriteOption& option, NodeId /*master*/,
                                 std::function<void(VoteReply)> reply) {
  Serve(config_.replica_service_cost,
        [this, option, reply = std::move(reply)] {
          // Epoch bookkeeping mirrors the master side: adopt newer epochs,
          // and refuse to co-sign a proposal whose epoch this acceptor knows
          // to be superseded (the failed-over master is already serializing
          // this group).
          size_t group = static_cast<size_t>(config_.MasterOf(option.key));
          if (option.epoch > group_epoch_[group]) {
            group_epoch_[group] = option.epoch;
          }
          if (option.epoch < group_epoch_[group]) {
            ++stale_epoch_rejects_;
            VoteReply vote;
            vote.stale = true;
            reply(vote);
            return;
          }
          reply(TryAccept(option));
        });
}

void Replica::HandleVisibility(TxnId txn, bool commit,
                               const std::vector<WriteOption>& options) {
  Serve(config_.replica_service_cost, [this, txn, commit, options] {
    Learn(txn, commit, options);
    // Amortized GC: drop decided entries old enough that no message for
    // them can still be in flight.
    if (decided_.size() > decided_gc_at_) {
      const SimTime horizon = Now() - 10 * config_.txn_timeout;
      decided_.EraseIf([&](TxnId, uint64_t decision) {
        return static_cast<SimTime>(decision >> 1) < horizon;
      });
      decided_gc_at_ = std::max(kDecidedGcFloor, 2 * decided_.size());
    }
  });
}

void Replica::HandleAbortNotice(TxnId txn,
                                const std::vector<WriteOption>& options) {
  Serve(config_.replica_service_cost, [this, txn, options] {
    ++abort_notices_received_;
    Learn(txn, /*commit=*/false, options);
  });
}

void Replica::HandleRead(Key key, NodeId /*reply_to*/,
                         std::function<void(RecordView)> reply) {
  Serve(config_.replica_service_cost, [this, key, reply = std::move(reply)] {
    reply(store_.Read(key));
  });
}

void Replica::HandleReadSpeculative(  // planet-lint: allow(std-function-hot-path)
    Key key, NodeId, std::function<void(RecordView, bool)> reply) {
  Serve(config_.replica_service_cost, [this, key, reply = std::move(reply)] {
    SpeculativeView sv = store_.ReadSpeculative(key);
    reply(sv.view, sv.speculative);
  });
}

VoteReply Replica::TryAccept(const WriteOption& option) {
  VoteReply vote;
  if (decided_.Find(option.txn) != nullptr) {
    // The decision already passed through here; a (re)accept would strand a
    // pending option forever.
    vote.accepted = false;
    vote.stale = true;
    return vote;
  }
  Status st = store_.TryAcceptOption(option);
  if (st.ok()) {
    vote.accepted = true;
    // Track the pending transaction for the resolution protocol.
    auto [it, inserted] = pending_since_.try_emplace(option.txn);
    if (inserted) it->second.since = Now();
    std::erase_if(it->second.options, [&](const WriteOption& o) {
      return o.key == option.key;
    });
    it->second.options.push_back(option);
    if (recovery_period_ > 0 && !recovery_scan_scheduled_) {
      ScheduleRecoveryScan();
    }
    return vote;
  }
  vote.accepted = false;
  vote.stale = st.IsAborted();
  vote.conflict = st.code() == StatusCode::kFailedPrecondition;
  return vote;
}

void Replica::ClassicPropose(const WriteOption& option,
                             std::function<void(ClassicReply)> reply) {
  ++classic_proposals_;

  // Mastership-epoch check: the proposal must target this DC at its epoch,
  // and its epoch must not have been superseded here. Epochs only move
  // forward; a higher proposal epoch is adopted on sight.
  size_t group = static_cast<size_t>(config_.MasterOf(option.key));
  if (option.epoch > group_epoch_[group]) group_epoch_[group] = option.epoch;
  if (option.epoch < group_epoch_[group] ||
      config_.MasterAt(option.key, option.epoch) != dc_) {
    ++stale_epoch_rejects_;
    reply(ClassicReply{false, true, group_epoch_[group]});
    return;
  }

  // The master serializes: its own acceptance comes first and gives the
  // proposal its position. On a local *conflict* (another in-flight option
  // holds the record) the proposal waits in the per-key queue until that
  // option resolves — this is what makes the classic path effective under
  // contention. Stale proposals (version moved on) can never win: reject.
  VoteReply own = TryAccept(option);
  if (own.accepted) {
    StartClassicRound(option, std::move(reply));
    return;
  }
  if (!own.conflict) {
    reply(ClassicReply{false, false, group_epoch_[group]});
    return;
  }
  QueuedProposal queued;
  queued.qid = next_qid_++;
  queued.option = option;
  queued.reply = std::move(reply);
  Key key = option.key;
  uint64_t qid = queued.qid;
  queued.timeout_event =
      sim_->Schedule(kClassicQueueTimeout, [this, key, qid] {
        auto it = classic_queue_.find(key);
        if (it == classic_queue_.end()) return;
        auto& q = it->second;
        for (auto qit = q.begin(); qit != q.end(); ++qit) {
          if (qit->qid == qid) {
            auto failed = std::move(*qit);
            q.erase(qit);
            if (q.empty()) classic_queue_.erase(it);
            failed.reply(ClassicReply{false, false, 0});
            return;
          }
        }
      });
  classic_queue_[key].push_back(std::move(queued));
}

void Replica::DrainClassicQueue(Key key) {
  auto it = classic_queue_.find(key);
  if (it == classic_queue_.end()) return;
  auto& q = it->second;
  while (!q.empty()) {
    VoteReply own = TryAccept(q.front().option);
    if (own.conflict) break;  // still blocked behind a pending option
    QueuedProposal head = std::move(q.front());
    q.pop_front();
    sim_->Cancel(head.timeout_event);
    if (own.accepted) {
      StartClassicRound(head.option, std::move(head.reply));
      break;  // our own pending now blocks the rest of the queue
    }
    head.reply(ClassicReply{false, false, 0});  // stale / decided: can't win
  }
  if (q.empty()) classic_queue_.erase(key);
}

void Replica::StartClassicRound(const WriteOption& option,
                                std::function<void(ClassicReply)> reply) {
  if (config_.ClassicQuorum() <= 1) {
    reply(ClassicReply{true, false, option.epoch});
    return;
  }

  uint64_t round_id = next_round_id_++;
  ClassicRound& round = rounds_[round_id];
  round.option = option;
  round.reply = std::move(reply);
  round.accepts = 1;  // the master's own vote

  for (Replica* peer : peers_) {
    if (peer == this) continue;
    NodeId peer_id = peer->id();
    net_->Send(id_, peer_id, [this, peer, peer_id, option, round_id] {
      peer->HandleMasterAccept(
          option, id_, [this, peer_id, round_id](VoteReply vote) {
            net_->Send(peer_id, id_, [this, round_id, vote] {
              OnMasterVote(round_id, vote);
            });
          });
    });
  }
}

void Replica::OnMasterVote(uint64_t round_id, VoteReply vote) {
  auto it = rounds_.find(round_id);
  if (it == rounds_.end()) return;
  ClassicRound& round = it->second;
  if (vote.accepted) {
    ++round.accepts;
  } else {
    ++round.rejects;
  }
  if (!round.done) {
    int outstanding = config_.num_dcs - round.accepts - round.rejects;
    if (round.accepts >= config_.ClassicQuorum()) {
      round.done = true;
      round.reply(ClassicReply{true, false, round.option.epoch});
    } else if (round.accepts + outstanding < config_.ClassicQuorum()) {
      round.done = true;
      round.reply(ClassicReply{false, false, round.option.epoch});
    }
  }
  // All votes in: the round can be garbage collected.
  if (round.accepts + round.rejects >= config_.num_dcs) rounds_.erase(it);
}

void Replica::Learn(TxnId txn, bool commit,
                    const std::vector<WriteOption>& options) {
  decided_.TryEmplace(txn, (static_cast<uint64_t>(Now()) << 1) | commit);
  pending_since_.erase(txn);
  resolve_inflight_.erase(txn);
  for (const WriteOption& option : options) {
    PLANET_CHECK(option.txn == txn);
    if (commit) {
      ApplyDecided(option);
    } else {
      store_.RemoveOption(txn, option.key);
    }
    // The key's pending state changed: queued classic proposals may proceed.
    DrainClassicQueue(option.key);
  }
}

void Replica::ApplyDecided(const WriteOption& option) {
  // Chaos mutation (oracle self-test): swallow the first N committed
  // physical learns at every replica but DC 0. The pending option is
  // removed, not left to the resolution protocol, so the dropped learn
  // stays dropped — a later read here serves the stale version and a
  // stale fast quorum can then commit a forked chain.
  if (config_.chaos_drop_learn > 0 && dc_ != 0 &&
      option.kind == OptionKind::kPhysical &&
      chaos_dropped_ < static_cast<uint64_t>(config_.chaos_drop_learn)) {
    ++chaos_dropped_;
    store_.RemoveOption(option.txn, option.key);
    return;
  }
  store_.ApplyInOrder(option);
}

void Replica::EnableRecovery(Duration period) {
  PLANET_CHECK(period > 0);
  recovery_period_ = period;
  if (!pending_since_.empty() && !recovery_scan_scheduled_) {
    ScheduleRecoveryScan();
  }
}

void Replica::ScheduleRecoveryScan() {
  recovery_scan_scheduled_ = true;
  // Scans are incarnation-guarded: a scan scheduled before a crash must not
  // run (or spawn a second scan loop) in the next incarnation.
  sim_->ScheduleGuardedAt(Now() + recovery_period_, &incarnation_,
                          incarnation_, [this] { RecoveryScan(); });
}

void Replica::RecoveryScan() {
  recovery_scan_scheduled_ = false;
  if (pending_since_.empty()) return;  // nothing to watch; scan stops

  const SimTime overdue = Now() - config_.txn_timeout;
  // pending_since_ is a hash map: pick the overdue set first and visit it in
  // txn order, so the resolve traffic (and with it the whole downstream event
  // schedule) is identical across platforms, not just across runs.
  std::vector<TxnId> overdue_txns;
  for (const auto& [txn, pending] : pending_since_) {
    if (pending.since > overdue) continue;
    if (Now() < pending.next_resolve) continue;  // backing off
    if (resolve_inflight_.count(txn) > 0) continue;
    overdue_txns.push_back(txn);
  }
  std::sort(overdue_txns.begin(), overdue_txns.end());
  for (TxnId txn : overdue_txns) {
    // Ask every peer for the decision. First "known" reply resolves; if all
    // reply unknown, the query is retried with exponential backoff. Replies
    // can be lost to partitions, so the query itself expires: after the
    // horizon the in-flight entry is dropped (also a failed attempt) and a
    // later scan asks again.
    resolve_inflight_[txn] = config_.num_dcs - 1;
    sim_->ScheduleGuardedAt(
        Now() + 2 * config_.txn_timeout, &incarnation_, incarnation_,
        [this, txn] {
          if (resolve_inflight_.erase(txn) > 0) NoteResolveFailure(txn);
        });
    for (Replica* peer : peers_) {
      if (peer == this) continue;
      NodeId peer_id = peer->id();
      TxnId txn_copy = txn;
      ++resolve_queries_sent_;
      net_->Send(id_, peer_id, [this, peer, peer_id, txn_copy] {
        peer->HandleResolveQuery(
            txn_copy, [this, peer_id, txn_copy](bool known, bool commit) {
              net_->Send(peer_id, id_, [this, txn_copy, known, commit] {
                OnResolveReply(txn_copy, known, commit);
              });
            });
      });
    }
  }
  ScheduleRecoveryScan();  // keep scanning while pendings exist
}

void Replica::NoteResolveFailure(TxnId txn) {
  auto it = pending_since_.find(txn);
  if (it == pending_since_.end()) return;
  // Doubling per failed round, capped at 32 periods.
  int shift = std::min(it->second.resolve_attempts, 5);
  ++it->second.resolve_attempts;
  it->second.next_resolve = Now() + (recovery_period_ << shift);
}

void Replica::HandleResolveQuery(TxnId txn,
                                 std::function<void(bool, bool)> reply) {
  const uint64_t* decision = decided_.Find(txn);
  if (decision == nullptr) {
    reply(false, false);
  } else {
    reply(true, (*decision & 1) != 0);
  }
}

void Replica::OnResolveReply(TxnId txn, bool known, bool commit) {
  auto it = resolve_inflight_.find(txn);
  if (it == resolve_inflight_.end()) return;  // already resolved
  if (known) {
    // Queries go out only for pending transactions, and Learn clears the
    // in-flight entry together with the pending one.
    auto pending = pending_since_.find(txn);
    PLANET_CHECK(pending != pending_since_.end());
    std::vector<WriteOption> options = std::move(pending->second.options);
    recovered_options_ += options.size();
    Learn(txn, commit, options);
    return;
  }
  if (--it->second <= 0) {
    // Nobody knows (the coordinator may still be deciding, or was cut off
    // from the whole cluster): retry at a later scan, backing off.
    resolve_inflight_.erase(it);
    NoteResolveFailure(txn);
  }
}

void Replica::RequestSyncAll() {
  for (Replica* peer : peers_) {
    if (peer == this) continue;
    NodeId peer_id = peer->id();
    net_->Send(id_, peer_id, [this, peer, peer_id] {
      peer->HandleSyncRequest([this, peer_id](std::vector<SyncEntry> state,
                                              std::vector<int> epochs) {
        net_->Send(peer_id, id_,
                   [this, state = std::move(state),
                    epochs = std::move(epochs)] { OnSyncState(state, epochs); });
      });
    });
  }
}

void Replica::HandleSyncRequest(
    std::function<void(std::vector<SyncEntry>, std::vector<int>)> reply) {
  reply(store_.ExportState(), group_epoch_);
}

void Replica::Crash() {
  PLANET_CHECK_MSG(!crashed(), "replica " << id_ << " already crashed");
  BeginCrash();
  // Everything below is volatile acceptor/master/learner state; only the
  // store's WAL survives the power cycle.
  for (auto& [key, q] : classic_queue_) {
    for (QueuedProposal& qp : q) sim_->Cancel(qp.timeout_event);
  }
  classic_queue_.clear();
  rounds_.clear();
  store_.DropDeferred();
  decided_.clear();
  decided_gc_at_ = kDecidedGcFloor;
  pending_since_.clear();
  resolve_inflight_.clear();
  recovery_scan_scheduled_ = false;
  std::fill(group_epoch_.begin(), group_epoch_.end(), 0);
}

void Replica::Restart() {
  PLANET_CHECK_MSG(crashed(), "replica " << id_ << " is not crashed");
  EndCrash();
  // Committed state is rebuilt from the WAL; pending options are gone (they
  // were never durable — the resolution protocol at the peers covers any
  // in-flight transaction that counted this acceptor's vote). Anti-entropy
  // then pulls commits that happened while this replica was down, and the
  // sync replies carry the current mastership epochs.
  store_.RecoverFromWal();
  RequestSyncAll();
}

void Replica::OnSyncState(const std::vector<SyncEntry>& state,
                          const std::vector<int>& epochs) {
  for (size_t g = 0; g < epochs.size() && g < group_epoch_.size(); ++g) {
    if (epochs[g] > group_epoch_[g]) group_epoch_[g] = epochs[g];
  }
  for (const SyncEntry& entry : state) {
    // Adoption also prunes and drains the key's deferred chain.
    if (!store_.AdoptRecord(entry)) continue;
    ++sync_records_adopted_;
    DrainClassicQueue(entry.key);
  }
}

}  // namespace planet
