#include "txn/coordinator.h"

#include "common/logging.h"

namespace planet {

Coordinator::Coordinator(Simulator* sim, Network* net, NodeId id, DcId dc,
                         Rng rng, const StackConfig& config)
    : Node(sim, net, id, dc, rng), read_timeout_(config.read_timeout) {}

void Coordinator::Read(TxnId txn, Key key, ReadCallback cb) {
  TxnBuffer* state = FindExecuting(txn);
  PLANET_CHECK_MSG(state != nullptr,
                   "read on unknown or submitted txn " << txn);

  // Read-your-writes: a buffered physical write is served from the write
  // buffer without a network round trip (its read version is already
  // pinned by the earlier read).
  auto buffered = state->writes.find(key);
  if (buffered != state->writes.end() &&
      buffered->second.kind == OptionKind::kPhysical) {
    RecordView view{state->read_versions[key].version,
                    buffered->second.new_value};
    sim_->Schedule(0, [cb = std::move(cb), view] { cb(Status::OK(), view); });
    return;
  }

  // A crashed or partitioned local node otherwise hangs the transaction
  // (and its closed-loop client) forever.
  auto read = std::make_shared<PendingRead>();
  read->txn = txn;
  read->key = key;
  read->cb = std::move(cb);
  if (read_timeout_ > 0) {
    read->timeout = sim_->Schedule(read_timeout_, [read] {
      if (read->done) return;
      read->done = true;
      read->cb(Status::Unavailable("read timeout"), RecordView{});
    });
  }
  SendRead(std::move(read));
}

void Coordinator::OnReadReply(const std::shared_ptr<PendingRead>& read,
                              RecordView view, bool speculative) {
  if (read->done) return;
  read->done = true;
  if (read->timeout != kInvalidEventId) sim_->Cancel(read->timeout);
  TxnBuffer* state = FindExecuting(read->txn);
  if (state != nullptr) {
    if (isolation_ == IsolationLevel::kCausal) {
      // Session guarantee: never observe a key older than this session
      // already has. A lagging replica's reply is upgraded to the
      // remembered floor view.
      auto floor = session_floor_.find(read->key);
      if (floor != session_floor_.end() &&
          floor->second.version > view.version) {
        view = floor->second;
      } else {
        session_floor_[read->key] = view;
      }
    }
    state->read_versions[read->key] =
        ObservedRead{view.version, speculative, Now()};
    // Read-your-writes for buffered commutative deltas.
    auto w = state->writes.find(read->key);
    if (w != state->writes.end() &&
        w->second.kind == OptionKind::kCommutative) {
      view.value += w->second.delta;
    }
  }
  read->cb(Status::OK(), view);
}

Status Coordinator::Write(TxnId txn, Key key, Value value) {
  TxnBuffer* state = FindExecuting(txn);
  if (state == nullptr) return Status::InvalidArgument("txn not executing");
  auto rv = state->read_versions.find(key);
  if (rv == state->read_versions.end()) {
    return Status::FailedPrecondition("write requires a prior read (RMW)");
  }
  auto existing = state->writes.find(key);
  if (existing != state->writes.end() &&
      existing->second.kind == OptionKind::kCommutative) {
    return Status::InvalidArgument("key already has a commutative write");
  }
  WriteOption option;
  option.txn = txn;
  option.key = key;
  option.kind = OptionKind::kPhysical;
  option.read_version = rv->second.version;
  option.new_value = value;
  state->writes[key] = option;
  return Status::OK();
}

void Coordinator::Commit(TxnId txn, CommitCallback cb) {
  TxnBuffer* state = FindExecuting(txn);
  PLANET_CHECK_MSG(state != nullptr,
                   "commit on unknown or submitted txn " << txn);
  state->commit_cb = std::move(cb);
  state->submitted = true;
  if (delays_ != nullptr) {
    auto it = delays_->find(txn);
    if (it != delays_->end() && it->second > 0) {
      // Predictive-replay directive: hold the whole commit submission (the
      // writes stay unproposed, so other clients' reads cannot observe them
      // yet) and submit after the delay.
      sim_->Schedule(it->second, [this, txn] {
        if (TxnBuffer* held = FindExecuting(txn)) StartCommit(*held);
      });
      return;
    }
  }
  StartCommit(*state);
}

void Coordinator::AbortEarly(TxnId txn) {
  TxnBuffer* state = FindExecuting(txn);
  if (state != nullptr && !state->submitted) Forget(txn);
}

void Coordinator::NoteDecision(const TxnBuffer& txn, const Status& outcome,
                               bool in_doubt, bool early_abort) {
  if (recorder_ != nullptr) {
    RecordedTxn rec;
    rec.id = txn.id;
    rec.client_dc = dc_;
    rec.client_node = id_;
    rec.isolation = isolation_;
    rec.begin = txn.begin;
    rec.decide = Now();
    rec.outcome = outcome.ok()              ? TxnOutcome::kCommitted
                  : outcome.IsUnavailable() ? TxnOutcome::kUnavailable
                                            : TxnOutcome::kAborted;
    rec.in_doubt = in_doubt;
    rec.early_abort = early_abort;
    rec.reads.reserve(txn.read_versions.size());
    for (const auto& [key, observed] : txn.read_versions) {
      rec.reads.push_back(RecordedRead{key, observed.version,
                                       observed.speculative, observed.at});
    }
    rec.writes.reserve(txn.writes.size());
    for (const auto& [key, option] : txn.writes) {
      RecordedWrite w;
      w.key = key;
      w.kind = option.kind;
      w.read_version = option.read_version;
      w.new_value = option.new_value;
      w.delta = option.delta;
      rec.writes.push_back(w);
    }
    recorder_->RecordTxn(std::move(rec));
  }
  if (!outcome.ok() || isolation_ != IsolationLevel::kCausal) return;
  // Read-your-writes across transactions: future session reads must be at
  // least as fresh as the versions this commit installs.
  for (const auto& [key, option] : txn.writes) {
    if (option.kind != OptionKind::kPhysical) continue;
    RecordView installed{option.read_version + 1, option.new_value};
    RecordView& floor = session_floor_[key];
    if (installed.version > floor.version) floor = installed;
  }
}

}  // namespace planet
