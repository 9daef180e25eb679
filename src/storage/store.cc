#include "storage/store.h"

#include <algorithm>

namespace planet {

const Store::Record* Store::Find(Key key) const {
  const uint32_t* index = records_.Find(key);
  return index == nullptr ? nullptr : &RecordAt(*index);
}

Store::Record& Store::FindOrCreate(Key key) {
  const size_t count = records_.size();
  auto [index, inserted] =
      records_.TryEmplace(key, static_cast<uint32_t>(count));
  if (!inserted) return RecordAt(*index);
  if (count % kChunkRecords == 0) {
    PLANET_CHECK(count < (size_t{1} << 32));  // indices are 32-bit
    chunks_.emplace_back().reserve(kChunkRecords);
  }
  return chunks_.back().emplace_back();
}

RecordView Store::Read(Key key) const {
  PLANET_DCHECK_OWNED(thread_checker_);
  const Record* rec = Find(key);
  if (rec == nullptr) return RecordView{};
  return RecordView{rec->version, rec->value};
}

SpeculativeView Store::ReadSpeculative(Key key) const {
  PLANET_DCHECK_OWNED(thread_checker_);
  const Record* rec = Find(key);
  if (rec == nullptr) return SpeculativeView{};
  for (const WriteOption& p : rec->pending) {
    if (p.kind == OptionKind::kPhysical) {
      return SpeculativeView{RecordView{rec->version + 1, p.new_value}, true};
    }
  }
  return SpeculativeView{RecordView{rec->version, rec->value}, false};
}

void Store::SeedValue(Key key, Value value) {
  PLANET_DCHECK_OWNED(thread_checker_);
  Record& rec = FindOrCreate(key);
  ++rec.version;
  rec.value = value;
  // Seeded state is durable: without a WAL entry it would silently vanish
  // on crash recovery.
  wal_.push_back(
      WalEntry{kInvalidTxnId, key, rec.version, rec.value, rec.comm_txns});
}

void Store::SetBounds(Key key, ValueBounds bounds) {
  PLANET_DCHECK_OWNED(thread_checker_);
  Record& rec = FindOrCreate(key);
  rec.bounds = bounds;
  rec.has_bounds = true;
}

Status Store::CheckRecord(const Record& rec, const WriteOption& option) const {
  if (option.kind == OptionKind::kPhysical) {
    if (option.read_version != rec.version) {
      ++rejects_stale_;
      return Status::Aborted("stale read version");
    }
    for (const WriteOption& p : rec.pending) {
      if (p.txn != option.txn) {
        ++rejects_conflict_;
        return Status::FailedPrecondition("pending option conflict");
      }
    }
    return Status::OK();
  }

  // Commutative: conflicts only with pending *physical* options of other
  // transactions; versions are irrelevant; demarcation bounds must hold under
  // the worst-case interleaving of already-pending deltas.
  Value pess = rec.value;  // worst case for the lower bound
  Value opt = rec.value;   // worst case for the upper bound
  for (const WriteOption& p : rec.pending) {
    if (p.txn == option.txn) continue;
    if (p.kind == OptionKind::kPhysical) {
      ++rejects_conflict_;
      return Status::FailedPrecondition("pending physical option conflict");
    }
    pess += std::min<Value>(0, p.delta);
    opt += std::max<Value>(0, p.delta);
  }
  pess += std::min<Value>(0, option.delta);
  opt += std::max<Value>(0, option.delta);
  if (rec.has_bounds && (pess < rec.bounds.lower || opt > rec.bounds.upper)) {
    ++rejects_bounds_;
    return Status::Aborted("demarcation bounds violated");
  }
  return Status::OK();
}

Status Store::TryAcceptOption(const WriteOption& option) {
  PLANET_DCHECK_OWNED(thread_checker_);
  Record& rec = FindOrCreate(option.key);
  Status st = CheckRecord(rec, option);
  if (!st.ok()) return st;
  // Idempotent per (txn, key): replace any previous pending entry.
  std::erase_if(rec.pending, [&](const WriteOption& p) {
    return p.txn == option.txn;
  });
  if (rec.pending.capacity() == 0) rec.pending.reserve(2);
  rec.pending.push_back(option);
  ++accepts_;
  return st;
}

void Store::RemoveOption(TxnId txn, Key key) {
  PLANET_DCHECK_OWNED(thread_checker_);
  const uint32_t* index = records_.Find(key);
  if (index == nullptr) return;
  std::erase_if(RecordAt(*index).pending,
                [&](const WriteOption& p) { return p.txn == txn; });
}

void Store::ApplyPayload(Record& rec, const WriteOption& option) {
  if (option.kind == OptionKind::kPhysical) {
    // Physical transitions advance the per-key version chain; replicas apply
    // them in version order so the chain (and final state) is identical
    // everywhere.
    ++rec.version;
    rec.value = option.new_value;
  } else {
    // Commutative deltas do not touch the version: addition commutes, so
    // replicas converge regardless of delivery order. A delta this record
    // already embeds (re-delivered visibility, or a learn racing with an
    // adoption that included it) must not be added twice.
    if (rec.HasDelta(option.txn)) return;
    rec.value += option.delta;
    rec.comm_txns.push_back(option.txn);
  }
  wal_.push_back(WalEntry{option.txn, option.key, rec.version, rec.value, {}});
}

void Store::ApplyOrLearn(const WriteOption& option) {
  PLANET_DCHECK_OWNED(thread_checker_);
  Record& rec = FindOrCreate(option.key);
  // The pending entry (if any) is consumed either way: applying an accepted
  // option and learning one this replica never accepted are the same
  // transition.
  std::erase_if(rec.pending, [&](const WriteOption& p) {
    return p.txn == option.txn;
  });
  ApplyPayload(rec, option);
}

void Store::ApplyInOrder(const WriteOption& option) {
  PLANET_DCHECK_OWNED(thread_checker_);
  if (option.kind == OptionKind::kCommutative) {
    ApplyOrLearn(option);
    return;
  }
  Version current = Read(option.key).version;
  if (current == option.read_version) {
    ApplyOrLearn(option);
    DrainDeferred(option.key);
  } else if (current < option.read_version) {
    // An earlier committed transition has not arrived here yet; hold this
    // one so replicas apply the unique per-key version chain in order.
    deferred_[option.key][option.read_version] = option;
  } else {
    // Already applied (duplicate delivery); the pending entry, if any, is
    // obsolete.
    RemoveOption(option.txn, option.key);
  }
}

void Store::DrainDeferred(Key key) {
  auto it = deferred_.find(key);
  if (it == deferred_.end()) return;
  auto& chain = it->second;
  // Deferred chains hold only physical options (commutative ones apply
  // immediately), and each application bumps the version by exactly one —
  // so the version walks locally instead of re-reading the record per link.
  Version current = Read(key).version;
  while (true) {
    auto next = chain.find(current);
    if (next == chain.end()) break;
    WriteOption option = next->second;
    chain.erase(next);
    ApplyOrLearn(option);
    ++current;
  }
  if (chain.empty()) deferred_.erase(it);
}

size_t Store::DeferredCount() const {
  size_t total = 0;
  for (const auto& [key, chain] : deferred_) total += chain.size();
  return total;
}

size_t Store::TotalPending() const {
  size_t total = 0;
  for (const std::vector<Record>& chunk : chunks_) {
    for (const Record& rec : chunk) total += rec.pending.size();
  }
  return total;
}

std::vector<WriteOption> Store::PendingFor(Key key) const {
  const Record* rec = Find(key);
  return rec != nullptr ? rec->pending : std::vector<WriteOption>{};
}

std::vector<SyncEntry> Store::ExportState() const {
  PLANET_DCHECK_OWNED(thread_checker_);
  std::vector<SyncEntry> state;
  state.reserve(records_.size());
  records_.ForEach([&](Key key, uint32_t index) {
    const Record& rec = RecordAt(index);
    state.push_back(SyncEntry{key, rec.version, rec.value,
                              rec.comm_txns.size(), rec.comm_txns});
  });
  // records_ is a hash table: sort so sync replies (and anything else built on
  // the export) are identical across platforms, not just across runs.
  std::sort(state.begin(), state.end(),
            [](const SyncEntry& a, const SyncEntry& b) { return a.key < b.key; });
  return state;
}

bool Store::AdoptRecord(const SyncEntry& entry) {
  PLANET_DCHECK_OWNED(thread_checker_);
  Record& rec = FindOrCreate(entry.key);
  bool fresher = entry.version > rec.version ||
                 (entry.version == rec.version &&
                  entry.deltas_applied > rec.comm_txns.size());
  if (!fresher) return false;
  rec.version = entry.version;
  rec.value = entry.value;
  // The peer's value embeds exactly the peer's delta set: install it too,
  // so a late learn of one of those transactions stays a no-op here.
  rec.comm_txns = entry.comm_txns;
  wal_.push_back(WalEntry{kInvalidTxnId, entry.key, rec.version, rec.value,
                          rec.comm_txns});
  // Transitions deferred behind versions just jumped over are obsolete.
  auto it = deferred_.find(entry.key);
  if (it != deferred_.end()) {
    std::erase_if(it->second,
                  [&](const auto& e) { return e.first < rec.version; });
    if (it->second.empty()) deferred_.erase(it);
  }
  DrainDeferred(entry.key);
  return true;
}

void Store::RecoverFromWal() {
  PLANET_DCHECK_OWNED(thread_checker_);
  // Bounds are catalog metadata installed at cluster build time; carry them
  // across the wipe.
  std::vector<std::pair<Key, ValueBounds>> bounds;
  records_.ForEach([&](Key key, uint32_t index) {
    const Record& rec = RecordAt(index);
    if (rec.has_bounds) bounds.emplace_back(key, rec.bounds);
  });
  records_.clear();
  chunks_.clear();
  for (const WalEntry& entry : wal_) {
    Record& rec = FindOrCreate(entry.key);
    if (entry.txn == kInvalidTxnId) {
      // Seed or adoption: whole-record install, including the set of
      // commutative transactions the installed value embeds.
      rec.version = entry.new_version;
      rec.value = entry.new_value;
      rec.comm_txns = entry.comm_txns;
    } else if (entry.new_version == rec.version) {
      // Same-version transition: a committed commutative delta.
      rec.value = entry.new_value;
      rec.comm_txns.push_back(entry.txn);
    } else {
      rec.version = entry.new_version;
      rec.value = entry.new_value;
    }
  }
  for (const auto& [key, b] : bounds) {
    Record& rec = FindOrCreate(key);
    rec.bounds = b;
    rec.has_bounds = true;
  }
}

void Store::RestoreFromLog(std::vector<WalEntry> entries) {
  PLANET_DCHECK_OWNED(thread_checker_);
  wal_ = std::move(entries);
  RecoverFromWal();
}

std::map<Key, RecordView> Store::Snapshot() const {
  PLANET_DCHECK_OWNED(thread_checker_);
  std::map<Key, RecordView> snapshot;
  records_.ForEach([&](Key key, uint32_t index) {
    const Record& rec = RecordAt(index);
    // Records still in their logical default state (never committed to) are
    // omitted: whether a replica materialized such a record is an artifact
    // of aborted accepts, not a semantic difference.
    if (rec.version == 0 && rec.value == 0 && rec.comm_txns.empty()) return;
    snapshot[key] = RecordView{rec.version, rec.value};
  });
  return snapshot;
}

}  // namespace planet
