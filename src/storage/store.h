// Per-replica versioned record store (the acceptor's durable state).
//
// Every key logically exists with (version 0, value 0); records materialize
// on first touch. A record carries its committed state plus the list of
// pending (accepted but not yet visible) options, which is exactly the
// acceptor state of the per-record Paxos instance. Decided physical
// transitions that arrive ahead of their predecessor wait in a per-key
// deferred chain, so every replica applies the same version chain. A
// write-ahead log of applied transitions supports the atomicity audits in
// the test suite.
#ifndef PLANET_STORAGE_STORE_H_
#define PLANET_STORAGE_STORE_H_

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/status.h"
#include "common/thread_checker.h"
#include "common/types.h"
#include "storage/option.h"

namespace planet {

/// Committed state of a record as seen by readers.
struct RecordView {
  Version version = 0;
  Value value = 0;

  bool operator==(const RecordView&) const = default;
};

/// Result of a speculative (read-committed visibility) read: the view plus
/// whether it exposes an accepted-but-undecided pending option.
struct SpeculativeView {
  RecordView view;
  bool speculative = false;
};

/// Demarcation bounds for commutative updates on a key.
struct ValueBounds {
  Value lower = 0;
  Value upper = std::numeric_limits<Value>::max();
};

/// One entry of the (in-memory) write-ahead log: a record transition applied
/// at visibility time. Seed and adoption entries (txn == kInvalidTxnId)
/// install whole-record state and carry `comm_txns`, the set of committed
/// commutative transactions whose deltas that state embeds — without it a
/// replayed replica could not tell an already-incorporated delta from a
/// missed one and would re-apply it on a late learn.
struct WalEntry {
  TxnId txn;
  Key key;
  Version new_version;
  Value new_value;
  std::vector<TxnId> comm_txns;
};

/// One record's committed state as shipped by anti-entropy sync.
/// `deltas_applied` counts committed commutative deltas (they do not bump
/// the version, so it is the freshness signal for counter records);
/// `comm_txns` identifies those transactions, making later learns of a
/// delta the adopted value already embeds idempotent at the adopter.
struct SyncEntry {
  Key key = 0;
  Version version = 0;
  Value value = 0;
  uint64_t deltas_applied = 0;
  std::vector<TxnId> comm_txns;
};

/// The store. Single-owner (one per replica node), not thread safe — and
/// enforced as such: in PLANET_THREAD_CHECKS builds (Debug / sanitizers)
/// every protocol entry point asserts it runs on the thread that first used
/// this store. DetachFromThread() releases ownership for explicit handoff.
class Store {
 public:
  // Pre-size the WAL past the first few doublings; every committed write
  // appends an entry, so the vector reaches steady growth almost instantly.
  Store() { wal_.reserve(64); }

  /// Releases single-owner thread affinity (ownership transfer).
  void DetachFromThread() { thread_checker_.DetachFromThread(); }

  /// Committed view of a key (version 0 / value 0 if never written).
  RecordView Read(Key key) const;

  /// Read-committed-visibility read: if the record carries a pending
  /// *physical* option (there is at most one — the conflict check rejects
  /// seconds), the returned view exposes its would-be state
  /// (version + 1, new_value) and is flagged speculative. Pending
  /// commutative deltas are not exposed: they install no version, so a
  /// speculative counter view would be unattributable to any chain state.
  SpeculativeView ReadSpeculative(Key key) const;

  /// Seeds a committed value without going through the protocol (workload
  /// initialisation). Bumps the version.
  void SeedValue(Key key, Value value);

  /// Sets demarcation bounds enforced on commutative options for `key`.
  void SetBounds(Key key, ValueBounds bounds);

  /// The acceptor's one entry point: accepts `option` (appends it to the
  /// key's pending list) iff it is compatible with the record right now,
  /// and returns OK or the rejection reason:
  ///  * kAborted          — stale read version (physical) / bounds violated
  ///  * kFailedPrecondition — conflicts with a pending option of another txn
  /// Idempotent per (txn, key): re-accepting replaces the previous entry.
  [[nodiscard]] Status TryAcceptOption(const WriteOption& option);

  /// Drops the pending option of (txn, key) if present (abort / learn-other).
  void RemoveOption(TxnId txn, Key key);

  /// Makes a decided option visible, whether or not this replica accepted
  /// it: drops its pending entry if any, applies the payload (physical
  /// overwrites and bumps the version; commutative adds) and logs to the
  /// WAL. Idempotent for commutative options: a delta the record already
  /// embeds (applied directly, or inherited through AdoptRecord) is not
  /// applied twice. Applies unconditionally: ApplyInOrder is the
  /// version-checked path.
  void ApplyOrLearn(const WriteOption& option);

  /// The learner's apply: ApplyOrLearn in version order. A commutative
  /// option, or the physical transition from the key's current version,
  /// applies now, followed by any deferred successors it unblocks. A
  /// physical transition from a later version waits in the key's deferred
  /// chain; one from an earlier version is a duplicate and only drops its
  /// pending entry.
  void ApplyInOrder(const WriteOption& option);

  /// Physical transitions waiting in deferred chains.
  size_t DeferredCount() const;

  /// Drops every deferred chain (volatile learner state, lost on a crash).
  void DropDeferred() { deferred_.clear(); }

  /// Number of pending options across all records.
  size_t TotalPending() const;

  /// Pending options of one key (empty if none).
  std::vector<WriteOption> PendingFor(Key key) const;

  /// Snapshot of all materialized committed records (tests / audits).
  std::map<Key, RecordView> Snapshot() const;

  /// Exports every materialized record for anti-entropy sync.
  std::vector<SyncEntry> ExportState() const;

  /// Adopts a peer's committed record state if it is fresher than ours:
  /// higher version, or equal version with more commutative deltas applied.
  /// Returns true if the local state changed. Pending options are untouched;
  /// deferred transitions the adopted version jumped over are dropped, and
  /// the rest of the key's chain applies as far as it now connects.
  bool AdoptRecord(const SyncEntry& entry);

  /// Crash recovery: rebuilds committed state by replaying the WAL (the
  /// only durable structure). Pending options are volatile acceptor state
  /// and are discarded; demarcation bounds survive as catalog metadata.
  /// Seed/adoption entries carry the embedded commutative transaction set,
  /// so the rebuilt state is delta-exact and replayed learns stay
  /// idempotent across the crash.
  void RecoverFromWal();

  /// Crash recovery from an externally supplied log: replaces this store's
  /// WAL with `entries` and replays it (same semantics as RecoverFromWal).
  /// Models a power cycle that lost the log suffix after `entries` — the
  /// crash-point sweep tests restore every prefix of a run's WAL this way.
  void RestoreFromLog(std::vector<WalEntry> entries);

  const std::vector<WalEntry>& wal() const { return wal_; }

  /// Counters for experiments.
  uint64_t accepts() const { return accepts_; }
  uint64_t rejects_stale() const { return rejects_stale_; }
  uint64_t rejects_conflict() const { return rejects_conflict_; }
  uint64_t rejects_bounds() const { return rejects_bounds_; }

 private:
  struct Record {
    Version version = 0;
    Value value = 0;
    /// Committed commutative transactions whose deltas `value` embeds, in
    /// application order. Membership makes commutative application
    /// idempotent: after AdoptRecord installs a peer value that already
    /// includes a txn's delta, the txn's own (late) learn must be a no-op —
    /// otherwise the delta lands twice and anti-entropy spreads the corrupt
    /// record everywhere ("equal version, more deltas" looks fresher).
    std::vector<TxnId> comm_txns;
    ValueBounds bounds;
    bool has_bounds = false;
    std::vector<WriteOption> pending;

    bool HasDelta(TxnId txn) const {
      return std::find(comm_txns.begin(), comm_txns.end(), txn) !=
             comm_txns.end();
    }
  };

  /// Records live in chunks of kChunkRecords that never move, so a record
  /// reference stays valid while others are created, and materializing a
  /// record allocates nothing but, now and then, the next chunk.
  static constexpr uint32_t kChunkShift = 10;
  static constexpr uint32_t kChunkRecords = uint32_t{1} << kChunkShift;

  Record& RecordAt(uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkRecords - 1)];
  }
  const Record& RecordAt(uint32_t index) const {
    return chunks_[index >> kChunkShift][index & (kChunkRecords - 1)];
  }
  const Record* Find(Key key) const;
  Record& FindOrCreate(Key key);
  /// TryAcceptOption's compatibility check against a located record.
  [[nodiscard]] Status CheckRecord(const Record& rec,
                                   const WriteOption& option) const;
  void ApplyPayload(Record& rec, const WriteOption& option);
  /// Applies the deferred transitions of `key` that now connect.
  void DrainDeferred(Key key);

  ThreadChecker thread_checker_;
  /// key -> index of its record in chunks_.
  FlatMap<uint32_t> records_;
  /// Every chunk but the last is full; each keeps its reserved capacity.
  std::vector<std::vector<Record>> chunks_;
  /// key -> (read_version -> decided option) awaiting earlier versions.
  std::unordered_map<Key, std::map<Version, WriteOption>> deferred_;
  std::vector<WalEntry> wal_;
  uint64_t accepts_ = 0;
  mutable uint64_t rejects_stale_ = 0;
  mutable uint64_t rejects_conflict_ = 0;
  mutable uint64_t rejects_bounds_ = 0;
};

}  // namespace planet

#endif  // PLANET_STORAGE_STORE_H_
