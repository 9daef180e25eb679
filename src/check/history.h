// Per-run transaction history: the input of the correctness oracles.
//
// A History is the client-side ground truth of one simulated run — every
// transaction that reached a decision, with its validated read set, its
// write set, its outcome, and its logical (simulated) timestamps. Clients
// append to it through a HistoryRecorder hook that is null by default:
// with no recorder attached the commit path performs no extra work, no
// allocation, and schedules no events, so instrumented and uninstrumented
// runs are bit-identical.
//
// The stack's isolation contract (see docs/TESTING.md): reads are read
// committed, writes are validated read-modify-writes. The serializability
// checker therefore distinguishes *validated* accesses (the read_version
// carried by every physical write, enforced by the acceptors) from plain
// reads (observed committed state, no validation) and checks update
// serializability over the former by default.
#ifndef PLANET_CHECK_HISTORY_H_
#define PLANET_CHECK_HISTORY_H_

#include <algorithm>
#include <vector>

#include "common/types.h"
#include "storage/option.h"

namespace planet {

/// Decision reached by a transaction's coordinator.
enum class TxnOutcome {
  kCommitted,    ///< decided commit; all options chosen
  kAborted,      ///< decided abort (conflict / stale / bounds)
  kUnavailable,  ///< timed out / partitioned before a decision
};

const char* TxnOutcomeName(TxnOutcome outcome);

/// One read observed by a transaction (key and the committed version read).
struct RecordedRead {
  Key key = 0;
  Version version = 0;
  /// The read observed a pending (accepted but undecided) option under
  /// read-committed visibility; its version is the option's would-be
  /// installed version, which may never commit.
  bool speculative = false;
  /// Completion time of the read at the client (0 for pre-mode histories).
  /// The predictive pass uses it to order reads against writer decisions.
  SimTime at = 0;
};

/// One buffered write as submitted at commit time.
struct RecordedWrite {
  Key key = 0;
  OptionKind kind = OptionKind::kPhysical;
  Version read_version = 0;  ///< validated base version (physical / RMW)
  Value new_value = 0;       ///< physical payload
  Value delta = 0;           ///< commutative payload

  /// Version a committed physical write installs (the store bumps the
  /// record from read_version to read_version + 1 at visibility).
  Version installed() const { return read_version + 1; }
};

/// One decided transaction as its coordinator saw it.
struct RecordedTxn {
  TxnId id = kInvalidTxnId;
  DcId client_dc = 0;
  /// Node id of the issuing client — identifies the session for the causal
  /// session checks and the predictor's same-client feasibility filter.
  NodeId client_node = kInvalidNodeId;
  /// Isolation mode the client ran this transaction under. The checker and
  /// the predictive pass only admit unvalidated reads of weak-mode
  /// (non-serializable) transactions into their graphs.
  IsolationLevel isolation = IsolationLevel::kSerializable;
  SimTime begin = 0;   ///< Begin() time
  SimTime decide = 0;  ///< decision time (commit/abort/timeout)
  TxnOutcome outcome = TxnOutcome::kAborted;
  /// 2PC only: the coordinator gave up while phase-2 commit was in flight,
  /// so the writes may be applied at some homes (the classic in-doubt
  /// window). MDCC transactions are never in doubt: the coordinator is the
  /// single decider and broadcasts aborts for timeouts.
  bool in_doubt = false;
  /// Killed by the predictive early-abort path before its Paxos round
  /// resolved. The outcome is a plain kAborted — no option was chosen, the
  /// AbortNotice broadcast released every pending option — so the oracles
  /// need no special case; the flag only annotates the witness output.
  bool early_abort = false;
  std::vector<RecordedRead> reads;    ///< sorted by key
  std::vector<RecordedWrite> writes;  ///< sorted by key
};

/// A key's committed state seeded outside the protocol (SeedValue bumps the
/// version exactly like a committed physical write, with no recorded txn).
struct SeededKey {
  Key key = 0;
  Version version = 0;
  Value value = 0;
};

/// The per-run transaction log plus the seeded initial state.
class History {
 public:
  /// Declares that `key` was seeded to (version, value) before traffic.
  void AddSeed(Key key, Version version, Value value) {
    seeds_.push_back(SeededKey{key, version, value});
  }

  /// Appends one decided transaction (reads/writes are sorted by key so
  /// witnesses print deterministically regardless of hash-map order).
  void Add(RecordedTxn txn) {
    std::sort(txn.reads.begin(), txn.reads.end(),
              [](const RecordedRead& a, const RecordedRead& b) {
                return a.key < b.key;
              });
    std::sort(txn.writes.begin(), txn.writes.end(),
              [](const RecordedWrite& a, const RecordedWrite& b) {
                return a.key < b.key;
              });
    txns_.push_back(std::move(txn));
  }

  const std::vector<RecordedTxn>& txns() const { return txns_; }
  const std::vector<SeededKey>& seeds() const { return seeds_; }

  size_t CommittedCount() const {
    size_t n = 0;
    for (const RecordedTxn& t : txns_) {
      if (t.outcome == TxnOutcome::kCommitted) ++n;
    }
    return n;
  }

 private:
  std::vector<RecordedTxn> txns_;
  std::vector<SeededKey> seeds_;
};

/// The sink clients write through. A thin wrapper today; kept distinct from
/// History so future recorders can subsample or stream without touching the
/// client hooks.
class HistoryRecorder {
 public:
  void RecordSeed(Key key, Version version, Value value) {
    history_.AddSeed(key, version, value);
  }
  void RecordTxn(RecordedTxn txn) { history_.Add(std::move(txn)); }

  History& history() { return history_; }
  const History& history() const { return history_; }

 private:
  History history_;
};

}  // namespace planet

#endif  // PLANET_CHECK_HISTORY_H_
