// Client front end shared by both commit stacks.
//
// mdcc::Client and TpcClient differ only in how they commit, so everything
// a transaction does before and around its commit lives here once:
// transaction ids, the read set and the write buffer, the read-modify-write
// rule, read-your-writes, the read-timeout race, the causal session floor,
// predictive-replay commit delays and the history record. A stack supplies
// how a read reaches its local node (SendRead) and how a commit runs
// (StartCommit), plus its own record flags. Keeping one copy is what makes
// the MDCC-versus-2PC comparison isolate commit processing.
#ifndef PLANET_TXN_COORDINATOR_H_
#define PLANET_TXN_COORDINATOR_H_

#include <functional>
#include <map>
#include <memory>

#include "check/history.h"
#include "common/status.h"
#include "sim/node.h"
#include "storage/store.h"
#include "txn/config.h"

namespace planet {

/// Per-transaction commit-submission delays, keyed by TxnId. Transaction
/// ids are per-client sequence numbers ((node id << 40) | seq), so they are
/// stable across replays of the same seed — the predictive pass exploits
/// this to target one specific transaction of a re-run.
using ScheduleDelays = std::map<TxnId, Duration>;

/// A client node that coordinates the transactions it begins. Not thread
/// safe (simulated).
class Coordinator : public Node {
 public:
  using ReadCallback = std::function<void(Status, RecordView)>;
  using CommitCallback = std::function<void(Status)>;

  /// Asynchronous read from the local DC's node. Records the observed
  /// version as the transaction's read version for `key`. A key this
  /// transaction already wrote physically is served from the write buffer
  /// without a message (read-your-writes). Under kCausal a reply older than
  /// this session has already seen is upgraded to the newer view. A reply
  /// that misses config.read_timeout is answered with kUnavailable instead.
  void Read(TxnId txn, Key key, ReadCallback cb);

  /// Buffers a physical write. Requires a prior Read of `key` in this
  /// transaction (read-modify-write); otherwise kFailedPrecondition.
  [[nodiscard]] Status Write(TxnId txn, Key key, Value value);

  /// Starts commit processing; `cb` fires exactly once with the outcome:
  /// OK, Aborted (conflict), or Unavailable (timeout / partition).
  /// Read-only transactions commit immediately. A schedule delay for `txn`
  /// holds the whole submission back by its duration.
  void Commit(TxnId txn, CommitCallback cb);

  /// Drops a transaction that has not been submitted (e.g. after a read
  /// timeout). A no-op for an unknown transaction and once Commit has been
  /// called, even while a schedule delay still holds the submission back.
  void AbortEarly(TxnId txn);

  /// Attaches a history recorder: every decided transaction is logged with
  /// its validated reads, writes, outcome and timestamps (correctness
  /// oracles). Null (the default) records nothing and adds no work, no
  /// events and no RNG draws, so uninstrumented runs stay bit-identical.
  void SetHistoryRecorder(HistoryRecorder* recorder) { recorder_ = recorder; }

  /// Sets the isolation mode for transactions begun from now on.
  /// kSerializable (the default) leaves every code path untouched.
  /// kReadCommitted lets a stack serve speculative reads (MDCC exposes
  /// pending options; 2PC has none, so there it changes the recording
  /// context only); kCausal adds the session floor (monotonic reads and
  /// read-your-writes across transactions).
  void SetIsolation(IsolationLevel isolation) { isolation_ = isolation; }
  IsolationLevel isolation() const { return isolation_; }

  /// Attaches per-transaction commit-submission delays (predictive-replay
  /// directives): Commit(txn) defers the submission by the mapped duration.
  /// Null (the default) adds no lookup; the map must outlive the client.
  /// Unmatched transactions are unaffected.
  void SetScheduleDelays(const ScheduleDelays* delays) { delays_ = delays; }

 protected:
  Coordinator(Simulator* sim, Network* net, NodeId id, DcId dc, Rng rng,
              const StackConfig& config);

  /// What one read observed, with the metadata the history records.
  struct ObservedRead {
    Version version = 0;
    bool speculative = false;  ///< exposed a pending option (read_committed)
    SimTime at = 0;
  };

  /// The part of a transaction both stacks keep: its reads, its buffered
  /// writes and its commit callback. Each stack's transaction state derives
  /// from it.
  struct TxnBuffer {
    TxnId id = kInvalidTxnId;
    SimTime begin = 0;
    // Ordered: these are iterated when proposing and committing, and the
    // iteration order decides message order on the wire — std::map keeps
    // that order platform-independent (hash order is not).
    std::map<Key, ObservedRead> read_versions;
    std::map<Key, WriteOption> writes;
    CommitCallback commit_cb;
    bool submitted = false;  ///< Commit was called
  };

  /// One remote read in flight. Its reply and its timeout race; whichever
  /// comes first answers the read.
  struct PendingRead {
    TxnId txn = kInvalidTxnId;
    Key key = 0;
    bool done = false;
    EventId timeout = kInvalidEventId;
    ReadCallback cb;
  };

  /// The next id of a transaction this client begins.
  TxnId NewTxnId() {
    return (static_cast<TxnId>(id_) << 40) | next_local_txn_++;
  }

  /// The transaction if it exists and has not started committing.
  virtual TxnBuffer* FindExecuting(TxnId txn) = 0;
  /// Erases an unsubmitted transaction (AbortEarly).
  virtual void Forget(TxnId txn) = 0;
  /// Sends `read` to the local node, whose reply reaches OnReadReply.
  virtual void SendRead(std::shared_ptr<PendingRead> read) = 0;
  /// Runs the commit protocol once any schedule delay has elapsed.
  virtual void StartCommit(TxnBuffer& txn) = 0;

  /// Answers `read` with the node's reply, unless the timeout already did.
  void OnReadReply(const std::shared_ptr<PendingRead>& read, RecordView view,
                   bool speculative);

  /// Bookkeeping of a transaction decided now: logs it to the recorder with
  /// the stack's own flags, and after a commit under kCausal raises the
  /// session floor to the versions it installs.
  void NoteDecision(const TxnBuffer& txn, const Status& outcome, bool in_doubt,
                    bool early_abort);

 private:
  Duration read_timeout_;
  HistoryRecorder* recorder_ = nullptr;
  IsolationLevel isolation_ = IsolationLevel::kSerializable;
  const ScheduleDelays* delays_ = nullptr;
  /// kCausal only: highest view of each key this session has observed or
  /// committed. Ordered map for deterministic teardown; accessed per key.
  std::map<Key, RecordView> session_floor_;
  uint64_t next_local_txn_ = 1;
};

}  // namespace planet

#endif  // PLANET_TXN_COORDINATOR_H_
