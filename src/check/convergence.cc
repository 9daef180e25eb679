#include "check/convergence.h"

#include <set>
#include <sstream>

namespace planet {
namespace {

RecordView ViewOf(const ReplicaState& replica, Key key) {
  auto it = replica.snapshot.find(key);
  return it == replica.snapshot.end() ? RecordView{} : it->second;
}

/// What the history says a key's quiesced state should be.
struct ExpectedKey {
  Version seed_version = 0;
  Value seed_value = 0;
  /// Highest committed installed version and its payload (physical chain).
  Version last_version = 0;
  Value last_value = 0;
  bool has_physical = false;
  /// Committed physical writes on the key. In a correct run they form a
  /// linear chain, so the quiesced version must be seed_version + count;
  /// a fork (two writers of one version) leaves the count ahead of the
  /// actual chain length, which is how this oracle sees lost updates even
  /// when the replicas agree pairwise.
  uint64_t committed_physical = 0;
  Value delta_sum = 0;
  bool has_delta = false;
  /// An in-doubt 2PC transaction touched this key: its write may or may not
  /// have been applied, so the final state is not predictable from the
  /// history. The pairwise comparison still covers the key.
  bool in_doubt = false;
};

}  // namespace

std::string ConvergenceViolation::ToString() const {
  const char* name = kind == Kind::kDivergence      ? "divergence"
                     : kind == Kind::kChainMismatch ? "chain-mismatch"
                                                    : "delta-mismatch";
  std::ostringstream os;
  os << name << ": " << message;
  return os.str();
}

std::string ConvergenceReport::Summary() const {
  std::ostringstream os;
  os << keys_compared << " keys compared: ";
  if (ok()) {
    os << "converged";
  } else {
    os << violations.size() << " violation(s)";
    for (const ConvergenceViolation& v : violations) {
      os << "\n  " << v.ToString();
    }
  }
  return os.str();
}

ConvergenceReport CheckConvergence(const std::vector<ReplicaState>& replicas,
                                   const History* history) {
  ConvergenceReport report;
  if (replicas.empty()) return report;

  // Union of materialized keys; absent records are the logical default.
  std::set<Key> keys;
  for (const ReplicaState& r : replicas) {
    for (const auto& [key, view] : r.snapshot) keys.insert(key);
  }
  report.keys_compared = keys.size();

  const ReplicaState& reference = replicas.front();
  for (Key key : keys) {
    RecordView ref = ViewOf(reference, key);
    for (size_t i = 1; i < replicas.size(); ++i) {
      RecordView other = ViewOf(replicas[i], key);
      if (other == ref) continue;
      ConvergenceViolation v;
      v.kind = ConvergenceViolation::Kind::kDivergence;
      v.key = key;
      std::ostringstream os;
      os << "key " << key << ": replica " << reference.id << " has v"
         << ref.version << "=" << ref.value << ", replica " << replicas[i].id
         << " has v" << other.version << "=" << other.value;
      v.message = os.str();
      report.violations.push_back(std::move(v));
    }
  }

  if (history == nullptr) return report;

  std::map<Key, ExpectedKey> expected;
  for (const SeededKey& seed : history->seeds()) {
    ExpectedKey& e = expected[seed.key];
    e.seed_version = seed.version;
    e.seed_value = seed.value;
  }
  for (const RecordedTxn& txn : history->txns()) {
    if (txn.in_doubt) {
      for (const RecordedWrite& w : txn.writes) expected[w.key].in_doubt = true;
    }
    if (txn.outcome != TxnOutcome::kCommitted) continue;
    for (const RecordedWrite& w : txn.writes) {
      ExpectedKey& e = expected[w.key];
      if (w.kind == OptionKind::kPhysical) {
        if (!e.has_physical || w.installed() > e.last_version) {
          e.last_version = w.installed();
          e.last_value = w.new_value;
        }
        e.has_physical = true;
        ++e.committed_physical;
      } else {
        e.delta_sum += w.delta;
        e.has_delta = true;
      }
    }
  }

  for (const auto& [key, e] : expected) {
    if (e.in_doubt || (e.has_physical && e.has_delta)) continue;
    RecordView actual = ViewOf(reference, key);
    if (e.has_physical) {
      // Committed physical writes form a linear chain in a correct run, so
      // the quiesced version is exactly seed + count and the value is the
      // highest installed write's payload. Forked chains fail the version
      // equation even after anti-entropy makes the replicas agree.
      Version want_version = e.seed_version + e.committed_physical;
      Value want_value = e.last_value;
      if (actual.version != want_version || actual.value != want_value) {
        ConvergenceViolation v;
        v.kind = ConvergenceViolation::Kind::kChainMismatch;
        v.key = key;
        std::ostringstream os;
        os << "key " << key << ": " << e.committed_physical
           << " committed write(s) over seed v" << e.seed_version
           << " must quiesce at v" << want_version << "=" << want_value
           << ", replicas hold v" << actual.version << "=" << actual.value;
        v.message = os.str();
        report.violations.push_back(std::move(v));
      }
    } else {
      // Counter (or untouched) key: seed plus the committed deltas.
      Value want = e.seed_value + e.delta_sum;
      if (actual.value != want || actual.version != e.seed_version) {
        ConvergenceViolation v;
        v.kind = ConvergenceViolation::Kind::kDeltaMismatch;
        v.key = key;
        std::ostringstream os;
        os << "key " << key << ": seed " << e.seed_value << " + committed "
           << "deltas " << e.delta_sum << " = " << want << ", replicas hold v"
           << actual.version << "=" << actual.value;
        v.message = os.str();
        report.violations.push_back(std::move(v));
      }
    }
  }
  return report;
}

}  // namespace planet
