// Replica-convergence oracle: after quiesce, all live replicas must hold
// byte-identical committed state, and that state must be explained by the
// recorded history.
//
// Generalizes the one-off assertions of the failover tests into a reusable
// check with witnesses:
//   * replica divergence — two live replicas disagree on a key's committed
//     (version, value). Missing records compare as the logical default
//     (version 0, value 0), so replicas that materialized different key
//     sets are still comparable.
//   * chain mismatch — a key's final version/value does not match the last
//     committed physical write of its recorded version chain.
//   * delta conservation — a counter key's final value is not the seed plus
//     the sum of committed deltas (a lost or double-applied delta).
// The history cross-checks are skipped per key when the history cannot
// predict the final state (keys mixing physical and commutative writes, or
// touched by in-doubt 2PC transactions).
#ifndef PLANET_CHECK_CONVERGENCE_H_
#define PLANET_CHECK_CONVERGENCE_H_

#include <map>
#include <string>
#include <vector>

#include "check/history.h"
#include "storage/store.h"

namespace planet {

/// Committed state of one live replica, as fed to the oracle.
struct ReplicaState {
  int id = 0;  ///< DC / replica index (for witnesses)
  std::map<Key, RecordView> snapshot;
};

/// One convergence violation.
struct ConvergenceViolation {
  enum class Kind { kDivergence, kChainMismatch, kDeltaMismatch };
  Kind kind = Kind::kDivergence;
  Key key = 0;
  std::string message;

  std::string ToString() const;
};

struct ConvergenceReport {
  std::vector<ConvergenceViolation> violations;
  size_t keys_compared = 0;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

/// Checks pairwise equality of the live replicas and, when a history is
/// given, the final state against it. `replicas` must be non-empty
/// (exclude crashed replicas before calling).
ConvergenceReport CheckConvergence(const std::vector<ReplicaState>& replicas,
                                   const History* history = nullptr);

}  // namespace planet

#endif  // PLANET_CHECK_CONVERGENCE_H_
