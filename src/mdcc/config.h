// Configuration of the MDCC-style geo-replicated commit stack.
#ifndef PLANET_MDCC_CONFIG_H_
#define PLANET_MDCC_CONFIG_H_

#include "txn/config.h"

namespace planet {

/// How long the per-record master queues a classic proposal behind a
/// conflicting pending option before rejecting it. The queue is what makes
/// the classic path a serialization point under contention (as in MDCC);
/// the timeout breaks cross-key waiting chains (distributed deadlock).
inline constexpr Duration kClassicQueueTimeout = Millis(500);

/// Protocol parameters. One replica per data center; records are fully
/// replicated; each record has one master replica used by the classic path.
/// The timeouts and master placement come from StackConfig.
struct MdccConfig : StackConfig {
  /// Whether the coordinator falls back to the classic (master-serialized)
  /// path once the fast quorum becomes unreachable for an option.
  bool enable_classic = true;

  /// Skip the fast path entirely and propose through the per-record master
  /// (measures the classic path in isolation; experiment F1).
  bool force_classic = false;

  /// Master failover: if a classic proposal gets no reply within this
  /// timeout the coordinator bumps the key group's mastership epoch and
  /// re-proposes to the next epoch's master. 0 disables failover (classic
  /// proposals to a dead master are decided by txn_timeout instead).
  /// Mastership is a serialization role, not a safety role: any epoch's
  /// master still needs a classic quorum with full conflict checks, so a
  /// stale master that has not yet heard of a newer epoch cannot violate
  /// all-or-nothing visibility.
  Duration master_failover_timeout = 0;

  /// CPU time a replica spends per protocol message (accept / read /
  /// visibility / master round). 0 models infinite capacity; > 0 makes
  /// replicas saturable, reproducing load-spike latency unpredictability
  /// (experiment F9).
  Duration replica_service_cost = 0;

  /// Chaos mutation for oracle self-tests (--chaos-drop-learn): every
  /// replica except DC 0 silently drops its first N committed physical
  /// learns — the payload is discarded, not deferred, as if the learn were
  /// lost on a buggy code path. With N > 0 the convergence and
  /// serialization-graph oracles MUST flag the run; 0 (the default)
  /// disables the mutation entirely. Never enable outside tests.
  int chaos_drop_learn = 0;

  /// Fast quorum size: N - floor(N/4) (Fast Paxos), e.g. 4 of 5.
  int FastQuorum() const { return num_dcs - num_dcs / 4; }

  /// Classic quorum size: majority.
  int ClassicQuorum() const { return num_dcs / 2 + 1; }

  /// DC mastering the given key at a mastership epoch: epochs rotate the
  /// role deterministically through the DCs, so every party computes the
  /// same master for (key, epoch) with no coordination.
  DcId MasterAt(Key key, int epoch) const {
    return static_cast<DcId>((MasterOf(key) + epoch) % num_dcs);
  }
};

}  // namespace planet

#endif  // PLANET_MDCC_CONFIG_H_
