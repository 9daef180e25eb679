// TxnRunner factories: bind a workload shape to one of the three stacks
// (PLANET, raw MDCC, 2PC baseline). Each produced runner issues one
// read-modify-write transaction per invocation: it reads all chosen keys,
// increments the write keys (physically or commutatively), commits, and
// reports a TxnResult when the definitive outcome is known.
#ifndef PLANET_WORKLOAD_RUNNERS_H_
#define PLANET_WORKLOAD_RUNNERS_H_

#include "baseline/tpc.h"
#include "mdcc/client.h"
#include "planet/client.h"
#include "workload/workload.h"

namespace planet {

/// Share of its expected votes a transaction has seen when the mid-flight
/// likelihood sample of PlanetRunnerPolicy::midflight_tracker is taken.
inline constexpr double kMidflightVotesFraction = 0.4;

/// What the driven application does at the PLANET timeout callback, plus
/// optional experiment instrumentation.
struct PlanetRunnerPolicy {
  /// 0 disables the timeout callback entirely.
  Duration speculation_deadline = 0;
  /// Speculate at the deadline if likelihood >= threshold (< 0 disables).
  double speculate_threshold = -1.0;
  /// Below the threshold, give up (notify the user "pending") instead of
  /// silently waiting.
  bool give_up_below = false;

  /// If set, the runner samples the likelihood estimate once the transaction
  /// has seen kMidflightVotesFraction of its expected votes and records
  /// (sample, committed) into this tracker at the definitive outcome
  /// (experiment F3).
  CalibrationTracker* midflight_tracker = nullptr;

  /// If set, the runner collects every TxnProgress snapshot of each
  /// transaction and hands the full trace plus the result to this hook at
  /// the definitive outcome (experiments F4 / T2).
  std::function<void(const std::vector<TxnProgress>&, const TxnResult&)>
      on_trace;
};

/// Runner over the PLANET programming model.
TxnRunner MakePlanetRunner(PlanetClient* client, const WorkloadConfig& config,
                           Rng rng, PlanetRunnerPolicy policy = {});

/// Runner over the raw MDCC coordinator (no prediction / callbacks).
TxnRunner MakeMdccRunner(Client* client, const WorkloadConfig& config,
                         Rng rng);

/// Runner over the 2PC baseline (physical writes only).
TxnRunner MakeTpcRunner(TpcClient* client, const WorkloadConfig& config,
                        Rng rng);

}  // namespace planet

#endif  // PLANET_WORKLOAD_RUNNERS_H_
