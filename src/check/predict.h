// Predictive serializability analysis (IsoPredict-style).
//
// One observed history fixes far more than one schedule: the reads a
// weak-isolation transaction performed could have returned *older*
// committed versions had a concurrent writer's commit been submitted a
// little later. The predictor enumerates those feasible visibility
// reassignments, patches the checker's serialization graph accordingly,
// and keeps the ones that close a dependency cycle — each is a concrete
// prediction "delay writer W by D and transaction T's read of key k
// observes the predecessor version, producing an unserializable
// execution".
//
// Every prediction carries a replayable schedule perturbation: a set of
// delay directives (TxnId -> commit-submission delay) that the fuzzer
// applies via Client::SetScheduleDelays to the *same* seed. TxnIds are
// per-client sequence numbers, so they address the same logical
// transaction in the perturbed replay; the replayed run's checker verdict
// then confirms or refutes the prediction. Feasibility constraints
// honoured during enumeration:
//   * session order — a reader is never reordered against its own
//     client's writes (same client_node candidates are skipped);
//   * chain density — the predecessor version must actually exist
//     (seeded or committed), so the reassigned read is realizable;
//   * only weak-mode (read_committed / causal) unvalidated reads are
//     reassigned: serializable transactions admit no visibility slack,
//     so a fully serializable history yields zero predictions by
//     construction.
#ifndef PLANET_CHECK_PREDICT_H_
#define PLANET_CHECK_PREDICT_H_

#include <string>
#include <vector>

#include "check/history.h"
#include "check/serializability.h"

namespace planet {

/// One commit-submission delay applied during a predictive replay.
struct DelayDirective {
  TxnId txn = kInvalidTxnId;
  Duration delay = 0;

  std::string ToString() const;
};

/// One predicted unserializable reordering of the observed history.
struct PredictedViolation {
  TxnId reader = kInvalidTxnId;  ///< weak-mode txn whose read is reassigned
  TxnId writer = kInvalidTxnId;  ///< committed writer to delay
  Key key = 0;
  Version observed = 0;   ///< version the reader actually saw
  Version predicted = 0;  ///< predecessor version it would see instead
  /// |read completion - writer decision|: smaller gaps are more likely to
  /// survive the replay's timing perturbation, so predictions are emitted
  /// in increasing gap order.
  Duration gap = 0;
  /// Delays to apply on replay (today always exactly one: the writer).
  std::vector<DelayDirective> directives;
  /// The dependency cycle the reassignment closes, in the patched graph.
  std::vector<WitnessEdge> cycle;

  std::string ToString() const;
};

/// Safety slack added to every delay so the perturbed replay's shifted
/// timings still land the writer's submission after the read.
inline constexpr Duration kPredictionDelayMargin = Millis(25);

struct PredictOptions {
  /// Upper bound on emitted predictions (closest-gap first).
  size_t max_predictions = 8;
};

/// Enumerates predicted unserializable reorderings of `history`.
/// Deterministic: same history + options -> same predictions in the same
/// order. Never mutates the history.
std::vector<PredictedViolation> PredictReorderings(
    const History& history, const PredictOptions& options = {});

}  // namespace planet

#endif  // PLANET_CHECK_PREDICT_H_
