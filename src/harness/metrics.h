// Driver-level metric aggregation shared by every experiment binary.
#ifndef PLANET_HARNESS_METRICS_H_
#define PLANET_HARNESS_METRICS_H_

#include <functional>

#include "common/histogram.h"
#include "workload/workload.h"

namespace planet {

/// Aggregates TxnResults from any stack's load generators.
// Sharded runs keep one RunMetrics per shard (worker-private) and
// merge them in shard order after the workers join; never shared live.
struct RunMetrics {  // planet-lint: allow(shard-unchecked)
  uint64_t committed = 0;
  uint64_t aborted = 0;      ///< conflict aborts
  uint64_t unavailable = 0;  ///< timeouts / partitions
  uint64_t rejected = 0;     ///< admission control
  uint64_t speculative_notifications = 0;
  /// Aborts delivered by the predictive early-abort path (F11); a subset of
  /// `aborted`. Zero in every pre-feature run.
  uint64_t early_aborts = 0;

  Histogram latency_committed;  ///< begin -> definitive commit
  Histogram latency_all;        ///< begin -> definitive outcome (any)
  Histogram user_latency;       ///< begin -> first user notification
  /// begin -> abort, split by how the abort arrived: every conflict abort
  /// lands in abort_latency, early-killed ones also in early_abort_latency
  /// (so "timeout-driven vs early" is abort_latency minus the early part).
  Histogram abort_latency;
  Histogram early_abort_latency;

  /// Wall-clock cost of producing this run, stamped by the bench drivers
  /// (bench/bench_util.h) AFTER the simulation drains. 0 means "not
  /// measured" and suppresses the JSON fields — deterministic tools like
  /// planetlab must never emit wall time or byte-identity would break.
  /// Simulated-world code cannot read a wall clock (planet_analyze), so these
  /// are plain data here and only ever written from bench/.
  double wall_seconds = 0.0;
  uint64_t events_processed = 0;  ///< simulator events behind this run

  void Record(const TxnResult& result) {
    if (result.status.ok()) {
      ++committed;
      latency_committed.Record(result.latency);
    } else if (result.status.IsRejected()) {
      ++rejected;
    } else if (result.status.IsUnavailable()) {
      ++unavailable;
      // Timeout-driven terminations count as aborts for latency purposes:
      // they are the slow path early abort competes against.
      abort_latency.Record(result.latency);
    } else {
      ++aborted;
      abort_latency.Record(result.latency);
      if (result.early_abort) {
        ++early_aborts;
        early_abort_latency.Record(result.latency);
      }
    }
    latency_all.Record(result.latency);
    user_latency.Record(result.user_latency);
    if (result.speculative) ++speculative_notifications;
  }

  /// Folds another run's metrics into this one (fuzzer shard aggregation).
  void Merge(const RunMetrics& other) {
    committed += other.committed;
    aborted += other.aborted;
    unavailable += other.unavailable;
    rejected += other.rejected;
    speculative_notifications += other.speculative_notifications;
    early_aborts += other.early_aborts;
    latency_committed.Merge(other.latency_committed);
    latency_all.Merge(other.latency_all);
    user_latency.Merge(other.user_latency);
    abort_latency.Merge(other.abort_latency);
    early_abort_latency.Merge(other.early_abort_latency);
    wall_seconds += other.wall_seconds;
    events_processed += other.events_processed;
  }

  /// A sink suitable for LoadGenerator::SetResultSink.
  std::function<void(const TxnResult&)> Sink() {
    return [this](const TxnResult& r) { Record(r); };
  }

  uint64_t finished() const {
    return committed + aborted + unavailable + rejected;
  }
  uint64_t attempted() const { return committed + aborted + unavailable; }
  double CommitRate() const {
    return attempted() == 0 ? 0.0 : double(committed) / double(attempted());
  }
  /// Committed transactions per simulated second.
  double Goodput(Duration run_time) const {
    return run_time == 0 ? 0.0 : double(committed) * 1e6 / double(run_time);
  }
};

}  // namespace planet

#endif  // PLANET_HARNESS_METRICS_H_
