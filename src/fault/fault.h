// Deterministic fault injection: declarative schedules of timed fault
// events, driven by an injector inside the event loop.
//
// A FaultSchedule is data (composable in code, parseable from planetlab
// flags); the FaultInjector turns it into simulator events that call back
// into harness-provided actions (crash/restart a replica, partition/heal a
// DC, inject/clear a latency spike). Because the schedule is applied at
// fixed simulated times by the deterministic event loop, a faulted run is
// exactly as reproducible as a fault-free one.
#ifndef PLANET_FAULT_FAULT_H_
#define PLANET_FAULT_FAULT_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace planet {

/// What happens at one point of the schedule.
enum class FaultKind {
  kCrashReplica,    ///< power off a DC's replica (volatile state lost)
  kRestartReplica,  ///< power it back on (WAL replay + anti-entropy)
  kPartitionDc,     ///< cut a DC off from every other DC
  kHealDc,          ///< reconnect it (anti-entropy runs)
  kSpikeDc,         ///< add latency to every link touching a DC
  kClearSpikeDc,    ///< remove the spike
};

const char* FaultKindName(FaultKind kind);

/// One timed event of a schedule.
struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kCrashReplica;
  DcId dc = 0;
  Duration spike_extra = 0;   ///< kSpikeDc: added one-way median latency
  double spike_sigma = 0.2;   ///< kSpikeDc: jitter of the added latency

  std::string ToString() const;
};

/// A declarative, deterministic list of fault events. Build it with the
/// fluent methods, merge schedules together, or parse one from a flag
/// string (see Parse).
class FaultSchedule {
 public:
  FaultSchedule() = default;

  FaultSchedule& CrashReplica(SimTime at, DcId dc);
  FaultSchedule& RestartReplica(SimTime at, DcId dc);
  FaultSchedule& PartitionDc(SimTime at, DcId dc);
  FaultSchedule& HealDc(SimTime at, DcId dc);
  FaultSchedule& SpikeDc(SimTime at, DcId dc, Duration extra,
                         double sigma = 0.2);
  FaultSchedule& ClearSpikeDc(SimTime at, DcId dc);
  FaultSchedule& Add(const FaultEvent& event);
  FaultSchedule& Merge(const FaultSchedule& other);

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Events ordered by (time, insertion order) — the order the injector
  /// applies them in.
  std::vector<FaultEvent> Sorted() const;

  /// Sanity checks against a cluster size: DCs in range, restarts paired
  /// with a preceding crash (and vice versa), every partition healed later
  /// (a crash may stay open), spikes with a positive extra latency.
  [[nodiscard]] Status Validate(int num_dcs) const;

  /// Parses a flag-style schedule: comma- or semicolon-separated events
  ///   kind@SECONDS:DC[:EXTRA_MS]
  /// with kind in {crash, restart, partition, heal, spike, clearspike}.
  /// Example: "crash@20:1,restart@50:1,spike@30:2:250,clearspike@60:2".
  /// SECONDS must be finite and DC and EXTRA_MS must fit their types once
  /// converted. Returns false and fills *error on malformed input.
  static bool Parse(const std::string& spec, FaultSchedule* out,
                    std::string* error);

  std::string ToString() const;

 private:
  std::vector<FaultEvent> events_;
};

/// The harness-side effectors the injector drives. The fault library stays
/// below the harness in the dependency order; Cluster/TpcCluster fill this
/// in with their own crash/partition/spike implementations.
struct FaultActions {
  std::function<void(DcId)> crash_replica;
  std::function<void(DcId)> restart_replica;
  std::function<void(DcId)> partition_dc;
  std::function<void(DcId)> heal_dc;
  std::function<void(DcId, Duration, double)> spike_dc;
  std::function<void(DcId)> clear_spike_dc;
};

/// Schedules every event of a FaultSchedule on the simulator at
/// construction; events fire via the actions as simulated time reaches
/// them. Missing actions make the corresponding events no-ops (e.g. a 2PC
/// cluster that does not model spikes).
class FaultInjector {
 public:
  FaultInjector(Simulator* sim, FaultSchedule schedule, FaultActions actions);

  const FaultSchedule& schedule() const { return schedule_; }
  uint64_t injected() const { return injected_; }

 private:
  void Apply(const FaultEvent& event);

  Simulator* sim_;
  FaultSchedule schedule_;
  FaultActions actions_;
  uint64_t injected_ = 0;
};

}  // namespace planet

#endif  // PLANET_FAULT_FAULT_H_
