// Cluster builders: assemble a full simulated deployment (simulator,
// WAN, replicas, coordinators, PLANET layer) from one options struct.
#ifndef PLANET_HARNESS_CLUSTER_H_
#define PLANET_HARNESS_CLUSTER_H_

#include <memory>
#include <vector>

#include "common/thread_checker.h"

#include "baseline/tpc.h"
#include "check/convergence.h"
#include "check/history.h"
#include "fault/fault.h"
#include "harness/wan.h"
#include "mdcc/client.h"
#include "mdcc/replica.h"
#include "planet/client.h"
#include "sim/simulator.h"

namespace planet {

/// Options every deployment has, whatever its commit protocol.
struct DeploymentOptions {
  uint64_t seed = 42;
  WanPreset wan = FiveDcWan();
  int clients_per_dc = 1;
  /// Isolation mode applied to every client. kSerializable (the default)
  /// leaves the stack byte-identical to the pre-mode behaviour.
  IsolationLevel isolation = IsolationLevel::kSerializable;
  /// Deterministic fault schedule applied by a FaultInjector at build time
  /// (crashes, partitions, spikes). Empty = no faults.
  FaultSchedule faults;
};

/// Options of an MDCC/PLANET cluster.
struct ClusterOptions : DeploymentOptions {
  MdccConfig mdcc;
  PlanetConfig planet;
  /// Pending-option resolution period (heals partitioned replicas);
  /// 0 disables the recovery protocol.
  Duration recovery_period = Seconds(10);
};

/// Options of a 2PC baseline cluster.
struct TpcClusterOptions : DeploymentOptions {
  TpcConfig tpc;
};

/// The protocol-independent part of a deployment: one simulator, the WAN,
/// one NodeT per DC, and clients_per_dc ClientT coordinators per DC laid
/// out round-robin (client index i lives in DC i % num_dcs), plus the fault
/// effectors. Cluster and TpcCluster derive from it and add what their
/// protocol needs.
///
/// Single-owner, not thread safe: one sweep point = one deployment = one
/// thread. Enforced in PLANET_THREAD_CHECKS builds (the underlying
/// Simulator and Stores carry the same assertion).
template <typename NodeT, typename ClientT, typename OptionsT>
class Deployment {
 public:
  using Options = OptionsT;

  // Fault actions and follow-up events hold `this`.
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  virtual ~Deployment() = default;

  Simulator& sim() { return sim_; }
  Network& net() { return *net_; }
  const OptionsT& options() const { return options_; }

  int num_dcs() const { return static_cast<int>(nodes_.size()); }
  int num_clients() const { return static_cast<int>(clients_.size()); }
  NodeT* node(DcId dc) { return nodes_[static_cast<size_t>(dc)].get(); }
  ClientT* client(int i) { return clients_[static_cast<size_t>(i)].get(); }

  /// Seeds a committed value on every node (identical, pre-traffic).
  /// Logged to an attached history recorder (seed first or attach first —
  /// attach-then-seed records the seed, seed-then-attach does not).
  void SeedKey(Key key, Value value);

  /// Attaches `recorder` to every coordinator client (PLANET clients share
  /// those coordinators). Null detaches. Recording changes no scheduling
  /// and draws no randomness, so runs with and without a recorder are
  /// bit-identical.
  void SetHistoryRecorder(HistoryRecorder* recorder);

  /// Attaches predictive-replay commit delays to every coordinator client
  /// (see Coordinator::SetScheduleDelays). The map must outlive the run.
  void SetScheduleDelays(const ScheduleDelays* delays);

  /// Committed snapshots of every non-crashed node, as the convergence
  /// oracle wants them (call after quiesce).
  std::vector<ReplicaState> LiveReplicaStates() const;

  /// Cuts one DC off from every other DC (its clients keep local access)
  /// and reconnects it.
  void PartitionDc(DcId dc);
  virtual void HealDc(DcId dc);

  /// Powers off / restores one DC's node (see Replica/TpcNode Crash and
  /// Restart).
  void CrashReplica(DcId dc);
  virtual void RestartReplica(DcId dc);

  /// Adds / clears a latency spike on every link touching a DC.
  void SpikeDc(DcId dc, Duration extra, double sigma = 0.2);
  void ClearSpikeDc(DcId dc);

  /// Runs the simulation until the event queue is empty.
  void Drain() {
    PLANET_DCHECK_OWNED(thread_checker_);
    sim_.Run();
  }

  /// True iff every node holds the identical committed state.
  virtual bool ReplicasConverged() const;

  /// Fresh deterministic RNG stream for workload use.
  Rng ForkRng(uint64_t tag) const { return Rng(options_.seed).Fork(tag); }

  /// Releases single-owner thread affinity (ownership transfer).
  void DetachFromThread();

 protected:
  /// Builds the network, the nodes and the clients; `config` is the
  /// protocol config (MdccConfig, TpcConfig) both node and client take.
  template <typename ConfigT>
  Deployment(const OptionsT& options, const ConfigT& config);

  /// Starts the fault schedule. Derived constructors call it last, so the
  /// injector's events follow everything the build scheduled.
  void StartFaults();

  ThreadChecker thread_checker_;
  OptionsT options_;
  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<NodeT>> nodes_;
  std::vector<std::unique_ptr<ClientT>> clients_;

 private:
  std::unique_ptr<FaultInjector> fault_injector_;
  HistoryRecorder* recorder_ = nullptr;
};

/// A fully wired MDCC + PLANET deployment: the MDCC replicas run the
/// recovery protocol, heals and restarts trigger anti-entropy, and every
/// coordinator has a PlanetClient over one shared PlanetContext.
class Cluster final : public Deployment<Replica, Client, ClusterOptions> {
 public:
  explicit Cluster(const ClusterOptions& options);

  PlanetContext& context() { return *ctx_; }
  /// The MDCC name of node(dc).
  Replica* replica(DcId dc) { return node(dc); }
  PlanetClient* planet_client(int i) {
    return planet_clients_[static_cast<size_t>(i)].get();
  }

  void SeedBounds(Key key, ValueBounds bounds);

  /// Reconnects the DC. Anti-entropy runs automatically: once immediately,
  /// and once more after the recovery period to catch commits that were
  /// still in flight when the partition healed.
  void HealDc(DcId dc) override;

  /// Restart runs WAL replay and an immediate sync; one more sync follows
  /// a recovery period later for commits that race with the first one.
  void RestartReplica(DcId dc) override;

  /// Also requires that no pending or deferred options remain (the
  /// atomicity/convergence audit).
  bool ReplicasConverged() const override;
  size_t TotalPending() const;

 private:
  /// Syncs `dc` again one recovery period from now, if it is up by then.
  void ScheduleFollowupSync(DcId dc);

  std::unique_ptr<PlanetContext> ctx_;
  std::vector<std::unique_ptr<PlanetClient>> planet_clients_;
};

/// A fully wired 2PC deployment (same WAN, same layout). 2PC has no
/// anti-entropy: a node that missed replication stays behind.
class TpcCluster final
    : public Deployment<TpcNode, TpcClient, TpcClusterOptions> {
 public:
  explicit TpcCluster(const TpcClusterOptions& options);
};

}  // namespace planet

#endif  // PLANET_HARNESS_CLUSTER_H_
