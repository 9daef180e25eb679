#include "harness/cluster.h"

#include "common/logging.h"

namespace planet {

template <typename NodeT, typename ClientT, typename OptionsT>
template <typename ConfigT>
Deployment<NodeT, ClientT, OptionsT>::Deployment(const OptionsT& options,
                                                 const ConfigT& config)
    : options_(options) {
  PLANET_CHECK_MSG(options_.wan.num_dcs() == config.num_dcs,
                   "WAN preset has " << options_.wan.num_dcs()
                                     << " DCs, config wants "
                                     << config.num_dcs);
  Rng root(options_.seed);
  net_ = std::make_unique<Network>(&sim_, root.Fork(1));
  ApplyWan(net_.get(), options_.wan);

  int n = config.num_dcs;
  NodeId next_id = 0;
  for (DcId dc = 0; dc < n; ++dc) {
    nodes_.push_back(std::make_unique<NodeT>(
        &sim_, net_.get(), next_id++, dc, root.Fork(100 + dc), config));
  }
  std::vector<NodeT*> peers;
  for (auto& node : nodes_) peers.push_back(node.get());
  for (auto& node : nodes_) node->SetPeers(peers);

  int total_clients = options_.clients_per_dc * n;
  for (int i = 0; i < total_clients; ++i) {
    DcId dc = static_cast<DcId>(i % n);
    clients_.push_back(std::make_unique<ClientT>(
        &sim_, net_.get(), next_id++, dc, root.Fork(1000 + i), config,
        peers));
    clients_.back()->SetIsolation(options_.isolation);
  }
}

template <typename NodeT, typename ClientT, typename OptionsT>
void Deployment<NodeT, ClientT, OptionsT>::StartFaults() {
  if (options_.faults.empty()) return;
  Status valid = options_.faults.Validate(num_dcs());
  PLANET_CHECK_MSG(valid.ok(), valid.ToString());
  FaultActions actions;
  actions.crash_replica = [this](DcId dc) { CrashReplica(dc); };
  actions.restart_replica = [this](DcId dc) { RestartReplica(dc); };
  actions.partition_dc = [this](DcId dc) { PartitionDc(dc); };
  actions.heal_dc = [this](DcId dc) { HealDc(dc); };
  actions.spike_dc = [this](DcId dc, Duration extra, double sigma) {
    SpikeDc(dc, extra, sigma);
  };
  actions.clear_spike_dc = [this](DcId dc) { ClearSpikeDc(dc); };
  fault_injector_ = std::make_unique<FaultInjector>(&sim_, options_.faults,
                                                    std::move(actions));
}

template <typename NodeT, typename ClientT, typename OptionsT>
void Deployment<NodeT, ClientT, OptionsT>::SeedKey(Key key, Value value) {
  PLANET_DCHECK_OWNED(thread_checker_);
  for (auto& node : nodes_) node->store().SeedValue(key, value);
  if (recorder_ != nullptr) {
    recorder_->RecordSeed(key, nodes_.front()->store().Read(key).version,
                          value);
  }
}

template <typename NodeT, typename ClientT, typename OptionsT>
void Deployment<NodeT, ClientT, OptionsT>::SetHistoryRecorder(
    HistoryRecorder* recorder) {
  PLANET_DCHECK_OWNED(thread_checker_);
  recorder_ = recorder;
  for (auto& c : clients_) c->SetHistoryRecorder(recorder);
}

template <typename NodeT, typename ClientT, typename OptionsT>
void Deployment<NodeT, ClientT, OptionsT>::SetScheduleDelays(
    const ScheduleDelays* delays) {
  PLANET_DCHECK_OWNED(thread_checker_);
  for (auto& c : clients_) c->SetScheduleDelays(delays);
}

template <typename NodeT, typename ClientT, typename OptionsT>
std::vector<ReplicaState>
Deployment<NodeT, ClientT, OptionsT>::LiveReplicaStates() const {
  PLANET_DCHECK_OWNED(thread_checker_);
  std::vector<ReplicaState> states;
  for (const auto& node : nodes_) {
    if (node->crashed()) continue;
    ReplicaState state;
    state.id = node->dc();
    state.snapshot = node->store().Snapshot();
    states.push_back(std::move(state));
  }
  return states;
}

template <typename NodeT, typename ClientT, typename OptionsT>
void Deployment<NodeT, ClientT, OptionsT>::PartitionDc(DcId dc) {
  PLANET_DCHECK_OWNED(thread_checker_);
  for (DcId other = 0; other < num_dcs(); ++other) {
    if (other != dc) net_->SetPartitioned(dc, other, true);
  }
}

template <typename NodeT, typename ClientT, typename OptionsT>
void Deployment<NodeT, ClientT, OptionsT>::HealDc(DcId dc) {
  PLANET_DCHECK_OWNED(thread_checker_);
  for (DcId other = 0; other < num_dcs(); ++other) {
    if (other != dc) net_->SetPartitioned(dc, other, false);
  }
}

template <typename NodeT, typename ClientT, typename OptionsT>
void Deployment<NodeT, ClientT, OptionsT>::CrashReplica(DcId dc) {
  PLANET_DCHECK_OWNED(thread_checker_);
  nodes_[static_cast<size_t>(dc)]->Crash();
}

template <typename NodeT, typename ClientT, typename OptionsT>
void Deployment<NodeT, ClientT, OptionsT>::RestartReplica(DcId dc) {
  PLANET_DCHECK_OWNED(thread_checker_);
  nodes_[static_cast<size_t>(dc)]->Restart();
}

template <typename NodeT, typename ClientT, typename OptionsT>
void Deployment<NodeT, ClientT, OptionsT>::SpikeDc(DcId dc, Duration extra,
                                                   double sigma) {
  PLANET_DCHECK_OWNED(thread_checker_);
  DcDegradation spike;
  spike.extra_median = extra;
  spike.extra_sigma = sigma;
  net_->SetDegradation(dc, spike);
}

template <typename NodeT, typename ClientT, typename OptionsT>
void Deployment<NodeT, ClientT, OptionsT>::ClearSpikeDc(DcId dc) {
  PLANET_DCHECK_OWNED(thread_checker_);
  net_->ClearDegradation(dc);
}

template <typename NodeT, typename ClientT, typename OptionsT>
bool Deployment<NodeT, ClientT, OptionsT>::ReplicasConverged() const {
  PLANET_DCHECK_OWNED(thread_checker_);
  auto reference = nodes_.front()->store().Snapshot();
  for (size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i]->store().Snapshot() != reference) return false;
  }
  return true;
}

template <typename NodeT, typename ClientT, typename OptionsT>
void Deployment<NodeT, ClientT, OptionsT>::DetachFromThread() {
  thread_checker_.DetachFromThread();
  sim_.DetachFromThread();
  net_->DetachFromThread();
  for (auto& node : nodes_) node->store().DetachFromThread();
}

template class Deployment<Replica, Client, ClusterOptions>;
template class Deployment<TpcNode, TpcClient, TpcClusterOptions>;

Cluster::Cluster(const ClusterOptions& options)
    : Deployment(options, options.mdcc) {
  if (options_.recovery_period > 0) {
    for (auto& r : nodes_) r->EnableRecovery(options_.recovery_period);
  }
  ctx_ = std::make_unique<PlanetContext>(options_.mdcc, options_.planet);
  for (auto& c : clients_) {
    planet_clients_.push_back(
        std::make_unique<PlanetClient>(c.get(), ctx_.get()));
  }
  StartFaults();
}

void Cluster::SeedBounds(Key key, ValueBounds bounds) {
  PLANET_DCHECK_OWNED(thread_checker_);
  for (auto& r : nodes_) r->store().SetBounds(key, bounds);
}

void Cluster::HealDc(DcId dc) {
  Deployment::HealDc(dc);
  // Anti-entropy is wired in, not left to the caller: sync now, and once
  // more a recovery period later for commits still in flight at heal time.
  replica(dc)->RequestSyncAll();
  ScheduleFollowupSync(dc);
}

void Cluster::RestartReplica(DcId dc) {
  Deployment::RestartReplica(dc);
  ScheduleFollowupSync(dc);
}

void Cluster::ScheduleFollowupSync(DcId dc) {
  Replica* r = replica(dc);
  Duration followup = options_.recovery_period > 0 ? options_.recovery_period
                                                   : Seconds(10);
  sim_.Schedule(followup, [r] {
    if (!r->crashed()) r->RequestSyncAll();
  });
}

size_t Cluster::TotalPending() const {
  size_t total = 0;
  for (const auto& r : nodes_) total += r->store().TotalPending();
  return total;
}

bool Cluster::ReplicasConverged() const {
  if (TotalPending() != 0) return false;
  for (const auto& r : nodes_) {
    if (r->DeferredCount() != 0) return false;
  }
  return Deployment::ReplicasConverged();
}

TpcCluster::TpcCluster(const TpcClusterOptions& options)
    : Deployment(options, options.tpc) {
  StartFaults();
}

}  // namespace planet
