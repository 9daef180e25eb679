// End-to-end benchmark of the PLANET reproduction: one workload per process.
//
//   bench_e2e --workload NAME [--seed S] [--seconds T] [--trace PATH]
//             [--smoke] [--json PATH]
//
// A run builds the workload's deployment through the public harness and
// workload API and drains it, over and over, for --seconds of wall time.
// Every repetition ("rep") is the same seeded run on a fresh cluster, so
// all simulated outputs must be bit-identical across reps, and the replicas
// must have converged after every drain. Throughput comes from the fastest
// time each window of simulated time took in any rep (see FastestDrain);
// set-up time is a median. One more rep then records the transaction
// history and runs the serializability and convergence oracles over it.
// Any failed check exits 1.
//
// --trace PATH adds spans around each call into a layer during the checked
// rep, times each layer's hot public functions on inputs shaped like the
// workload ("replays"), attributes the drain's wall time to the layers as
// count x replay cost, and writes the spans as Chrome trace JSON to PATH.
//
// Output: one "<workload> <metric> <value> <unit>" line per metric on
// stdout; perfbench/run.py turns them into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/convergence.h"
#include "check/serializability.h"
#include "harness/cluster.h"
#include "harness/metrics.h"
#include "harness/metrics_json.h"
#include "harness/sharded_cluster.h"
#include "timing.h"
#include "workload/runners.h"
#include "workload/workload.h"

namespace planet {
namespace perfbench {
namespace {

// ---------------------------------------------------------------- workloads

/// One benchmark workload: the deployment, the transaction shape and the
/// load. `tpc` selects the 2PC baseline on `shards` parallel shards; the
/// other workloads run the PLANET stack on one cluster.
struct Spec {
  std::string name;
  bool tpc = false;
  int shards = 1;
  ClusterOptions planet;
  TpcClusterOptions baseline;
  WorkloadConfig wl;
  LoadGenerator::Options load;
  Duration run_time = 0;
};

/// Simulated durations shrink by this factor under --smoke.
constexpr int kSmokeDivisor = 50;

// Why each workload exists (see perfbench/README.md for the full table):
//   lowcon       F1's regime: no contention, a 1M-key working set far
//                beyond the caches; bound by sim, network, mdcc and storage.
//   hot-early    zipf 0.9 over 1,000 keys with predictive early abort:
//                classic fallbacks, store rejects, AbortNotice, and the
//                likelihood estimator on every vote.
//   failover     open-loop arrivals through a master crash, a partition and
//                a latency spike: WAL replay, anti-entropy, mastership
//                epochs and resolve queries.
//   tpc-sharded  the 2PC baseline on two shards, read-heavy; never calls
//                the predictor, so it is the control for PLANET changes.
bool MakeSpec(const std::string& name, uint64_t seed, bool smoke, Spec* out) {
  Spec spec;
  spec.name = name;
  spec.planet.seed = seed;
  spec.planet.clients_per_dc = 4;  // 20 clients over 5 DCs
  spec.wl.reads_per_txn = 1;
  spec.wl.writes_per_txn = 2;
  if (name == "lowcon") {
    spec.wl.num_keys = 1000000;
    spec.run_time = Seconds(600);
  } else if (name == "hot-early") {
    spec.wl.num_keys = 1000;
    spec.wl.dist = KeyDist::kZipf;
    // At 0.99 the kill gauge is bistable: the seed picks a regime with
    // about 5x the kills of the other, which persists for the whole run.
    spec.wl.zipf_theta = 0.9;
    spec.planet.planet.kill_threshold = 0.95;
    spec.planet.planet.kill_hysteresis = 0.05;
    spec.planet.planet.kill_confirm = 2;
    spec.run_time = Seconds(360);
  } else if (name == "failover") {
    constexpr DcId kMaster = 1;
    spec.wl.num_keys = 20000;
    spec.load.rate_per_sec = 10;
    spec.planet.recovery_period = Seconds(2);
    spec.planet.mdcc.master_dc = kMaster;
    spec.planet.mdcc.master_failover_timeout = Millis(500);
    spec.planet.mdcc.txn_timeout = Seconds(5);
    spec.planet.mdcc.read_timeout = Seconds(1);
    spec.planet.planet.dead_after = Millis(500);
    spec.run_time = Seconds(600);
    // Fault times scale with the run so --smoke still crosses every fault.
    auto at = [&](int s) {
      return Seconds(s) / (smoke ? kSmokeDivisor : 1);
    };
    spec.planet.faults.CrashReplica(at(60), kMaster)
        .RestartReplica(at(120), kMaster)
        .PartitionDc(at(180), 3)
        .HealDc(at(240), 3)
        .SpikeDc(at(200), 4, Millis(250))
        .ClearSpikeDc(at(230), 4);
  } else if (name == "tpc-sharded") {
    spec.tpc = true;
    spec.shards = 2;
    spec.baseline.seed = seed;
    spec.baseline.clients_per_dc = 4;  // 20 clients per shard
    spec.wl.num_keys = 100000;
    spec.wl.reads_per_txn = 3;
    spec.wl.writes_per_txn = 1;
    spec.wl.num_shards = spec.shards;
    spec.run_time = Seconds(3600);
  } else {
    return false;
  }
  if (smoke) spec.run_time /= kSmokeDivisor;
  *out = std::move(spec);
  return true;
}

uint64_t DefaultSeed(const std::string& name) {
  if (name == "lowcon") return 11;
  if (name == "hot-early") return 23;
  if (name == "failover") return 101;
  return 7;
}

// ------------------------------------------------------------------ tracing

/// In-memory span recorder, written out once as Chrome trace-event JSON.
/// Each span records the span that was open when it began as its parent.
class Tracer {
 public:
  int Open(const std::string& name) {
    spans_.push_back(Span{name, SinceStart(), 0.0,
                          open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.dur_us = SinceStart() - span.start_us;
    open_.pop_back();
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"name\": " << json::Quote(s.name)
          << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
             "\"tid\": 1, \"ts\": "
          << json::Number(s.start_us) << ", \"dur\": "
          << json::Number(s.dur_us) << ", \"args\": {\"id\": " << i
          << ", \"parent\": " << s.parent << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    int parent = -1;
  };

  double SinceStart() const { return SecondsSince(start_) * 1e6; }

  Clock::time_point start_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// A span over the enclosing scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// -------------------------------------------------------------- deployment

/// Per-layer work counts read from public getters after a drain.
struct Counts {
  uint64_t events = 0;
  uint64_t pool_slots_peak = 0;
  uint64_t net_sends = 0;
  uint64_t net_dropped = 0;
  uint64_t net_retransmitted = 0;
  uint64_t net_abort_notices = 0;
  uint64_t store_accepts = 0;
  uint64_t store_rejects = 0;
  uint64_t wal_entries = 0;
  uint64_t fast_accepts = 0;
  uint64_t classic_proposals = 0;
  uint64_t classic_fallbacks = 0;
  uint64_t timed_out = 0;
  uint64_t failovers = 0;
  uint64_t stale_epoch_rejects = 0;
  uint64_t resolve_queries = 0;
  uint64_t recovered_options = 0;
  uint64_t sync_records_adopted = 0;
  uint64_t abort_notices_received = 0;
  uint64_t deferred_after_drain = 0;
  uint64_t mdcc_decided = 0;  ///< coordinator decisions (visibility rounds)
  uint64_t early_aborts = 0;
  uint64_t conflict_observations = 0;
  uint64_t latency_samples = 0;
  uint64_t tracked_keys = 0;
  uint64_t estimate_calls_bound = 0;
  uint64_t estimate_fresh_calls_bound = 0;
  double calibration_ece = 0.0;
  uint64_t tpc_committed = 0;
  uint64_t tpc_aborted = 0;
  uint64_t locked_keys_end = 0;
  uint64_t issued = 0;
  uint64_t finished = 0;
  double shard_imbalance = 0.0;
};

void AddStoreCounts(const Store& store, Counts* c) {
  c->store_accepts += store.accepts();
  c->store_rejects +=
      store.rejects_stale() + store.rejects_conflict() + store.rejects_bounds();
  c->wal_entries += store.wal().size();
}

void AddSimCounts(const Simulator& sim, const Network& net, Counts* c) {
  c->events += sim.events_processed();
  c->pool_slots_peak = std::max<uint64_t>(c->pool_slots_peak,
                                          sim.pool_stats().slots);
  c->net_sends += net.messages_sent();
  c->net_dropped += net.messages_dropped();
  c->net_retransmitted += net.messages_retransmitted();
  c->net_abort_notices += net.class_sent(MsgClass::kAbortNotice);
}

/// Probes per drain: the load period is cut into this many windows of
/// simulated time (see FastestDrain).
constexpr int kWindows = 400;

/// Wall time spent in each window of one drain, per shard: [shard][window].
using WindowTimes = std::vector<std::vector<double>>;

/// One fresh deployment of a workload: the cluster (or shards), its load
/// generators, and optionally history recorders for the oracles.
class Deployment {
 public:
  explicit Deployment(const Spec& spec)
      : spec_(spec), lanes_(size_t(spec.tpc ? spec.shards : 1)) {
    if (spec_.tpc) {
      sharded_ = std::make_unique<ShardedTpcCluster>(spec_.baseline,
                                                     spec_.shards);
    } else {
      cluster_ = std::make_unique<Cluster>(spec_.planet);
    }
  }

  /// Attaches one history recorder per cluster (before StartLoad).
  void AttachRecorders() {
    for (int s = 0; s < num_shards(); ++s) {
      recorders_.push_back(std::make_unique<HistoryRecorder>());
      if (spec_.tpc) {
        sharded_->shard(s)->SetHistoryRecorder(recorders_.back().get());
      } else {
        cluster_->SetHistoryRecorder(recorders_.back().get());
      }
    }
  }

  /// Builds one runner and load generator per client and starts them.
  void StartLoad() {
    if (!spec_.tpc) {
      Cluster& c = *cluster_;
      for (int i = 0; i < c.num_clients(); ++i) {
        AddGenerator(&c.sim(), c.ForkRng(7000 + i),
                     MakePlanetRunner(c.planet_client(i), spec_.wl,
                                      c.ForkRng(8000 + i)),
                     &metrics_, &lanes_[0]);
      }
      return;
    }
    for (int s = 0; s < num_shards(); ++s) {
      TpcCluster& c = *sharded_->shard(s);
      WorkloadConfig wl = spec_.wl;
      wl.shard = s;
      for (int i = 0; i < c.num_clients(); ++i) {
        AddGenerator(&c.sim(), c.ForkRng(7000 + i),
                     MakeTpcRunner(c.client(i), wl, c.ForkRng(8000 + i)),
                     &sharded_->context(s).metrics, &lanes_[size_t(s)]);
      }
    }
  }

  /// Puts a probe at each of the kWindows - 1 inner window boundaries of
  /// the load period, in every shard. A probe stamps the wall clock when the
  /// drain reaches it and touches no simulated state.
  void AddProbes() {
    for (int s = 0; s < num_shards(); ++s) {
      lanes_[size_t(s)].stamps.reserve(kWindows);
      Probe{&sim(s), &lanes_[size_t(s)], spec_.run_time, 0}.ScheduleNext();
    }
    probes_ = uint64_t(num_shards()) * (kWindows - 1);
  }

  /// Drains, then splits [start, end) at the probes' stamps.
  WindowTimes Drain() {
    Clock::time_point start = Clock::now();
    if (spec_.tpc) {
      sharded_->Drain();
    } else {
      cluster_->Drain();
    }
    Clock::time_point end = Clock::now();
    WindowTimes times;
    for (const Lane& lane : lanes_) {
      std::vector<double> w;
      Clock::time_point prev = start;
      for (Clock::time_point stamp : lane.stamps) {
        w.push_back(std::chrono::duration<double>(stamp - prev).count());
        prev = stamp;
      }
      w.push_back(std::chrono::duration<double>(end - prev).count());
      times.push_back(std::move(w));
    }
    return times;
  }

  RunMetrics Metrics() const {
    return spec_.tpc ? sharded_->MergedMetrics() : metrics_;
  }

  /// Latency of every committed transaction, sorted. The histograms in
  /// RunMetrics round to ~4.6% buckets; these are exact.
  std::vector<Duration> CommitLatencies() const {
    std::vector<Duration> all;
    for (const Lane& lane : lanes_) {
      all.insert(all.end(), lane.commit_latencies.begin(),
                 lane.commit_latencies.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

  bool Converged() const {
    return spec_.tpc ? sharded_->AllConverged()
                     : cluster_->ReplicasConverged();
  }

  Counts CountLayers() {
    Counts c;
    for (const auto& gen : generators_) {
      c.issued += gen->issued();
      c.finished += gen->finished();
    }
    uint64_t max_events = 0;
    if (spec_.tpc) {
      for (int s = 0; s < num_shards(); ++s) {
        TpcCluster& shard = *sharded_->shard(s);
        AddSimCounts(shard.sim(), shard.net(), &c);
        max_events = std::max(max_events, shard.sim().events_processed() -
                                              probes_ / num_shards());
        for (DcId dc = 0; dc < spec_.baseline.tpc.num_dcs; ++dc) {
          AddStoreCounts(shard.node(dc)->store(), &c);
          c.locked_keys_end += shard.node(dc)->LockedKeys();
        }
        for (int i = 0; i < shard.num_clients(); ++i) {
          c.tpc_committed += shard.client(i)->committed();
          c.tpc_aborted += shard.client(i)->aborted();
        }
      }
    } else {
      CountPlanetLayers(&c);
    }
    c.events -= probes_;
    if (spec_.tpc) {
      c.shard_imbalance =
          double(max_events) * num_shards() / double(c.events) - 1.0;
    }
    return c;
  }

  /// Quiesces (one anti-entropy round over the live replicas), then runs
  /// the serializability and convergence oracles over each recorded
  /// history. Returns the number of violations.
  size_t CheckOracles() {
    size_t violations = 0;
    auto report = [&](const CheckReport& serial,
                      const ConvergenceReport& conv) {
      for (const Violation& v : serial.violations) {
        if (v.mode_permitted) continue;
        ++violations;
        std::fprintf(stderr, "serializability: %s\n", v.ToString().c_str());
      }
      for (const ConvergenceViolation& v : conv.violations) {
        ++violations;
        std::fprintf(stderr, "convergence: %s\n", v.ToString().c_str());
      }
    };
    if (spec_.tpc) {
      // 2PC has no anti-entropy; a fault-free drain delivers every
      // replication message, so there is nothing to quiesce.
      CheckerOptions options;
      options.allow_in_doubt_writers = true;
      for (int s = 0; s < num_shards(); ++s) {
        const History& h = recorders_[size_t(s)]->history();
        report(CheckSerializability(h, options),
               CheckConvergence(sharded_->shard(s)->LiveReplicaStates(), &h));
      }
      return violations;
    }
    Cluster& cl = *cluster_;
    for (DcId dc = 0; dc < cl.num_dcs(); ++dc) {
      if (!cl.replica(dc)->crashed()) cl.replica(dc)->RequestSyncAll();
    }
    cl.Drain();
    const History& h = recorders_.front()->history();
    report(CheckSerializability(h),
           CheckConvergence(cl.LiveReplicaStates(), &h));
    return violations;
  }

  /// The PLANET cluster, or null for the 2PC workload.
  Cluster* planet_cluster() { return cluster_.get(); }
  /// The first 2PC shard, or null for the PLANET workloads.
  TpcCluster* tpc_shard() { return spec_.tpc ? sharded_->shard(0) : nullptr; }

 private:
  /// What the benchmark records from inside one shard's simulation; only
  /// that shard's worker thread writes it while the shards drain.
  struct Lane {
    std::vector<Clock::time_point> stamps;
    std::vector<Duration> commit_latencies;
  };

  /// Probe k stamps the wall clock and schedules probe k + 1, so only one
  /// probe per shard is ever pending.
  struct Probe {
    Simulator* sim;
    Lane* lane;
    Duration run_time;
    int k;
    void ScheduleNext() const {
      if (k + 1 < kWindows) {
        sim->ScheduleAt(run_time * (k + 1) / kWindows,
                        Probe{sim, lane, run_time, k + 1});
      }
    }
    void operator()() const {
      lane->stamps.push_back(Clock::now());
      ScheduleNext();
    }
  };

  int num_shards() const { return int(lanes_.size()); }
  Simulator& sim(int s) {
    return spec_.tpc ? sharded_->shard(s)->sim() : cluster_->sim();
  }

  void AddGenerator(Simulator* sim, Rng rng, TxnRunner runner,
                    RunMetrics* metrics, Lane* lane) {
    auto gen = std::make_unique<LoadGenerator>(sim, rng, std::move(runner),
                                               spec_.load);
    gen->SetResultSink([metrics, lane](const TxnResult& r) {
      metrics->Record(r);
      if (r.status.ok()) lane->commit_latencies.push_back(r.latency);
    });
    gen->Start(sim->Now() + spec_.run_time);
    generators_.push_back(std::move(gen));
  }

  void CountPlanetLayers(Counts* c) {
    Cluster& cl = *cluster_;
    AddSimCounts(cl.sim(), cl.net(), c);
    for (DcId dc = 0; dc < cl.num_dcs(); ++dc) {
      const Replica& r = *cl.replica(dc);
      AddStoreCounts(r.store(), c);
      c->fast_accepts += r.fast_accept_requests();
      c->classic_proposals += r.classic_proposals();
      c->stale_epoch_rejects += r.stale_epoch_rejects();
      c->resolve_queries += r.resolve_queries_sent();
      c->recovered_options += r.recovered_options();
      c->sync_records_adopted += r.sync_records_adopted();
      c->abort_notices_received += r.abort_notices_received();
      c->deferred_after_drain += r.DeferredCount();
    }
    for (int i = 0; i < cl.num_clients(); ++i) {
      const Client& client = *cl.client(i);
      c->classic_fallbacks += client.classic_fallbacks();
      c->timed_out += client.timed_out();
      c->failovers += client.failovers();
      c->mdcc_decided +=
          client.committed() + client.aborted() + client.timed_out();
    }
    PlanetContext& ctx = cl.context();
    c->early_aborts = ctx.stats().early_aborts;
    c->conflict_observations = ctx.conflict_model().observations();
    c->latency_samples = ctx.latency_model().total_samples();
    c->tracked_keys = ctx.conflict_model().tracked_vote_keys() +
                      ctx.conflict_model().tracked_option_keys();
    c->calibration_ece = ctx.stats().calibration.ExpectedCalibrationError();
    // Estimate() runs on each vote and option decision a live transaction
    // sees, but only when the kill gauge is armed; EstimateFresh() once per
    // submitted transaction.
    if (ctx.planet_config().kill_threshold > 0) {
      c->estimate_calls_bound = c->latency_samples +
                                ctx.conflict_model().option_observations();
    }
    c->estimate_fresh_calls_bound = ctx.stats().started;
  }

  const Spec& spec_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<ShardedTpcCluster> sharded_;
  RunMetrics metrics_;  // PLANET stack; shards keep theirs in contexts
  std::vector<Lane> lanes_;
  uint64_t probes_ = 0;
  std::vector<std::unique_ptr<LoadGenerator>> generators_;
  std::vector<std::unique_ptr<HistoryRecorder>> recorders_;
};

/// Nearest-rank percentile (p in [0, 100]) of sorted latencies, in ms.
double PercentileMs(const std::vector<Duration>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = size_t(std::ceil(p / 100.0 * double(sorted.size())));
  return double(sorted[std::max<size_t>(rank, 1) - 1]) / 1e3;
}

/// Everything simulated one rep produced. Reps of one seed must agree on
/// every character.
std::string Digest(const RunMetrics& m, const Counts& c,
                   const std::vector<Duration>& commit_latencies) {
  std::ostringstream oss;
  oss << m.committed << ' ' << m.aborted << ' ' << m.unavailable << ' '
      << m.rejected << ' ' << m.early_aborts << ' ' << c.issued << ' '
      << c.finished << ' ' << c.events << ' ' << c.net_sends << ' '
      << c.store_accepts << ' ' << c.wal_entries << ' '
      << json::Number(PercentileMs(commit_latencies, 50)) << ' '
      << json::Number(PercentileMs(commit_latencies, 99.9));
  for (const Histogram* h :
       {&m.latency_committed, &m.latency_all, &m.abort_latency}) {
    oss << " | " << h->count() << ' ' << json::Number(h->Mean()) << ' '
        << h->Percentile(50) << ' ' << h->Percentile(99.9) << ' ' << h->max();
  }
  return oss.str();
}

/// Wall time of one rep's set-up phases.
struct SetupTimes {
  double cluster_build_s = 0.0;
  double generators_build_s = 0.0;
  double total() const { return cluster_build_s + generators_build_s; }
};

/// Builds and starts a deployment, timing both phases.
std::unique_ptr<Deployment> SetUp(const Spec& spec, bool record,
                                  Tracer* tracer, SetupTimes* times) {
  Clock::time_point start = Clock::now();
  std::unique_ptr<Deployment> dep;
  {
    ScopedSpan span(tracer, "harness.cluster_build");
    dep = std::make_unique<Deployment>(spec);
    if (record) dep->AttachRecorders();
  }
  times->cluster_build_s = SecondsSince(start);
  start = Clock::now();
  {
    ScopedSpan span(tracer, "workload.generators_build");
    dep->StartLoad();
  }
  times->generators_build_s = SecondsSince(start);
  return dep;
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

/// The drain time of the fastest wall time each window took in any rep:
/// every rep runs the same deterministic simulation, so window k is the
/// same work in each, and the host's slow spells (which last seconds, and
/// are common on shared machines) drop out. Shards drain in parallel, so
/// the slowest shard's sum counts.
double FastestDrain(const std::vector<WindowTimes>& reps) {
  double drain = 0.0;
  for (size_t s = 0; s < reps.front().size(); ++s) {
    std::vector<double> best = reps.front()[s];
    for (const WindowTimes& rep : reps) {
      for (size_t k = 0; k < best.size(); ++k) {
        best[k] = std::min(best[k], rep[s][k]);
      }
    }
    drain = std::max(drain, Sum(best));
  }
  return drain;
}

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ------------------------------------------------------------------ replays

/// Per-operation wall cost of each layer's hot public functions.
struct Replays {
  double ns_per_event = 0.0;
  double ns_per_send = 0.0;
  double ns_per_accept_apply = 0.0;
  double ns_per_read = 0.0;
  double ns_per_fast_accept = 0.0;
  double ns_per_visibility = 0.0;
  double ns_per_estimate = 0.0;
  double ns_per_estimate_fresh = 0.0;
  double ns_per_tpc_read = 0.0;
  double ns_per_tpc_prepare = 0.0;
};

constexpr int kReplayReps = 3;

/// Self-refilling timer: each firing schedules its successor, so the queue
/// holds a steady number of pending events.
struct Pump {
  Simulator* sim;
  uint64_t* remaining;
  const std::vector<Duration>* delays;
  size_t next;
  void operator()() {
    if (*remaining == 0) return;
    --*remaining;
    size_t i = (next + 1) % delays->size();
    sim->Schedule((*delays)[i], Pump{sim, remaining, delays, i});
  }
};

/// Schedule + dispatch of a timer event with `depth` events pending.
double ReplaySim(Simulator& sim, size_t depth, Rng rng) {
  constexpr uint64_t kOps = 400000;
  std::vector<Duration> delays(4096);
  for (Duration& d : delays) d = Duration(rng.UniformInt(1, 200000));
  return BestNsPerOp(kOps, kReplayReps, [&](int) {
    uint64_t remaining = kOps;
    for (size_t i = 0; i < depth; ++i) {
      sim.Schedule(delays[i % delays.size()],
                   Pump{&sim, &remaining, &delays, i});
    }
    sim.Run();
  });
}

/// Network::Send between random replica pairs, including the delivery.
double ReplayNet(Simulator& sim, Network& net,
                 const std::vector<NodeId>& nodes, Rng rng) {
  constexpr uint64_t kOps = 200000;
  std::vector<std::pair<NodeId, NodeId>> pairs(4096);
  for (auto& p : pairs) {
    p.first = nodes[rng.Next() % nodes.size()];
    p.second = nodes[rng.Next() % nodes.size()];
  }
  uint64_t delivered = 0;
  double ns = BestNsPerOp(kOps, kReplayReps, [&](int) {
    for (uint64_t i = 0; i < kOps; ++i) {
      const auto& p = pairs[i % pairs.size()];
      net.Send(p.first, p.second, [&delivered] { ++delivered; });
      if (i % 256 == 255) sim.Run();
    }
    sim.Run();
  });
  DoNotOptimize(delivered);
  return ns;
}

/// `n` write sets of `writes` keys drawn like the workload's, each option
/// reading the version its predecessors on the key leave behind, so the
/// sets apply in order without conflict.
std::vector<std::vector<WriteOption>> MakeWriteSets(const Store& store,
                                                    const WorkloadConfig& wl,
                                                    int writes, size_t n,
                                                    Rng rng) {
  KeyChooser chooser(wl);
  std::unordered_map<Key, Version> versions;
  std::vector<std::vector<WriteOption>> sets(n);
  TxnId txn = TxnId(1) << 62;  // far from any id a client hands out
  for (auto& set : sets) {
    ++txn;
    for (Key key : chooser.NextDistinct(rng, writes)) {
      auto [it, inserted] = versions.try_emplace(key, 0);
      if (inserted) it->second = store.Read(key).version;
      WriteOption o;
      o.txn = txn;
      o.key = key;
      o.read_version = it->second++;
      o.new_value = Value(txn & 0xffff);
      set.push_back(o);
    }
  }
  return sets;
}

std::vector<Key> MakeKeys(const WorkloadConfig& wl, size_t n, Rng rng) {
  KeyChooser chooser(wl);
  std::vector<Key> keys(n);
  for (Key& k : keys) k = chooser.Next(rng);
  return keys;
}

/// Store::TryAcceptOption + ApplyOrLearn, and Store::Read.
void ReplayStore(Store& store, const WorkloadConfig& wl, Rng rng,
                 Replays* out) {
  constexpr size_t kOps = 60000;
  auto sets = MakeWriteSets(store, wl, 1, kOps * kReplayReps, rng.Fork(1));
  uint64_t accepted = 0;
  out->ns_per_accept_apply = BestNsPerOp(kOps, kReplayReps, [&](int rep) {
    for (size_t i = 0; i < kOps; ++i) {
      const WriteOption& o = sets[size_t(rep) * kOps + i].front();
      accepted += store.TryAcceptOption(o).ok();
      store.ApplyOrLearn(o);
    }
  });
  DoNotOptimize(accepted);

  std::vector<Key> keys = MakeKeys(wl, 200000, rng.Fork(2));
  Value sum = 0;
  out->ns_per_read = BestNsPerOp(keys.size(), kReplayReps, [&](int) {
    for (Key k : keys) sum += store.Read(k).value;
  });
  DoNotOptimize(sum);
}

/// Replica::HandleFastAccept and HandleVisibility (commit) on write sets
/// shaped like the workload's. A set whose keys overlap an earlier set of
/// the same batch starts a new batch, so every accept finds its key free.
void ReplayMdcc(Replica& replica, NodeId reply_to, const WorkloadConfig& wl,
                Rng rng, Replays* out) {
  constexpr size_t kTxns = 20000;
  auto sets = MakeWriteSets(replica.store(), wl, wl.writes_per_txn,
                            kTxns * kReplayReps, rng);
  uint64_t accepted = 0;
  double best_accept = -1.0;
  double best_visibility = -1.0;
  size_t options = 0;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    double accept_s = 0.0;
    double visibility_s = 0.0;
    options = 0;
    size_t begin = size_t(rep) * kTxns;
    size_t end = begin + kTxns;
    while (begin < end) {
      std::vector<Key> batch_keys;
      size_t stop = begin;
      for (; stop < end; ++stop) {
        bool overlap = false;
        for (const WriteOption& o : sets[stop]) {
          overlap |= std::find(batch_keys.begin(), batch_keys.end(), o.key) !=
                     batch_keys.end();
        }
        if (overlap || batch_keys.size() >= 256) break;
        for (const WriteOption& o : sets[stop]) batch_keys.push_back(o.key);
      }
      Clock::time_point start = Clock::now();
      for (size_t t = begin; t < stop; ++t) {
        for (const WriteOption& o : sets[t]) {
          replica.HandleFastAccept(o, reply_to, [&accepted](VoteReply v) {
            accepted += v.accepted;
          });
        }
      }
      accept_s += SecondsSince(start);
      start = Clock::now();
      for (size_t t = begin; t < stop; ++t) {
        replica.HandleVisibility(sets[t].front().txn, true, sets[t]);
        options += sets[t].size();
      }
      visibility_s += SecondsSince(start);
      begin = stop;
    }
    if (best_accept < 0 || accept_s < best_accept) best_accept = accept_s;
    if (best_visibility < 0 || visibility_s < best_visibility) {
      best_visibility = visibility_s;
    }
  }
  DoNotOptimize(accepted);
  out->ns_per_fast_accept = best_accept * 1e9 / double(options);
  out->ns_per_visibility = best_visibility * 1e9 / double(kTxns);
}

/// CommitLikelihoodEstimator::Estimate on the views a transaction's vote
/// events see, and EstimateFresh on its write set, against `ctx`'s learned
/// models. Each write set's votes arrive in random order, each accepting
/// with the learned per-key probability. Every vote yields one view, until
/// every option has reached a fast quorum or fallen back to classic.
void ReplayPlanet(PlanetContext& ctx, SimTime now, const WorkloadConfig& wl,
                  Rng rng, Replays* out) {
  constexpr size_t kViews = 2000;
  const CommitLikelihoodEstimator& est = ctx.estimator();
  const ConflictModel& conflict = ctx.conflict_model();
  const int num_dcs = ctx.mdcc_config().num_dcs;
  const int quorum = ctx.mdcc_config().FastQuorum();
  KeyChooser chooser(wl);
  std::vector<std::vector<WriteOption>> sets;
  std::vector<TxnView> views;
  while (views.size() < kViews) {
    TxnView view;
    view.phase = TxnPhase::kProposing;
    view.begin_time = now;
    view.propose_time = now;
    std::vector<WriteOption> set;
    std::vector<std::pair<size_t, int>> votes;  // (option, DC)
    for (Key key : chooser.NextDistinct(rng, wl.writes_per_txn)) {
      WriteOption o;
      o.key = key;
      set.push_back(o);
      OptionProgress op;
      op.option = o;
      op.proposed_at = now;
      op.votes.assign(size_t(num_dcs), -1);
      for (int dc = 0; dc < num_dcs; ++dc) {
        votes.emplace_back(view.options.size(), dc);
      }
      view.options.push_back(op);
    }
    for (size_t i = votes.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(votes[i - 1], votes[size_t(rng.UniformInt(0, int64_t(i) - 1))]);
    }
    for (auto [index, dc] : votes) {
      OptionProgress& op = view.options[index];
      if (op.decided || op.classic_inflight) continue;
      bool yes = !rng.Bernoulli(conflict.ConflictProb(op.option.key));
      op.votes[size_t(dc)] = yes ? 1 : 0;
      (yes ? op.accepts : op.rejects) += 1;
      if (op.accepts >= quorum) {
        op.decided = op.chosen = true;
      } else if (op.rejects > num_dcs - quorum) {
        op.classic_inflight = op.via_classic = true;
      }
      views.push_back(view);
    }
    sets.push_back(std::move(set));
  }
  double acc = 0.0;
  out->ns_per_estimate = BestNsPerOp(views.size(), kReplayReps, [&](int) {
    for (const TxnView& v : views) acc += est.Estimate(v, now);
  });
  out->ns_per_estimate_fresh = BestNsPerOp(sets.size(), kReplayReps, [&](int) {
    for (const auto& s : sets) acc += est.EstimateFresh(s, now);
  });
  DoNotOptimize(acc);
}

/// TpcNode::HandleRead, and HandlePrepare + HandleAbort at the key's home.
void ReplayBaseline(TpcCluster& cluster, const TpcConfig& config,
                    const WorkloadConfig& wl, Rng rng, Replays* out) {
  std::vector<Key> keys = MakeKeys(wl, 100000, rng);
  Value sum = 0;
  TpcNode& local = *cluster.node(0);
  out->ns_per_tpc_read = BestNsPerOp(keys.size(), kReplayReps, [&](int) {
    for (Key k : keys) {
      local.HandleRead(k, [&sum](RecordView v) { sum += v.value; });
    }
  });
  std::vector<Version> versions(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const Store& home = cluster.node(config.MasterOf(keys[i]))->store();
    versions[i] = home.Read(keys[i]).version;
  }
  uint64_t yes = 0;
  TxnId txn = TxnId(1) << 62;
  out->ns_per_tpc_prepare = BestNsPerOp(keys.size(), kReplayReps, [&](int) {
    for (size_t i = 0; i < keys.size(); ++i) {
      TpcNode& home = *cluster.node(config.MasterOf(keys[i]));
      ++txn;
      home.HandlePrepare(txn, keys[i], versions[i],
                         [&yes](bool vote) { yes += vote; });
      home.HandleAbort(txn, keys[i]);
    }
  });
  DoNotOptimize(sum);
  DoNotOptimize(yes);
}

/// Runs every replay. Layers the workload's own deployment has are replayed
/// on it; the other stack's layers on a fresh, idle deployment of it.
Replays RunReplays(const Spec& spec, Deployment& dep, Tracer* tracer,
                   size_t pool_depth) {
  Replays r;
  Rng rng = Rng(spec.planet.seed).Fork(0xbe7c);
  std::unique_ptr<Cluster> fresh_planet;
  std::unique_ptr<TpcCluster> fresh_tpc;
  Cluster* planet = dep.planet_cluster();
  TpcCluster* tpc = dep.tpc_shard();
  if (planet == nullptr) {
    ClusterOptions options;
    options.seed = spec.baseline.seed;
    fresh_planet = std::make_unique<Cluster>(options);
    planet = fresh_planet.get();
  }
  if (tpc == nullptr) {
    TpcClusterOptions options;
    options.seed = spec.planet.seed;
    fresh_tpc = std::make_unique<TpcCluster>(options);
    tpc = fresh_tpc.get();
  }
  Simulator& sim = spec.tpc ? tpc->sim() : planet->sim();
  Network& net = spec.tpc ? tpc->net() : planet->net();
  std::vector<NodeId> nodes;
  for (DcId dc = 0; dc < spec.planet.mdcc.num_dcs; ++dc) {
    nodes.push_back(spec.tpc ? tpc->node(dc)->id() : planet->replica(dc)->id());
  }
  {
    ScopedSpan span(tracer, "replay.sim");
    r.ns_per_event = ReplaySim(sim, std::max<size_t>(pool_depth, 1),
                               rng.Fork(1));
    r.ns_per_send = ReplayNet(sim, net, nodes, rng.Fork(2));
  }
  {
    ScopedSpan span(tracer, "replay.storage");
    Store& store =
        spec.tpc ? tpc->node(0)->store() : planet->replica(0)->store();
    ReplayStore(store, spec.wl, rng.Fork(3), &r);
  }
  {
    ScopedSpan span(tracer, "replay.mdcc");
    ReplayMdcc(*planet->replica(1), planet->client(0)->id(), spec.wl,
               rng.Fork(4), &r);
  }
  {
    ScopedSpan span(tracer, "replay.planet");
    ReplayPlanet(planet->context(), planet->sim().Now(), spec.wl, rng.Fork(5),
                 &r);
  }
  {
    ScopedSpan span(tracer, "replay.baseline");
    ReplayBaseline(*tpc, spec.baseline.tpc, spec.wl, rng.Fork(6), &r);
  }
  return r;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Wall-clock measurements of one run, in seconds.
struct WallTimes {
  std::vector<double> drains;  ///< whole drain of each timed rep
  double fastest_drain = 0.0;  ///< see FastestDrain
  std::vector<double> setups, cluster_builds, generator_builds;
  double checked_drain = 0.0;  ///< the checked rep's, with history recording
  double oracles = 0.0;
};

/// The per-layer metrics of a traced run.
std::vector<Metric> LayerMetrics(const Spec& spec, const Counts& c,
                                 const RunMetrics& m, const Replays& r,
                                 const WallTimes& wall, size_t violations) {
  std::vector<Metric> out;
  auto add = [&out](const std::string& name, double value,
                    const std::string& unit) {
    out.push_back(Metric{name, value, unit});
  };
  const double txns = double(c.finished);
  const std::vector<double>& drains = wall.drains;
  const double drain_s = Median(drains);
  add("sim.events", double(c.events), "count");
  add("sim.events_per_txn", double(c.events) / txns, "count");
  add("sim.events_per_s", double(c.events) / wall.fastest_drain, "1/s");
  add("sim.pool_slots_peak", double(c.pool_slots_peak), "count");
  add("sim.replay_ns_per_event", r.ns_per_event, "ns");
  add("sim.net_sends", double(c.net_sends), "count");
  add("sim.net_sends_per_txn", double(c.net_sends) / txns, "count");
  add("sim.net_dropped", double(c.net_dropped), "count");
  add("sim.net_retransmitted", double(c.net_retransmitted), "count");
  add("sim.net_abort_notices", double(c.net_abort_notices), "count");
  add("sim.replay_ns_per_send", r.ns_per_send, "ns");
  const uint64_t store_attempts = c.store_accepts + c.store_rejects;
  add("storage.accepts", double(c.store_accepts), "count");
  add("storage.rejects", double(c.store_rejects), "count");
  add("storage.accept_ratio",
      store_attempts == 0 ? 0.0
                          : double(c.store_accepts) / double(store_attempts),
      "ratio");
  add("storage.wal_entries", double(c.wal_entries), "count");
  add("storage.replay_ns_per_accept_apply", r.ns_per_accept_apply, "ns");
  add("storage.replay_ns_per_read", r.ns_per_read, "ns");
  add("mdcc.fast_accepts", double(c.fast_accepts), "count");
  add("mdcc.classic_proposals", double(c.classic_proposals), "count");
  add("mdcc.classic_fallbacks", double(c.classic_fallbacks), "count");
  add("mdcc.timed_out", double(c.timed_out), "count");
  add("mdcc.failovers", double(c.failovers), "count");
  add("mdcc.stale_epoch_rejects", double(c.stale_epoch_rejects), "count");
  add("mdcc.resolve_queries", double(c.resolve_queries), "count");
  add("mdcc.recovered_options", double(c.recovered_options), "count");
  add("mdcc.sync_records_adopted", double(c.sync_records_adopted), "count");
  add("mdcc.abort_notices_received", double(c.abort_notices_received),
      "count");
  add("mdcc.deferred_after_drain", double(c.deferred_after_drain), "count");
  add("mdcc.replay_ns_per_fast_accept", r.ns_per_fast_accept, "ns");
  add("mdcc.replay_ns_per_visibility", r.ns_per_visibility, "ns");
  add("planet.early_aborts", double(c.early_aborts), "count");
  add("planet.abort_p50_ms", double(m.abort_latency.Percentile(50)) / 1e3,
      "ms");
  add("planet.conflict_observations", double(c.conflict_observations),
      "count");
  add("planet.latency_samples", double(c.latency_samples), "count");
  add("planet.tracked_keys", double(c.tracked_keys), "count");
  add("planet.calibration_ece", c.calibration_ece, "ratio");
  add("planet.estimate_calls_bound", double(c.estimate_calls_bound), "count");
  add("planet.estimate_fresh_calls_bound",
      double(c.estimate_fresh_calls_bound), "count");
  add("planet.replay_ns_per_estimate", r.ns_per_estimate, "ns");
  add("planet.replay_ns_per_estimate_fresh", r.ns_per_estimate_fresh, "ns");
  add("baseline.committed", double(c.tpc_committed), "count");
  add("baseline.aborted", double(c.tpc_aborted), "count");
  add("baseline.locked_keys_end", double(c.locked_keys_end), "count");
  add("baseline.replay_ns_per_read", r.ns_per_tpc_read, "ns");
  add("baseline.replay_ns_per_prepare", r.ns_per_tpc_prepare, "ns");
  add("workload.issued", double(c.issued), "count");
  add("workload.finished", double(c.finished), "count");
  add("workload.commits", double(m.committed), "count");
  add("workload.generators_build_s", Median(wall.generator_builds), "s");
  add("harness.cluster_build_s", Median(wall.cluster_builds), "s");
  add("harness.drain_s", drain_s, "s");
  add("harness.drain_spread",
      (Quantile(drains, 0.75) - Quantile(drains, 0.25)) / drain_s, "ratio");
  add("harness.shard_imbalance", c.shard_imbalance, "ratio");
  add("check.violations", double(violations), "count");
  add("check.oracle_s", wall.oracles, "s");
  add("trace.overhead_frac", wall.checked_drain / drain_s - 1.0, "ratio");

  // Attribution: each layer's work count times its replayed unit cost,
  // against the CPU time of the fastest drain (all shards). A delivery is
  // charged to the send that caused it, so the event term counts only the
  // other events. Store work inside the replica handlers is in their
  // replays, so storage is charged only for reads.
  const double ns = 1e-9;
  const double reads =
      double(c.issued) * (spec.wl.reads_per_txn + spec.wl.writes_per_txn);
  const double timers = double(c.events - std::min(c.events, c.net_sends));
  // Each decision is broadcast to every DC.
  const double visibilities = double(c.mdcc_decided) * spec.planet.mdcc.num_dcs;
  const double prepares =
      double(c.tpc_committed + c.tpc_aborted) * spec.wl.writes_per_txn;
  const double sim_s =
      (timers * r.ns_per_event + double(c.net_sends) * r.ns_per_send) * ns;
  const double storage_s = spec.tpc ? 0.0 : reads * r.ns_per_read * ns;
  const double mdcc_s = (double(c.fast_accepts) * r.ns_per_fast_accept +
                         visibilities * r.ns_per_visibility) *
                        ns;
  const double planet_s =
      (double(c.estimate_calls_bound) * r.ns_per_estimate +
       double(c.estimate_fresh_calls_bound) * r.ns_per_estimate_fresh) *
      ns;
  const double baseline_s =
      spec.tpc ? (reads * r.ns_per_tpc_read + prepares * r.ns_per_tpc_prepare) *
                     ns
               : 0.0;
  const double explained = sim_s + storage_s + mdcc_s + planet_s + baseline_s;
  const double cpu_s = wall.fastest_drain * spec.shards;
  add("attrib.sim_s", sim_s, "s");
  add("attrib.storage_s", storage_s, "s");
  add("attrib.mdcc_s", mdcc_s, "s");
  add("attrib.planet_s", planet_s, "s");
  add("attrib.baseline_s", baseline_s, "s");
  add("attrib.explained_frac", explained / cpu_s, "ratio");
  add("attrib.residual_s", cpu_s - explained, "s");
  return out;
}

void Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload lowcon|hot-early|failover|"
               "tpc-sharded\n"
               "                 [--seed S] [--seconds T] [--trace PATH] "
               "[--smoke] [--json PATH]\n");
}

int Main(int argc, char** argv) {
  std::string workload, trace_path, json_path;
  uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      seed_set = true;
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      Usage();
      return 2;
    }
  }
  Spec spec;
  if (!seed_set) seed = DefaultSeed(workload);
  if (!MakeSpec(workload, seed, smoke, &spec) || !(seconds >= 0)) {
    Usage();
    return 2;
  }
  const bool tracing = !trace_path.empty();

  bool correct = true;
  auto fail = [&correct](const char* what) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", what);
    correct = false;
  };
  // Checks one drained rep: the same simulated outputs as every other rep,
  // and every issued transaction finished. The first rep's outputs are the
  // run's simulated results.
  std::string digest;
  Counts counts;
  RunMetrics metrics;
  std::vector<Duration> commit_latencies;
  uint64_t attempted = 0, failed = 0;
  auto check_rep = [&](Deployment& dep) {
    Counts c = dep.CountLayers();
    RunMetrics m = dep.Metrics();
    std::vector<Duration> latencies = dep.CommitLatencies();
    std::string d = Digest(m, c, latencies);
    if (digest.empty()) {
      digest = d;
      counts = c;
      metrics = m;
      commit_latencies = std::move(latencies);
    } else if (d != digest) {
      fail("simulated outputs differ between reps of one seed");
      std::fprintf(stderr, "  first: %s\n  this:  %s\n", digest.c_str(),
                   d.c_str());
    }
    attempted += c.issued;
    failed += c.issued - c.finished;
  };

  // Timed reps: at least kMinReps, then until --seconds have passed.
  constexpr size_t kMinReps = 3;
  WallTimes wall;
  std::vector<WindowTimes> windows;
  double peak_rss_mb = 0.0;
  Clock::time_point timed_start = Clock::now();
  while (wall.drains.size() < kMinReps ||
         SecondsSince(timed_start) < seconds) {
    SetupTimes t;
    std::unique_ptr<Deployment> dep = SetUp(spec, false, nullptr, &t);
    dep->AddProbes();
    windows.push_back(dep->Drain());
    wall.drains.push_back(Sum(windows.back().front()));
    check_rep(*dep);
    if (wall.drains.size() == 1) {
      // One set-up and drain in a fresh process: later reps only add the
      // allocator's retained memory.
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb = double(usage.ru_maxrss) / 1024.0;
    }
  }
  wall.fastest_drain = FastestDrain(windows);

  // Set-up timing: back to back, so every sample starts from the same state.
  constexpr int kSetups = 15;
  for (int i = 0; i < kSetups; ++i) {
    SetupTimes t;
    SetUp(spec, false, nullptr, &t);
    wall.setups.push_back(t.total());
    wall.cluster_builds.push_back(t.cluster_build_s);
    wall.generator_builds.push_back(t.generators_build_s);
  }
  std::fprintf(stderr, "bench_e2e: %s fastest drain %.4f s; reps",
               spec.name.c_str(), wall.fastest_drain);
  for (double d : wall.drains) std::fprintf(stderr, " %.4f", d);
  std::fprintf(stderr, "; set-ups");
  for (double d : wall.setups) std::fprintf(stderr, " %.6f", d);
  std::fprintf(stderr, "\n");

  // The checked rep: history recorded (which must not change the run),
  // oracles over it, and under --trace the spans and replays.
  std::unique_ptr<Tracer> tracer;
  if (tracing) tracer = std::make_unique<Tracer>();
  size_t violations = 0;
  Replays replays;
  {
    ScopedSpan rep_span(tracer.get(), "rep.checked");
    SetupTimes t;
    std::unique_ptr<Deployment> dep = SetUp(spec, true, tracer.get(), &t);
    dep->AddProbes();
    {
      ScopedSpan span(tracer.get(), "harness.drain");
      wall.checked_drain = Sum(dep->Drain().front());
    }
    check_rep(*dep);
    Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer.get(), "check.oracles");
      violations = dep->CheckOracles();
    }
    wall.oracles = SecondsSince(start);
    if (violations != 0) fail("oracle violations");
    // Checked after the quiesce, as the oracles are: a replica can end the
    // drain holding transitions deferred behind one it never learned, which
    // only anti-entropy repairs (mdcc.deferred_after_drain counts them).
    if (!dep->Converged()) fail("replicas did not converge");
    if (tracing) {
      replays = RunReplays(spec, *dep, tracer.get(), counts.pool_slots_peak);
    }
  }
  if (failed != 0) fail("issued transactions that never finished");
  if (tracing && !tracer->Write(trace_path)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", trace_path.c_str());
    return 2;
  }

  std::vector<Metric> out;
  if (tracing) {
    out = LayerMetrics(spec, counts, metrics, replays, wall, violations);
  } else {
    const double sim_s = double(spec.run_time) / 1e6;
    const double finished = double(counts.finished);
    out = {
        {"txn_per_s", finished / wall.fastest_drain, "txn/s"},
        {"setup_s", Median(wall.setups), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"goodput_tps", double(metrics.committed) / sim_s, "txn/sim-s"},
        {"commit_p50_ms", PercentileMs(commit_latencies, 50), "ms"},
        {"commit_p999_ms", PercentileMs(commit_latencies, 99.9), "ms"},
        {"commit_frac", double(metrics.committed) / finished, "ratio"},
    };
  }
  out.push_back({"run.attempted", double(attempted), "count"});
  out.push_back({"run.failed", double(failed), "count"});
  out.push_back({"run.correct", correct ? 1.0 : 0.0, "bool"});

  MetricsJson doc("perfbench_e2e");
  MetricsJson::Point point(spec.name);
  point.Param("workload", spec.name);
  point.Param("seed", static_cast<long long>(seed));
  point.Param("trace", static_cast<long long>(tracing));
  for (const Metric& m : out) {
    std::printf("%s %s %.17g %s\n", spec.name.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
    point.Scalar(m.name, m.value);
  }
  doc.Add(std::move(point));
  if (!json_path.empty()) {
    Status st = doc.WriteFile(json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_e2e: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace planet

int main(int argc, char** argv) { return planet::perfbench::Main(argc, argv); }
