// planetlab — command-line experiment runner for the PLANET stack.
//
// Runs a configurable workload on a simulated multi-DC deployment and prints
// outcome/latency tables. Everything the bench binaries do, but parameterized
// from the command line, so downstream users can explore the design space
// without writing C++.
//
// Examples:
//   planetlab                                   # defaults: PLANET, 5 DCs
//   planetlab --stack 2pc --keys 100            # contended 2PC baseline
//   planetlab --deadline 100 --threshold 0.9 --giveup
//   planetlab --admission 0.4 --keys 50 --rate 20
//   planetlab --spike 1:20:40:250               # +250ms on DC 1, t=20..40s
//   planetlab --dist zipf --theta 0.99 --commutative
//   planetlab --json out.json                   # machine-readable metrics
//   planetlab --help
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "baseline/tpc.h"
#include "common/table.h"
#include "harness/cluster.h"
#include "harness/metrics.h"
#include "harness/sharded_cluster.h"
#include "harness/sweep.h"
#include "workload/runners.h"

using namespace planet;

namespace {

struct Args {
  int dcs = 5;
  int clients_per_dc = 2;
  uint64_t seed = 42;
  int duration_s = 60;
  // workload
  uint64_t keys = 100000;
  std::string dist = "uniform";
  double theta = 0.99;
  uint64_t hot_keys = 100;
  double hot_frac = 0.9;
  int reads = 1;
  int writes = 2;
  bool commutative = false;
  // driver
  double rate = 0;      // open loop per client if > 0
  int think_ms = 0;     // closed loop think time
  // stack
  std::string stack = "planet";
  /// Client-visible isolation mode; the serializable default is
  /// byte-identical to the pre-mode stack (goldens depend on that).
  IsolationLevel isolation = IsolationLevel::kSerializable;
  // PLANET policy
  int deadline_ms = 0;
  double threshold = -1;
  bool giveup = false;
  double admission = 0;
  /// Predictive early abort (F11). 0 disables the path entirely; runs with
  /// kill_threshold == 0 stay byte-identical to pre-feature builds, which
  /// the committed golden configs rely on.
  double kill_threshold = 0;
  double kill_hysteresis = 0.05;
  int kill_confirm = 2;
  // faults (--spike adds to the same schedule)
  FaultSchedule faults;
  std::string fault_spec;
  int failover_ms = 0;
  bool csv = false;
  bool verbose = false;
  /// > 1 runs N key-partitioned sim shards on N worker threads (shard
  /// seeds come from Rng::ShardSeed); 1 is the serial run.
  int sim_shards = 1;
  SweepOptions sweep;  // --json
};

void Usage() {
  std::printf(R"(planetlab - PLANET experiment runner

cluster:    --dcs N           data centers (5 uses the realistic WAN preset,
                              anything else is uniform 50ms)
            --clients-per-dc N
            --seed S          deterministic seed
            --duration S      simulated seconds of load
workload:   --keys N          key-space size
            --dist D          uniform | zipf | hotspot
            --theta X         zipf skew
            --hot-keys N --hot-frac X
            --reads N --writes N
            --commutative     Add() deltas instead of physical RMW
driver:     --rate R          open-loop arrivals/s per client
            --think MS        closed-loop think time (default closed, 0ms)
stack:      --stack S         planet | mdcc | 2pc
            --isolation MODE  serializable | read_committed | causal
                              (client visibility; default serializable)
planet:     --deadline MS     speculation deadline
            --threshold X     speculate when likelihood >= X
            --giveup          below threshold, notify "pending"
            --admission TAU   enable admission control
            --kill-threshold X  predictive early abort: kill in-flight txns
                              whose doom score (1 - likelihood) holds >= X
                              (0 disables; replay is byte-identical)
            --kill-hysteresis X  doom must fall below X - hysteresis to
                              reset the kill streak (default 0.05)
            --kill-confirm N  consecutive doomed observations before the
                              kill fires (default 2)
faults:     --spike DC:START:END:MS   latency spike on one DC (shorthand for
                              spike@START:DC:MS,clearspike@END:DC)
            --fault SPEC      deterministic fault schedule, e.g.
                              "crash@20:1,restart@50:1" or
                              "partition@10:2;heal@30:2;spike@40:0:250"
                              (kind@SECONDS:DC[:EXTRA_MS], ','/';' separated)
            --failover MS     per-record master failover timeout (planet/mdcc;
                              also arms the planet dead-DC detector)
output:     --csv             also print CSV
            --json PATH       write metrics as a JSON document
            --verbose         extra diagnostics
harness:    --sim-shards N    parallel sim shards, key-partitioned (1 =
                              serial run; N>1 multiplies the simulated
                              population by N and runs on N worker threads)
)");
}

WorkloadConfig MakeWorkload(const Args& args, int shard);

bool ParseArgs(int argc, char** argv, Args* args) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      exit(2);
    }
    return argv[++i];
  };
  FaultSchedule spikes;  // --spike, appended after the --fault events
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      Usage();
      exit(0);
    } else if (a == "--dcs") {
      if (!ParseFlagNumber(a, need(i), &args->dcs, 1)) return false;
    } else if (a == "--clients-per-dc") {
      if (!ParseFlagNumber(a, need(i), &args->clients_per_dc, 1)) return false;
    } else if (a == "--seed") {
      if (!ParseFlagNumber(a, need(i), &args->seed)) return false;
    } else if (a == "--duration") {
      if (!ParseFlagNumber(a, need(i), &args->duration_s, 0)) return false;
    } else if (a == "--keys") {
      if (!ParseFlagNumber(a, need(i), &args->keys)) return false;
    } else if (a == "--dist") {
      args->dist = need(i);
    } else if (a == "--theta") {
      if (!ParseFlagNumber(a, need(i), &args->theta)) return false;
    } else if (a == "--hot-keys") {
      if (!ParseFlagNumber(a, need(i), &args->hot_keys)) return false;
    } else if (a == "--hot-frac") {
      if (!ParseFlagNumber(a, need(i), &args->hot_frac)) return false;
    } else if (a == "--reads") {
      if (!ParseFlagNumber(a, need(i), &args->reads)) return false;
    } else if (a == "--writes") {
      if (!ParseFlagNumber(a, need(i), &args->writes)) return false;
    } else if (a == "--commutative") {
      args->commutative = true;
    } else if (a == "--rate") {
      if (!ParseFlagNumber(a, need(i), &args->rate)) return false;
    } else if (a == "--think") {
      if (!ParseFlagNumber(a, need(i), &args->think_ms, 0)) return false;
    } else if (a == "--stack") {
      args->stack = need(i);
    } else if (a == "--isolation") {
      const char* mode = need(i);
      if (!ParseIsolationLevel(mode, &args->isolation)) {
        std::fprintf(stderr, "--isolation wants serializable | "
                             "read_committed | causal, got %s\n", mode);
        return false;
      }
    } else if (a == "--deadline") {
      if (!ParseFlagNumber(a, need(i), &args->deadline_ms, 0)) return false;
    } else if (a == "--threshold") {
      if (!ParseFlagNumber(a, need(i), &args->threshold)) return false;
    } else if (a == "--giveup") {
      args->giveup = true;
    } else if (a == "--admission") {
      if (!ParseFlagNumber(a, need(i), &args->admission)) return false;
    } else if (a == "--kill-threshold") {
      if (!ParseFlagNumber(a, need(i), &args->kill_threshold)) return false;
    } else if (a == "--kill-hysteresis") {
      if (!ParseFlagNumber(a, need(i), &args->kill_hysteresis)) return false;
    } else if (a == "--kill-confirm") {
      if (!ParseFlagNumber(a, need(i), &args->kill_confirm, 1)) return false;
    } else if (a == "--spike") {
      // DC:START:END:MS, each field a strict number; the last takes the
      // rest of the value, so a fifth field fails to parse.
      std::string spec = need(i);
      const char* names[] = {"--spike DC", "--spike START", "--spike END",
                             "--spike MS"};
      int field[4] = {};
      size_t pos = 0;
      for (int f = 0; f < 4; ++f) {
        size_t colon = f == 3 ? spec.size() : spec.find(':', pos);
        if (colon == std::string::npos) {
          std::fprintf(stderr, "--spike wants DC:START:END:MS, got '%s'\n",
                       spec.c_str());
          return false;
        }
        std::string text = spec.substr(pos, colon - pos);
        if (!ParseFlagNumber(names[f], text.c_str(), &field[f], 0)) {
          return false;
        }
        pos = colon + 1;
      }
      spikes.SpikeDc(Seconds(field[1]), field[0], Millis(field[3]))
          .ClearSpikeDc(Seconds(field[2]), field[0]);
    } else if (a == "--fault") {
      args->fault_spec = need(i);
      std::string error;
      if (!FaultSchedule::Parse(args->fault_spec, &args->faults, &error)) {
        std::fprintf(stderr, "--fault: %s\n", error.c_str());
        return false;
      }
    } else if (a == "--failover") {
      if (!ParseFlagNumber(a, need(i), &args->failover_ms, 0)) return false;
    } else if (a == "--csv") {
      args->csv = true;
    } else if (a == "--json") {
      args->sweep.json_path = need(i);
    } else if (a == "--sim-shards") {
      if (!ParseFlagNumber(a, need(i), &args->sim_shards, 1)) return false;
    } else if (a == "--verbose") {
      args->verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", a.c_str());
      return false;
    }
  }
  args->faults.Merge(spikes);
  // Checks that span flags run once all of them are parsed (--dcs may
  // follow --fault).
  if (args->stack != "planet" && args->stack != "mdcc" &&
      args->stack != "2pc") {
    std::fprintf(stderr, "unknown stack %s\n", args->stack.c_str());
    return false;
  }
  if (args->dist != "uniform" && args->dist != "zipf" &&
      args->dist != "hotspot") {
    std::fprintf(stderr, "--dist wants uniform | zipf | hotspot, got %s\n",
                 args->dist.c_str());
    return false;
  }
  for (int s = 0; s < args->sim_shards; ++s) {
    Status valid = ValidateWorkload(MakeWorkload(*args, s));
    if (!valid.ok()) {
      std::fprintf(stderr, "workload: %s\n", valid.message().c_str());
      return false;
    }
  }
  if (args->stack == "2pc" && args->commutative) {
    std::fprintf(stderr, "--commutative needs --stack planet or mdcc: the "
                         "2PC baseline writes physically only\n");
    return false;
  }
  Status valid = args->faults.Validate(args->dcs);
  if (!valid.ok()) {
    std::fprintf(stderr, "--fault/--spike: %s\n", valid.ToString().c_str());
    return false;
  }
  return true;
}

/// The workload of shard `shard` (of args.sim_shards).
WorkloadConfig MakeWorkload(const Args& args, int shard) {
  WorkloadConfig wl;
  wl.num_keys = args.keys;
  if (args.dist == "zipf") {
    wl.dist = KeyDist::kZipf;
  } else if (args.dist == "hotspot") {
    wl.dist = KeyDist::kHotspot;
  } else {
    wl.dist = KeyDist::kUniform;
  }
  wl.zipf_theta = args.theta;
  wl.hot_keys = args.hot_keys;
  wl.hot_fraction = args.hot_frac;
  wl.reads_per_txn = args.reads;
  wl.writes_per_txn = args.writes;
  wl.commutative = args.commutative;
  wl.num_shards = args.sim_shards;
  wl.shard = shard;
  return wl;
}

/// Everything a run produces; the clusters die with Run.
struct LabResult {
  RunMetrics metrics;
  PlanetStats planet_stats;
  bool has_planet_stats = false;
  bool converged = false;
  std::vector<std::vector<std::string>> rtt_rows;  // verbose RTT table
};

void PrintSummary(const Args& args, const LabResult& r) {
  const RunMetrics& m = r.metrics;
  Duration run = Seconds(args.duration_s);
  Table outcomes({"metric", "value"});
  outcomes.AddRow({"finished", Table::FmtInt((long long)m.finished())});
  outcomes.AddRow({"committed", Table::FmtInt((long long)m.committed)});
  outcomes.AddRow({"aborted", Table::FmtInt((long long)m.aborted)});
  outcomes.AddRow({"unavailable", Table::FmtInt((long long)m.unavailable)});
  outcomes.AddRow({"rejected (admission)", Table::FmtInt((long long)m.rejected)});
  outcomes.AddRow({"commit rate", Table::FmtPct(m.CommitRate())});
  outcomes.AddRow({"goodput/s", Table::Fmt(m.Goodput(run), 2)});
  if (r.has_planet_stats) {
    outcomes.AddRow({"speculated",
                     Table::FmtInt((long long)r.planet_stats.speculated)});
    outcomes.AddRow({"apologies",
                     Table::FmtInt((long long)r.planet_stats.apologies)});
    outcomes.AddRow({"apology rate",
                     Table::Fmt(r.planet_stats.ApologyRate(), 4)});
    outcomes.AddRow({"gave up",
                     Table::FmtInt((long long)r.planet_stats.gave_up)});
    if (args.kill_threshold > 0) {
      outcomes.AddRow({"early aborts",
                       Table::FmtInt((long long)r.planet_stats.early_aborts)});
    }
  }
  outcomes.Print("outcomes", args.csv);

  Table latency({"percentile", "definitive", "user-perceived"});
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    latency.AddRow({Table::Fmt(p, 1), Table::FmtUs(m.latency_all.Percentile(p)),
                    Table::FmtUs(m.user_latency.Percentile(p))});
  }
  latency.Print("latency", args.csv);
}

void ExportJson(const Args& args, const LabResult& r) {
  if (args.sweep.json_path.empty()) return;
  MetricsJson json("planetlab");
  MetricsJson::Point point(args.stack);
  point.Param("stack", args.stack);
  point.Param("dcs", (long long)args.dcs);
  point.Param("clients_per_dc", (long long)args.clients_per_dc);
  point.Param("seed", (long long)args.seed);
  point.Param("duration_s", (long long)args.duration_s);
  point.Param("keys", (long long)args.keys);
  point.Param("dist", args.dist);
  point.Param("reads", (long long)args.reads);
  point.Param("writes", (long long)args.writes);
  point.Param("commutative", (long long)(args.commutative ? 1 : 0));
  if (args.isolation != IsolationLevel::kSerializable) {
    point.Param("isolation", IsolationLevelName(args.isolation));
  }
  if (args.rate > 0) point.Param("rate_per_client", args.rate);
  if (args.deadline_ms > 0) {
    point.Param("deadline_ms", (long long)args.deadline_ms);
  }
  if (args.threshold >= 0) point.Param("threshold", args.threshold);
  if (args.admission > 0) point.Param("admission", args.admission);
  // Gated on the flag (not on has_planet_stats): disabled runs must keep
  // producing documents byte-identical to the committed goldens.
  if (args.kill_threshold > 0) {
    point.Param("kill_threshold", args.kill_threshold);
    point.Param("kill_hysteresis", args.kill_hysteresis);
    point.Param("kill_confirm", (long long)args.kill_confirm);
  }
  if (!args.fault_spec.empty()) point.Param("fault", args.fault_spec);
  if (args.failover_ms > 0) {
    point.Param("failover_ms", (long long)args.failover_ms);
  }
  if (args.sim_shards > 1) {
    point.Param("sim_shards", (long long)args.sim_shards);
  }
  point.Scalar("replicas_converged", r.converged ? 1 : 0);
  point.Metrics(r.metrics, Seconds(args.duration_s));
  if (r.has_planet_stats) point.Speculation(r.planet_stats);
  if (args.kill_threshold > 0) {
    point.EarlyAbort(r.metrics, Seconds(args.duration_s));
  }
  json.Add(std::move(point));
  ExportMetricsJson(args.sweep, json);
}

// The stack-specific parts of a run, overloaded on the cluster type.

void Configure(const Args& args, TpcClusterOptions* base) {
  base->tpc.num_dcs = args.dcs;
}

void Configure(const Args& args, ClusterOptions* base) {
  base->mdcc.num_dcs = args.dcs;
  base->planet.enable_admission = args.admission > 0;
  base->planet.admission_threshold = args.admission;
  base->planet.kill_threshold = args.kill_threshold;
  base->planet.kill_hysteresis = args.kill_hysteresis;
  base->planet.kill_confirm = args.kill_confirm;
  if (args.failover_ms > 0) {
    base->mdcc.master_failover_timeout = Millis(args.failover_ms);
    base->planet.dead_after = Millis(args.failover_ms);
  }
}

TxnRunner MakeRunner(const Args& /*args*/, TpcCluster* cluster, int i,
                     const WorkloadConfig& wl) {
  return MakeTpcRunner(cluster->client(i), wl, cluster->ForkRng(200 + i));
}

TxnRunner MakeRunner(const Args& args, Cluster* cluster, int i,
                     const WorkloadConfig& wl) {
  if (args.stack == "mdcc") {
    return MakeMdccRunner(cluster->client(i), wl, cluster->ForkRng(200 + i));
  }
  PlanetRunnerPolicy policy;
  policy.speculation_deadline = Millis(args.deadline_ms);
  policy.speculate_threshold = args.threshold;
  policy.give_up_below = args.giveup;
  return MakePlanetRunner(cluster->planet_client(i), wl,
                          cluster->ForkRng(200 + i), policy);
}

/// 2PC has no PLANET layer to report on.
void CollectPlanetStats(const Args& /*args*/, ShardedTpcCluster& /*sharded*/,
                        LabResult* /*result*/) {}

void CollectPlanetStats(const Args& args, ShardedCluster& sharded,
                        LabResult* result) {
  if (args.stack != "planet") return;
  result->has_planet_stats = true;
  // Sum the counters the summary and the JSON use, in shard order.
  for (int s = 0; s < sharded.num_shards(); ++s) {
    const PlanetStats& ps = sharded.shard(s)->context().stats();
    PlanetStats& out = result->planet_stats;
    out.speculated += ps.speculated;
    out.speculation_correct += ps.speculation_correct;
    out.apologies += ps.apologies;
    out.gave_up += ps.gave_up;
    out.early_aborts += ps.early_aborts;
  }
  if (!args.verbose) return;
  // Shard 0's learned model (every shard learns the same WAN).
  Cluster* cluster = sharded.shard(0);
  LatencyModel& lm = cluster->context().latency_model();
  const WanPreset& wan = cluster->options().wan;
  for (DcId a = 0; a < args.dcs; ++a) {
    for (DcId b = 0; b < args.dcs; ++b) {
      const Histogram& h = lm.HistogramFor(a, b);
      if (h.count() == 0) continue;
      result->rtt_rows.push_back(
          {wan.dc_names[size_t(a)], wan.dc_names[size_t(b)],
           Table::FmtUs(h.Percentile(50)), Table::FmtUs(h.Percentile(99)),
           Table::FmtInt((long long)h.count())});
    }
  }
}

/// One run over --sim-shards key-partitioned clusters. Each shard is a full
/// deployment with its own WAN; the fault schedule applies to every shard
/// (same simulated times, per-shard sampled effects).
template <typename ClusterT>
LabResult Run(const Args& args) {
  typename ClusterT::Options base;
  base.seed = args.seed;
  base.wan = args.dcs == 5 ? FiveDcWan() : UniformWan(args.dcs, 50.0);
  base.clients_per_dc = args.clients_per_dc;
  base.isolation = args.isolation;
  base.faults = args.faults;
  Configure(args, &base);
  ShardedClusterT<ClusterT> sharded(base, args.sim_shards);
  LoadGenerator::Options load;
  load.rate_per_sec = args.rate;
  load.think_time_mean = Millis(args.think_ms);
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    ClusterT* cluster = sharded.shard(s);
    WorkloadConfig wl = MakeWorkload(args, s);
    for (int i = 0; i < cluster->num_clients(); ++i) {
      auto gen = std::make_unique<LoadGenerator>(
          &cluster->sim(), cluster->ForkRng(100 + i),
          MakeRunner(args, cluster, i, wl), load);
      gen->SetResultSink(sharded.context(s).metrics.Sink());
      gen->Start(Seconds(args.duration_s));
      generators.push_back(std::move(gen));
    }
  }
  sharded.Drain();

  LabResult result;
  result.metrics = sharded.MergedMetrics();
  result.converged = sharded.AllConverged();
  CollectPlanetStats(args, sharded, &result);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  LabResult result =
      args.stack == "2pc" ? Run<TpcCluster>(args) : Run<Cluster>(args);

  PrintSummary(args, result);
  if (!result.rtt_rows.empty()) {
    Table rtts({"client dc", "replica dc", "rtt p50", "rtt p99", "samples"});
    for (const auto& row : result.rtt_rows) rtts.AddRow(row);
    rtts.Print("learned RTT model", args.csv);
  }
  std::printf("replicas converged: %s\n", result.converged ? "yes" : "NO");
  ExportJson(args, result);
  return 0;
}
