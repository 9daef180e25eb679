// Experiment F9 — latency unpredictability from load (CPU saturation).
//
// The paper's first source of unpredictability is "load spikes in the
// workload" / "inter-query interactions from consolidation". Replicas get a
// finite CPU (service cost per protocol message); open-loop arrivals sweep
// through the saturation point. Queueing delay explodes near saturation —
// and PLANET's deadline + likelihood machinery keeps the user experience
// pinned anyway, because the latency model learns the inflated response
// times. Reports replica utilization, definitive latency, user-perceived
// latency, and give-up/speculation behaviour per offered load.
#include <chrono>
#include <cstring>

#include "bench_util.h"
#include "common/table.h"
#include "harness/sharded_cluster.h"
#include "harness/sweep.h"

using namespace planet;

namespace {

struct F9Result {
  RunMetrics metrics;
  PlanetStats stats;
  double util = 0;
};

F9Result RunOne(double rate, bool sla_admission, Duration run) {
  const Duration kServiceCost = Millis(1);  // 1000 msg/s per replica
  ClusterOptions options;
  options.seed = 111;
  options.clients_per_dc = 2;
  options.mdcc.replica_service_cost = kServiceCost;
  if (sla_admission) {
    // Latency-aware admission: reject transactions whose learned RTT
    // tails say the 1s SLA is unlikely to be met.
    options.planet.enable_admission = true;
    options.planet.admission_threshold = 0.5;
    options.planet.admission_sla = Seconds(1);
  }
  Cluster cluster(options);

  WorkloadConfig wl;
  wl.num_keys = 100000;  // low contention: this is about load, not locks
  wl.reads_per_txn = 1;
  wl.writes_per_txn = 2;

  PlanetRunnerPolicy policy;
  policy.speculation_deadline = Millis(250);
  policy.speculate_threshold = 0.9;
  policy.give_up_below = true;

  LoadGenerator::Options load;
  load.rate_per_sec = rate;

  F9Result result;
  result.metrics = bench::RunPlanet(cluster, wl, run, policy, load);
  result.stats = cluster.context().stats();
  for (DcId dc = 0; dc < 5; ++dc) {
    result.util = std::max(result.util, cluster.replica(dc)->Utilization());
  }
  return result;
}

// --mega: population scale instead of a rate sweep. One million simulated
// closed-loop clients (multiplexed sessions, ~100s mean think time — the
// "many mostly-idle users" shape of a planet-scale web app) spread over 8
// key-partitioned sim shards drained in parallel. Think time bounds the
// in-flight population to population * (latency / think) ~ a few thousand,
// which is what makes 10^6 clients tractable in one address space.
int RunMega(const SweepOptions& opts) {
  constexpr int kShards = 8;
  constexpr uint64_t kSessionsPerGenerator = 12500;
  const Duration kRun = Seconds(30);

  ClusterOptions base;
  base.seed = 111;
  base.clients_per_dc = 2;  // 10 generator objects per shard (5 DCs)

  ShardedCluster sharded(base, kShards);

  PlanetRunnerPolicy policy;
  policy.speculation_deadline = Millis(250);
  policy.speculate_threshold = 0.9;
  policy.give_up_below = true;

  LoadGenerator::Options load;
  load.think_time_mean = Seconds(100);
  load.sessions = kSessionsPerGenerator;
  load.stagger_start = true;  // ramp in, no 10^6-wide herd at t=0

  uint64_t total_sessions = 0;
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  auto wall_start = std::chrono::steady_clock::now();
  for (int s = 0; s < sharded.num_shards(); ++s) {
    Cluster* cluster = sharded.shard(s);
    WorkloadConfig wl;
    wl.num_keys = 1000000;
    wl.reads_per_txn = 1;
    wl.writes_per_txn = 2;
    wl.num_shards = kShards;
    wl.shard = s;
    for (int i = 0; i < cluster->num_clients(); ++i) {
      auto gen = std::make_unique<LoadGenerator>(
          &cluster->sim(), cluster->ForkRng(7000 + i),
          MakePlanetRunner(cluster->planet_client(i), wl,
                           cluster->ForkRng(8000 + i), policy),
          load);
      gen->SetResultSink(sharded.context(s).metrics.Sink());
      gen->Start(kRun);
      total_sessions += kSessionsPerGenerator;
      generators.push_back(std::move(gen));
    }
  }
  sharded.Drain();

  RunMetrics merged = sharded.MergedMetrics();
  // Wall time is stamped once at the top level: the shards ran
  // concurrently, so summing per-shard wall clocks would double-count the
  // overlap and understate events/sec.
  std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  merged.wall_seconds = wall.count();
  merged.events_processed = sharded.TotalEventsProcessed();

  Table table({"metric", "value"});
  table.AddRow({"simulated clients",
                Table::FmtInt((long long)total_sessions)});
  table.AddRow({"sim shards", Table::FmtInt(kShards)});
  table.AddRow({"finished", Table::FmtInt((long long)merged.finished())});
  table.AddRow({"commit rate", Table::FmtPct(merged.CommitRate())});
  table.AddRow({"final p50", Table::FmtUs(merged.latency_all.Percentile(50))});
  table.AddRow({"final p99", Table::FmtUs(merged.latency_all.Percentile(99))});
  table.AddRow({"events", Table::FmtInt((long long)merged.events_processed)});
  table.Print("F9 --mega: 1M closed-loop clients over 8 sim shards", true);

  MetricsJson json("f9_mega");
  MetricsJson::Point point("mega");
  point.Param("sim_shards", (long long)kShards);
  point.Param("sessions", (long long)total_sessions);
  point.Param("think_s", 100.0);
  point.Param("duration_s", (long long)(kRun / 1000000));
  point.Metrics(merged, kRun);
  json.Add(std::move(point));
  ExportMetricsJson(opts, json);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --mega is this binary's flag; everything else is the shared sweep
  // contract, so strip it before handing argv to ParseSweepArgs.
  bool mega = false;
  std::vector<char*> filtered;
  filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mega") == 0) {
      mega = true;
    } else {
      filtered.push_back(argv[i]);
    }
  }
  SweepOptions opts = ParseSweepArgs(static_cast<int>(filtered.size()),
                                     filtered.data(), "bench_f9_load");
  if (mega) return RunMega(opts);
  const Duration kRun = Seconds(60);
  const std::vector<double> kRates = {5.0, 10.0, 15.0, 20.0, 25.0, 30.0};

  std::vector<std::function<F9Result()>> points;
  for (double rate : kRates) {
    for (bool sla_admission : {false, true}) {
      points.push_back([rate, sla_admission, kRun] {
        return RunOne(rate, sla_admission, kRun);
      });
    }
  }

  SweepRunner runner(opts);
  std::vector<F9Result> results = runner.Run(std::move(points));

  Table table({"offered tx/s", "admission", "util%", "commit%", "rejected",
               "final p50", "final p99", "user p50", "user p99",
               "speculated%"});
  MetricsJson json("f9_load");
  size_t idx = 0;
  for (double rate : kRates) {
    for (bool sla_admission : {false, true}) {
      const F9Result& row = results[idx++];
      const RunMetrics& m = row.metrics;
      double finished = double(m.attempted());
      table.AddRow(
          {Table::Fmt(rate * 10, 0), sla_admission ? "sla-1s" : "off",
           Table::FmtPct(row.util), Table::FmtPct(m.CommitRate()),
           Table::FmtInt((long long)m.rejected),
           Table::FmtUs(m.latency_all.Percentile(50)),
           Table::FmtUs(m.latency_all.Percentile(99)),
           Table::FmtUs(m.user_latency.Percentile(50)),
           Table::FmtUs(m.user_latency.Percentile(99)),
           finished ? Table::FmtPct(double(row.stats.speculated) / finished)
                    : "-"});

      MetricsJson::Point point(
          "offered=" + Table::Fmt(rate * 10, 0) +
          (sla_admission ? " sla-1s" : " admission-off"));
      point.Param("offered_per_s", rate * 10);
      point.Param("admission",
                  std::string(sla_admission ? "sla-1s" : "off"));
      point.Scalar("max_replica_utilization", row.util);
      point.Metrics(m, kRun);
      point.Speculation(row.stats);
      json.Add(std::move(point));
    }
  }
  table.Print(
      "F9: CPU saturation sweep (1ms/msg replicas, 250ms deadline, thr 0.9)",
      true);
  ExportMetricsJson(opts, json);
  return 0;
}
