// Experiment F10 — availability through a replica crash and master failover.
//
// Every key is mastered at us-east (DC 1). At t=20s the DC 1 replica
// crashes (volatile state lost, messages dropped); at t=50s it restarts,
// replays its WAL, and catches up via anti-entropy. An 80s closed-loop
// workload runs through the outage on two stacks:
//
//   * MDCC + PLANET, with per-record master failover (500ms timeout) and
//     dead-DC-aware prediction: commits continue through the outage — the
//     fast path needs no master, and classic rounds re-route to the epoch-1
//     master (DC 2). Only DC 1's own clients see unavailability (their
//     local reads time out).
//   * 2PC, where every prepare/commit goes through the crashed master:
//     commits stall globally until the restart; transactions burn their
//     full timeout before reporting unavailable.
//
// Per-4s window: committed / unavailable counts and definitive-latency
// percentiles. The 2PC rows flatline to zero commits during the outage
// while the MDCC rows dip only for DC 1's client share — the availability
// argument for quorum commit protocols, reproduced end to end.
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "harness/sweep.h"

using namespace planet;

namespace {

constexpr Duration kWindow = Seconds(4);
constexpr Duration kTotal = Seconds(80);
constexpr int kWindows = int(kTotal / kWindow);
constexpr Duration kCrashAt = Seconds(20);
constexpr Duration kRestartAt = Seconds(50);
constexpr DcId kMasterDc = 1;  // us-east masters every key

struct F10Result {
  std::string stack;
  std::vector<RunMetrics> windows;
  RunMetrics all;
  bool converged = false;
  uint64_t failovers = 0;           // MDCC: client-side mastership bumps
  uint64_t stale_epoch_rejects = 0; // MDCC: replica-side stale-epoch drops
  uint64_t wal_entries = 0;         // WAL length at the restarted replica
};

WorkloadConfig MakeWorkload() {
  WorkloadConfig wl;
  wl.num_keys = 20000;
  wl.reads_per_txn = 1;
  wl.writes_per_txn = 2;
  return wl;
}

FaultSchedule MakeFaults() {
  FaultSchedule faults;
  faults.CrashReplica(kCrashAt, kMasterDc).RestartReplica(kRestartAt, kMasterDc);
  return faults;
}

/// Files each result into the 4 s window of simulated time it finished in.
auto WindowSink(F10Result& result, const Simulator& sim) {
  return [&result, &sim](const TxnResult& r) {
    int w = int(sim.Now() / kWindow);
    if (w >= 0 && w < kWindows) result.windows[size_t(w)].Record(r);
  };
}

F10Result RunPlanet() {
  ClusterOptions options;
  options.seed = 101;
  options.clients_per_dc = 2;
  options.recovery_period = Seconds(2);
  options.mdcc.master_dc = kMasterDc;
  options.mdcc.txn_timeout = Seconds(5);
  options.mdcc.read_timeout = Seconds(1);
  options.mdcc.master_failover_timeout = Millis(500);
  options.planet.dead_after = Millis(500);
  options.faults = MakeFaults();
  Cluster cluster(options);

  WorkloadConfig wl = MakeWorkload();
  F10Result result;
  result.stack = "planet";
  result.windows.resize(size_t(kWindows));

  result.all = bench::Drive(
      cluster, kTotal, LoadGenerator::Options{},
      [&](int i, Rng rng) {
        return MakePlanetRunner(cluster.planet_client(i), wl, rng,
                                PlanetRunnerPolicy{});
      },
      WindowSink(result, cluster.sim()));

  for (int i = 0; i < cluster.num_clients(); ++i) {
    result.failovers += cluster.client(i)->failovers();
  }
  for (DcId dc = 0; dc < cluster.num_dcs(); ++dc) {
    result.stale_epoch_rejects += cluster.replica(dc)->stale_epoch_rejects();
  }
  result.wal_entries = cluster.replica(kMasterDc)->store().wal().size();
  result.converged = cluster.ReplicasConverged();
  return result;
}

F10Result RunTpc() {
  TpcClusterOptions options;
  options.seed = 101;
  options.clients_per_dc = 2;
  options.tpc.master_dc = kMasterDc;
  options.tpc.txn_timeout = Seconds(5);
  options.tpc.read_timeout = Seconds(1);
  options.faults = MakeFaults();
  TpcCluster cluster(options);

  WorkloadConfig wl = MakeWorkload();
  F10Result result;
  result.stack = "2pc";
  result.windows.resize(size_t(kWindows));

  result.all = bench::Drive(
      cluster, kTotal, LoadGenerator::Options{},
      [&](int i, Rng rng) {
        return MakeTpcRunner(cluster.client(i), wl, rng);
      },
      WindowSink(result, cluster.sim()));
  // 2PC has no anti-entropy: replication the master missed while down is
  // gone for good, so convergence is reported, not asserted.
  result.converged = cluster.ReplicasConverged();
  return result;
}

const char* WindowTag(int w) {
  SimTime start = w * kWindow;
  if (start >= kCrashAt && start < kRestartAt) return "DOWN";
  if (start >= kRestartAt && start < kRestartAt + Seconds(8)) return "catchup";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  SweepOptions opts = ParseSweepArgs(argc, argv, "bench_f10_failover");

  std::vector<std::function<F10Result()>> points;
  points.push_back([] { return RunPlanet(); });
  points.push_back([] { return RunTpc(); });

  SweepRunner runner(opts);
  std::vector<F10Result> results = runner.Run(std::move(points));

  MetricsJson json("f10_failover");
  for (const F10Result& r : results) {
    Table table({"window", "phase", "txns", "committed", "unavailable",
                 "aborted", "commit%", "final p50", "final p99"});
    for (int w = 0; w < kWindows; ++w) {
      const RunMetrics& m = r.windows[size_t(w)];
      table.AddRow(
          {std::to_string(w * 4) + "-" + std::to_string(w * 4 + 4) + "s",
           WindowTag(w), Table::FmtInt((long long)m.finished()),
           Table::FmtInt((long long)m.committed),
           Table::FmtInt((long long)m.unavailable),
           Table::FmtInt((long long)m.aborted), Table::FmtPct(m.CommitRate()),
           Table::FmtUs(m.latency_all.Percentile(50)),
           Table::FmtUs(m.latency_all.Percentile(99))});

      MetricsJson::Point point(r.stack + " window=" + std::to_string(w * 4) +
                               "-" + std::to_string(w * 4 + 4) + "s");
      point.Param("stack", r.stack);
      point.Param("window_start_s", (long long)(w * 4));
      point.Param("phase", WindowTag(w));
      point.Metrics(m, kWindow);
      json.Add(std::move(point));
    }
    table.Print("F10 [" + r.stack +
                    "]: us-east replica crash t=20s, restart t=50s "
                    "(every key mastered at us-east)",
                true);

    MetricsJson::Point overall(r.stack + " overall");
    overall.Param("stack", r.stack);
    overall.Scalar("replicas_converged", r.converged ? 1 : 0);
    if (r.stack == "planet") {
      overall.Scalar("failovers", double(r.failovers));
      overall.Scalar("stale_epoch_rejects", double(r.stale_epoch_rejects));
      overall.Scalar("wal_entries_at_master", double(r.wal_entries));
    }
    overall.Metrics(r.all, kTotal);
    json.Add(std::move(overall));
  }

  Table verdict({"stack", "committed", "unavailable", "commit%", "converged",
                 "failovers"});
  for (const F10Result& r : results) {
    verdict.AddRow({r.stack, Table::FmtInt((long long)r.all.committed),
                    Table::FmtInt((long long)r.all.unavailable),
                    Table::FmtPct(r.all.CommitRate()),
                    r.converged ? "yes" : "NO",
                    r.stack == "planet" ? Table::FmtInt((long long)r.failovers)
                                        : std::string("-")});
  }
  verdict.Print("F10: availability through crash + failover + recovery");

  ExportMetricsJson(opts, json);
  return 0;
}
