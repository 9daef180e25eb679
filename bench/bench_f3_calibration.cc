// Experiment F3 — commit-likelihood prediction calibration.
//
// Mixed-contention zipfian workload; the predictor's estimates are sampled
// at two points — the prior (at submit, before any message) and mid-flight
// (after ~40% of votes) — and compared against realized outcomes as a
// reliability diagram. Expected shape: observed commit rate tracks the
// predicted bucket (near-diagonal), mid-flight tighter than prior, low ECE.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "harness/sweep.h"

using namespace planet;

namespace {

WorkloadConfig MakeWorkload() {
  WorkloadConfig wl;
  wl.num_keys = 400;          // zipfian over a smallish space: per-key
  wl.dist = KeyDist::kZipf;   // conflict rates span the whole [0,1] range
  wl.zipf_theta = 0.95;
  wl.reads_per_txn = 1;
  wl.writes_per_txn = 2;
  return wl;
}

struct F3Result {
  CalibrationTracker prior{10};
  CalibrationTracker midflight{10};
  PlanetStats stats;
};

}  // namespace

int main(int argc, char** argv) {
  SweepOptions opts = ParseSweepArgs(argc, argv, "bench_f3_calibration");

  std::vector<std::function<F3Result()>> points;
  // Point 0: the calibrated option-level model (prior + mid-flight).
  points.push_back([] {
    ClusterOptions options;
    options.seed = 31;
    options.clients_per_dc = 3;
    Cluster cluster(options);

    F3Result result;
    PlanetRunnerPolicy policy;
    policy.midflight_tracker = &result.midflight;
    bench::RunPlanet(cluster, MakeWorkload(), Seconds(600), policy);
    result.prior = cluster.context().stats().calibration;
    result.stats = cluster.context().stats();
    return result;
  });
  // Point 1: ablation — the naive vote-level model under the independence
  // assumption. Correlated rejections make it badly miscalibrated; this is
  // the design-choice evidence.
  points.push_back([] {
    ClusterOptions options;
    options.seed = 31;
    options.clients_per_dc = 3;
    options.planet.use_option_level_model = false;
    Cluster cluster(options);

    F3Result result;
    bench::RunPlanet(cluster, MakeWorkload(), Seconds(600));
    result.prior = cluster.context().stats().calibration;
    result.stats = cluster.context().stats();
    return result;
  });

  SweepRunner runner(opts);
  std::vector<F3Result> results = runner.Run(std::move(points));
  const CalibrationTracker& prior = results[0].prior;
  const CalibrationTracker& midflight = results[0].midflight;

  Table table({"bucket", "prior n", "prior pred", "prior obs", "mid n",
               "mid pred", "mid obs"});
  auto pb = prior.Buckets();
  auto mb = midflight.Buckets();
  for (size_t i = 0; i < pb.size(); ++i) {
    auto obs = [](const CalibrationTracker::Bucket& b) {
      return b.total == 0 ? std::string("-")
                          : Table::Fmt(double(b.committed) / double(b.total), 3);
    };
    table.AddRow({Table::Fmt(pb[i].lo, 1) + "-" + Table::Fmt(pb[i].hi, 1),
                  Table::FmtInt((long long)pb[i].total),
                  pb[i].total ? Table::Fmt(pb[i].mean_predicted, 3) : "-",
                  obs(pb[i]),
                  Table::FmtInt((long long)mb[i].total),
                  mb[i].total ? Table::Fmt(mb[i].mean_predicted, 3) : "-",
                  obs(mb[i])});
  }
  table.Print("F3: commit-likelihood calibration (reliability diagram)",
              true);

  std::printf(
      "\nExpected calibration error: prior=%.4f  mid-flight=%.4f  "
      "(n=%llu / %llu)\n",
      prior.ExpectedCalibrationError(), midflight.ExpectedCalibrationError(),
      static_cast<unsigned long long>(prior.total()),
      static_cast<unsigned long long>(midflight.total()));
  const PlanetStats& stats = results[0].stats;
  std::printf("Workload: committed=%llu aborted=%llu (commit rate %.1f%%)\n",
              static_cast<unsigned long long>(stats.committed),
              static_cast<unsigned long long>(stats.aborted),
              stats.CommitRate() * 100.0);

  const CalibrationTracker& naive_prior = results[1].prior;
  std::printf(
      "\nAblation (vote-level model, independence assumption): prior "
      "ECE=%.4f over n=%llu  -> option-level calibration wins by %.1fx\n",
      naive_prior.ExpectedCalibrationError(),
      static_cast<unsigned long long>(naive_prior.total()),
      naive_prior.ExpectedCalibrationError() /
          std::max(1e-9, prior.ExpectedCalibrationError()));

  MetricsJson json("f3_calibration");
  {
    MetricsJson::Point point("option-level");
    point.Param("model", std::string("option-level"));
    point.Scalar("committed", double(stats.committed));
    point.Scalar("aborted", double(stats.aborted));
    point.Scalar("commit_rate", stats.CommitRate());
    point.Calibration(prior);
    json.Add(std::move(point));
  }
  {
    MetricsJson::Point point("option-level mid-flight");
    point.Param("model", std::string("option-level"));
    point.Param("sample", std::string("midflight-0.4"));
    point.Calibration(midflight);
    json.Add(std::move(point));
  }
  {
    MetricsJson::Point point("vote-level ablation");
    point.Param("model", std::string("vote-level"));
    point.Calibration(naive_prior);
    json.Add(std::move(point));
  }
  ExportMetricsJson(opts, json);
  return 0;
}
