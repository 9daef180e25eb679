// Shared plumbing for the experiment binaries: spin up a cluster, drive a
// workload on every client, collect RunMetrics.
#ifndef PLANET_BENCH_BENCH_UTIL_H_
#define PLANET_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <memory>
#include <vector>

#include "harness/cluster.h"
#include "harness/metrics.h"
#include "workload/runners.h"

namespace planet {
namespace bench {

/// Stamps a run's wall-clock perf fields (docs/PERFORMANCE.md). Scoped to
/// one cluster drive: construct before starting the generators, call
/// Stamp() after Drain(). Wall clocks are fine here — bench/ is host-side
/// code — but must never leak into simulated-world sources (planet_lint).
class PerfStamp {
 public:
  explicit PerfStamp(const Simulator& sim)
      : sim_(sim),
        events_before_(sim.events_processed()),
        start_(std::chrono::steady_clock::now()) {}

  void Stamp(RunMetrics& metrics) const {
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start_;
    metrics.wall_seconds = wall.count();
    metrics.events_processed = sim_.events_processed() - events_before_;
  }

 private:
  const Simulator& sim_;
  uint64_t events_before_;
  std::chrono::steady_clock::time_point start_;
};

/// Drives one runner per client of `cluster` for `run_time` (simulated)
/// and returns aggregated metrics. `make_runner(i, rng)` builds client i's
/// runner; `load` selects closed- vs open-loop.
template <typename ClusterT, typename MakeRunner>
RunMetrics Drive(ClusterT& cluster, Duration run_time,
                 const LoadGenerator::Options& load,
                 const MakeRunner& make_runner) {
  RunMetrics metrics;
  PerfStamp perf(cluster.sim());
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    auto gen = std::make_unique<LoadGenerator>(
        &cluster.sim(), cluster.ForkRng(7000 + i),
        make_runner(i, cluster.ForkRng(8000 + i)), load);
    gen->SetResultSink(metrics.Sink());
    gen->Start(cluster.sim().Now() + run_time);
    generators.push_back(std::move(gen));
  }
  cluster.Drain();
  perf.Stamp(metrics);
  return metrics;
}

/// Drives `wl` on every PLANET client of `cluster`.
inline RunMetrics RunPlanet(Cluster& cluster, const WorkloadConfig& wl,
                            Duration run_time,
                            PlanetRunnerPolicy policy = {},
                            LoadGenerator::Options load = {}) {
  return Drive(cluster, run_time, load, [&](int i, Rng rng) {
    return MakePlanetRunner(cluster.planet_client(i), wl, rng, policy);
  });
}

/// Same, over the raw MDCC coordinator.
inline RunMetrics RunMdcc(Cluster& cluster, const WorkloadConfig& wl,
                          Duration run_time,
                          LoadGenerator::Options load = {}) {
  return Drive(cluster, run_time, load, [&](int i, Rng rng) {
    return MakeMdccRunner(cluster.client(i), wl, rng);
  });
}

/// Same, over the 2PC baseline.
inline RunMetrics RunTpc(TpcCluster& cluster, const WorkloadConfig& wl,
                         Duration run_time,
                         LoadGenerator::Options load = {}) {
  return Drive(cluster, run_time, load, [&](int i, Rng rng) {
    return MakeTpcRunner(cluster.client(i), wl, rng);
  });
}

}  // namespace bench
}  // namespace planet

#endif  // PLANET_BENCH_BENCH_UTIL_H_
