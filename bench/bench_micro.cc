// Micro-benchmark / perf-regression harness for the hot-path primitives.
//
// Unlike the experiment binaries (simulated time), this harness measures
// *wall-clock* cost of the simulator core and its main users: the event
// loop, the network fabric, store option processing, the likelihood
// estimator, and an end-to-end simulated transaction. It is the repo's
// wall-clock trajectory: `--json` writes BENCH_micro.json, and the CI
// perf-smoke job compares a fresh run against the committed baseline
// (tools/perf/check_perf_regression.py, >2.5x ns/op fails).
//
// Methodology: every component runs `--reps` repetitions of a fixed
// operation count and reports the *best* repetition (minimum wall time), the
// standard trick to strip scheduler noise from a shared CI machine. Headline
// metrics are simulator events/sec and network sends/sec — the two numbers
// the zero-allocation hot path PR is gated on.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "harness/cluster.h"
#include "harness/metrics_json.h"
#include "harness/sharded_cluster.h"
#include "planet/predictor.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/store.h"

namespace planet {
namespace {

using Clock = std::chrono::steady_clock;

struct ComponentResult {
  std::string name;
  uint64_t ops = 0;       // operations per repetition
  int reps = 0;           // repetitions measured
  double best_sec = 0.0;  // fastest repetition
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
};

/// Runs `body` (which performs `ops` operations) `reps` times and keeps the
/// fastest repetition.
template <typename Body>
ComponentResult Measure(const std::string& name, uint64_t ops, int reps,
                        Body&& body) {
  ComponentResult r;
  r.name = name;
  r.ops = ops;
  r.reps = reps;
  double best = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = Clock::now();
    body();
    auto stop = Clock::now();
    double sec = std::chrono::duration<double>(stop - start).count();
    if (best < 0.0 || sec < best) best = sec;
  }
  r.best_sec = best;
  // A repetition faster than the clock resolution measures as 0 s; dividing
  // by it would publish inf ops/s into BENCH_micro.json. Report 0 instead —
  // the regression gate (tools/perf/check_perf_regression.py) skips
  // components with ns_per_op == 0, same as it skips new ones.
  if (best > 0.0) {
    r.ns_per_op = best * 1e9 / double(ops);
    r.ops_per_sec = double(ops) / best;
  }
  std::printf("%-28s %12.1f ns/op %16.0f ops/s  (%d reps x %llu ops)\n",
              name.c_str(), r.ns_per_op, r.ops_per_sec, reps,
              static_cast<unsigned long long>(ops));
  std::fflush(stdout);
  return r;
}

/// Keep the optimizer from discarding a value without google-benchmark.
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// --- components -----------------------------------------------------------

ComponentResult BenchSimScheduleRun(uint64_t ops, int reps) {
  // Batch of 256 pending events: the queue depth a live experiment actually
  // carries (in-flight WAN messages + timers for a 5-DC cluster).
  return Measure("sim_schedule_run", ops, reps, [ops] {
    Simulator sim;
    uint64_t count = 0;
    constexpr uint64_t kBatch = 256;
    for (uint64_t done = 0; done < ops; done += kBatch) {
      uint64_t n = std::min(kBatch, ops - done);
      for (uint64_t i = 0; i < n; ++i) {
        sim.Schedule(Duration(i & 255), [&count] { ++count; });
      }
      sim.Run();
    }
    DoNotOptimize(count);
  });
}

/// Self-refilling event pump: every fired event schedules its successor, so
/// each shard carries a steady 256-deep queue without any cross-shard
/// traffic — the shape of a sharded drain (DrainShards, one thread per
/// shard, no synchronization between start and join).
struct ShardPump {
  Simulator* sim;
  uint64_t* remaining;
  void operator()() {
    if (*remaining == 0) return;
    --*remaining;
    sim->Schedule(1, ShardPump{sim, remaining});
  }
};

ComponentResult BenchShardedRun(int shards, uint64_t ops, int reps,
                                const char* name) {
  // Aggregate throughput of `shards` worker threads each draining an
  // independent event stream of ops/shards events. On a multi-core host
  // this scales with min(shards, cores); the committed baseline records
  // what the CI machine actually provides.
  return Measure(name, ops, reps, [shards, ops] {
    uint64_t per_shard = ops / static_cast<uint64_t>(shards);
    std::vector<std::unique_ptr<Simulator>> sims;
    std::vector<uint64_t> remaining(static_cast<size_t>(shards), per_shard);
    for (int s = 0; s < shards; ++s) {
      sims.push_back(std::make_unique<Simulator>());
      Simulator* sim = sims.back().get();
      uint64_t* rem = &remaining[static_cast<size_t>(s)];
      constexpr uint64_t kBatch = 256;
      for (uint64_t i = 0; i < std::min(kBatch, per_shard); ++i) {
        sim->Schedule(Duration(i & 255), ShardPump{sim, rem});
      }
      sim->DetachFromThread();
    }
    DrainShards(shards, [&sims](int s) {
      // The pump closure is 16 bytes: if it ever stops fitting inline the
      // whole measurement silently becomes an allocator benchmark. The
      // counter is thread-local, so this delta is exactly this shard's.
      uint64_t before = InlineFunctionHeapFallbacks();
      Simulator* sim = sims[static_cast<size_t>(s)].get();
      sim->Run();
      sim->DetachFromThread();
      PLANET_CHECK(InlineFunctionHeapFallbacks() == before);
    });
    uint64_t events = 0;
    for (const auto& sim : sims) events += sim->events_processed();
    DoNotOptimize(events);
  });
}

ComponentResult BenchSimScheduleCancel(uint64_t ops, int reps) {
  // The resolve-timer pattern: schedule a far-future timer, cancel it almost
  // immediately. Stresses Cancel cost and cancelled-event memory retention.
  return Measure("sim_schedule_cancel", ops, reps, [ops] {
    Simulator sim;
    constexpr uint64_t kBatch = 1024;
    std::vector<EventId> ids;
    ids.reserve(kBatch);
    uint64_t fired = 0;
    for (uint64_t done = 0; done < ops; done += kBatch) {
      uint64_t n = std::min(kBatch, ops - done);
      for (uint64_t i = 0; i < n; ++i) {
        ids.push_back(sim.Schedule(Duration(1000000 + i), [&fired] {
          ++fired;
        }));
      }
      for (EventId id : ids) sim.Cancel(id);
      ids.clear();
    }
    sim.Run();
    DoNotOptimize(fired);
  });
}

ComponentResult BenchNetSend(uint64_t ops, int reps, double loss_prob,
                             const char* name) {
  return Measure(name, ops, reps, [ops, loss_prob] {
    Simulator sim;
    Network net(&sim, Rng(7));
    net.RegisterNode(0, 0);
    net.RegisterNode(1, 1);
    LinkParams link;
    link.median_one_way = Millis(40);
    link.loss_prob = loss_prob;
    net.SetLink(0, 1, link);
    uint64_t delivered = 0;
    for (uint64_t i = 0; i < ops; ++i) {
      net.Send(0, 1, [&delivered] { ++delivered; });
      sim.Run();
    }
    DoNotOptimize(delivered);
  });
}

ComponentResult BenchStoreAcceptApply(uint64_t ops, int reps) {
  return Measure("store_accept_apply", ops, reps, [ops] {
    Store store;
    TxnId txn = 1;
    Version version = 0;
    for (uint64_t i = 0; i < ops; ++i) {
      WriteOption o;
      o.txn = txn++;
      o.key = 7;
      o.kind = OptionKind::kPhysical;
      o.read_version = version;
      o.new_value = Value(txn);
      store.AcceptOption(o);
      store.ApplyOption(o.txn, o.key);
      ++version;
    }
    DoNotOptimize(store.accepts());
  });
}

ComponentResult BenchStoreRead(uint64_t ops, int reps) {
  return Measure("store_read", ops, reps, [ops] {
    Store store;
    for (Key k = 0; k < 100000; ++k) store.SeedValue(k, Value(k));
    Rng rng(5);
    Value sum = 0;
    for (uint64_t i = 0; i < ops; ++i) {
      sum += store.Read(rng.Next() % 100000).value;
    }
    DoNotOptimize(sum);
  });
}

ComponentResult BenchRngNext(uint64_t ops, int reps) {
  return Measure("rng_next", ops, reps, [ops] {
    Rng rng(3);
    uint64_t acc = 0;
    for (uint64_t i = 0; i < ops; ++i) acc ^= rng.Next();
    DoNotOptimize(acc);
  });
}

ComponentResult BenchZipf(uint64_t ops, int reps) {
  return Measure("zipf_next_1m", ops, reps, [ops] {
    Rng rng(4);
    ZipfGenerator zipf(1000000, 0.99);
    uint64_t acc = 0;
    for (uint64_t i = 0; i < ops; ++i) acc += zipf.Next(rng);
    DoNotOptimize(acc);
  });
}

ComponentResult BenchHistogramRecord(uint64_t ops, int reps) {
  return Measure("histogram_record", ops, reps, [ops] {
    Histogram h;
    Rng rng(1);
    for (uint64_t i = 0; i < ops; ++i) {
      h.Record(int64_t(rng.Next() % 1000000));
    }
    DoNotOptimize(h.count());
  });
}

ComponentResult BenchHistogramPercentile(uint64_t ops, int reps) {
  return Measure("histogram_percentile", ops, reps, [ops] {
    Histogram h;
    Rng rng(2);
    for (int i = 0; i < 100000; ++i) h.Record(int64_t(rng.Next() % 1000000));
    int64_t acc = 0;
    for (uint64_t i = 0; i < ops; ++i) acc += h.Percentile(99);
    DoNotOptimize(acc);
  });
}

ComponentResult BenchLikelihoodEstimate(uint64_t ops, int reps) {
  return Measure("likelihood_estimate", ops, reps, [ops] {
    MdccConfig mdcc;
    PlanetConfig planet_cfg;
    LatencyModel latency(5, Millis(100));
    ConflictModel conflict(0.05);
    Rng rng(6);
    for (int i = 0; i < 1000; ++i) {
      conflict.RecordVote(rng.Next() % 100, rng.Bernoulli(0.8));
      latency.RecordRtt(0, DcId(i % 5), Millis(40 + i % 100));
    }
    CommitLikelihoodEstimator estimator(mdcc, planet_cfg, &latency, &conflict);
    TxnView view;
    view.phase = TxnPhase::kProposing;
    for (int k = 0; k < 3; ++k) {
      OptionProgress op;
      op.option.key = Key(k);
      op.votes.assign(5, -1);
      op.votes[0] = 1;
      op.accepts = 1;
      view.options.push_back(op);
    }
    double acc = 0;
    for (uint64_t i = 0; i < ops; ++i) acc += estimator.Estimate(view);
    DoNotOptimize(acc);
  });
}

ComponentResult BenchEndToEndTxn(uint64_t ops, int reps) {
  // Full simulated RMW transaction on the 5-DC WAN including the PLANET
  // layer. Measures simulator-side cost per transaction (not simulated
  // latency).
  return Measure("e2e_planet_txn", ops, reps, [ops] {
    ClusterOptions options;
    options.seed = 17;
    Cluster cluster(options);
    PlanetClient* client = cluster.planet_client(0);
    Key key = 0;
    uint64_t committed = 0;
    for (uint64_t i = 0; i < ops; ++i) {
      PlanetTransaction txn = client->Begin();
      bool done = false;
      txn.OnFinal([&done](Status) { done = true; });
      txn.Read(key, [txn, key](Status, Value v) mutable {
        (void)txn.Write(key, v + 1);
        txn.Commit([](const Outcome&) {});
      });
      ++key;
      cluster.Drain();
      if (done) ++committed;
    }
    DoNotOptimize(committed);
  });
}

void Usage(const char* argv0) {
  std::printf(
      "usage: %s [--json PATH] [--reps N] [--quick]\n"
      "  --json PATH  write BENCH_micro.json-style document to PATH\n"
      "  --reps N     repetitions per component (default 5, best counts)\n"
      "  --quick      1/10th operation counts (CI smoke)\n",
      argv0);
}

}  // namespace
}  // namespace planet

int main(int argc, char** argv) {
  using namespace planet;
  std::string json_path;
  int reps = 5;
  uint64_t scale = 10;  // divided by 10: --quick drops it to 1
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
      if (reps < 1) reps = 1;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      scale = 1;
    } else {
      Usage(argv[0]);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }

  std::printf("bench_micro: %d reps/component, scale %llu/10\n\n", reps,
              static_cast<unsigned long long>(scale));

  std::vector<ComponentResult> results;
  results.push_back(BenchSimScheduleRun(200000 * scale, reps));
  results.push_back(
      BenchShardedRun(1, 200000 * scale, reps, "sim_sharded_run_1"));
  results.push_back(
      BenchShardedRun(8, 200000 * scale, reps, "sim_sharded_run_8"));
  results.push_back(BenchSimScheduleCancel(200000 * scale, reps));
  results.push_back(BenchNetSend(40000 * scale, reps, 0.0, "net_send"));
  results.push_back(BenchNetSend(40000 * scale, reps, 0.05, "net_send_loss"));
  results.push_back(BenchStoreAcceptApply(100000 * scale, reps));
  results.push_back(BenchStoreRead(200000 * scale, reps));
  results.push_back(BenchRngNext(1000000 * scale, reps));
  results.push_back(BenchZipf(400000 * scale, reps));
  results.push_back(BenchHistogramRecord(1000000 * scale, reps));
  results.push_back(BenchHistogramPercentile(20000 * scale, reps));
  results.push_back(BenchLikelihoodEstimate(20000 * scale, reps));
  results.push_back(BenchEndToEndTxn(2000 * scale, reps));

  double events_per_sec = 0.0;
  double sends_per_sec = 0.0;
  double sharded8_events_per_sec = 0.0;
  for (const ComponentResult& r : results) {
    if (r.name == "sim_schedule_run") events_per_sec = r.ops_per_sec;
    if (r.name == "net_send") sends_per_sec = r.ops_per_sec;
    if (r.name == "sim_sharded_run_8") sharded8_events_per_sec = r.ops_per_sec;
  }
  std::printf(
      "\nheadline: %.0f simulator events/s, %.0f network sends/s, "
      "%.0f sharded events/s (8 shards aggregate)\n",
      events_per_sec, sends_per_sec, sharded8_events_per_sec);

  if (!json_path.empty()) {
    MetricsJson json("micro");
    for (const ComponentResult& r : results) {
      MetricsJson::Point point(r.name);
      point.Param("ops", static_cast<long long>(r.ops));
      point.Param("reps", static_cast<long long>(r.reps));
      point.Scalar("ns_per_op", r.ns_per_op);
      point.Scalar("ops_per_sec", r.ops_per_sec);
      point.Scalar("best_sec", r.best_sec);
      json.Add(std::move(point));
    }
    MetricsJson::Point headline("headline");
    // Cores on the machine that produced this document: the regression gate
    // skips sim_sharded_run_N comparisons when the candidate machine has
    // fewer than N cores (the aggregate number measures the scheduler, not
    // the code, there).
    headline.Scalar("hw_concurrency",
                    double(std::thread::hardware_concurrency()));
    headline.Scalar("simulator_events_per_sec", events_per_sec);
    headline.Scalar("network_sends_per_sec", sends_per_sec);
    headline.Scalar("sharded_events_per_sec_8", sharded8_events_per_sec);
    json.Add(std::move(headline));
    Status st = json.WriteFile(json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_micro: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
