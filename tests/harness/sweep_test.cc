// Tests of the sweep harness: SweepRunner determinism across thread counts
// (including a real mini-cluster sweep), exception delivery, genuine
// concurrency, MetricsJson rendering and file round-trip, and the
// deterministic JSON number/string formatting. The threaded cases also run
// under TSan (the CI tsan job).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/cluster.h"
#include "harness/metrics.h"
#include "harness/metrics_json.h"
#include "harness/sweep.h"
#include "workload/runners.h"

namespace planet {
namespace {

/// One real sweep point: a tiny MDCC cluster driven for a few simulated
/// seconds. Deterministic for a fixed seed.
RunMetrics RunMiniCluster(uint64_t seed, uint64_t keys) {
  ClusterOptions options;
  options.seed = seed;
  options.clients_per_dc = 1;
  Cluster cluster(options);

  WorkloadConfig wl;
  wl.num_keys = keys;
  wl.reads_per_txn = 1;
  wl.writes_per_txn = 1;

  RunMetrics metrics;
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    auto gen = std::make_unique<LoadGenerator>(
        &cluster.sim(), cluster.ForkRng(100 + i),
        MakeMdccRunner(cluster.client(i), wl, cluster.ForkRng(200 + i)),
        LoadGenerator::Options{});
    gen->SetResultSink(metrics.Sink());
    gen->Start(Seconds(5));
    generators.push_back(std::move(gen));
  }
  cluster.Drain();
  return metrics;
}

std::vector<std::function<RunMetrics()>> MiniSweepPoints() {
  std::vector<std::function<RunMetrics()>> points;
  for (uint64_t keys : {1000u, 100u, 10u, 4u}) {
    points.push_back([keys] { return RunMiniCluster(17, keys); });
  }
  return points;
}

/// Serializes a sweep's results exactly as a bench would, so comparisons
/// catch any field-level divergence.
std::string RenderSweep(const std::vector<RunMetrics>& results) {
  MetricsJson json("mini_sweep");
  for (size_t i = 0; i < results.size(); ++i) {
    MetricsJson::Point point("point" + std::to_string(i));
    point.Param("index", static_cast<long long>(i));
    point.Metrics(results[i], Seconds(5));
    json.Add(std::move(point));
  }
  return json.ToJson();
}

TEST(SweepRunner, SameSeedTwiceIsByteIdentical) {
  SweepOptions opts;
  SweepRunner runner(opts);
  std::string first = RenderSweep(runner.Run(MiniSweepPoints()));
  std::string second = RenderSweep(runner.Run(MiniSweepPoints()));
  EXPECT_EQ(first, second);
}

TEST(SweepRunner, ParallelMatchesSerialByteForByte) {
  // The tentpole guarantee: --threads N never changes any output byte.
  SweepOptions serial;
  serial.threads = 1;
  std::string serial_doc =
      RenderSweep(SweepRunner(serial).Run(MiniSweepPoints()));

  for (int threads : {2, 8}) {
    SweepOptions parallel;
    parallel.threads = threads;
    std::string parallel_doc =
        RenderSweep(SweepRunner(parallel).Run(MiniSweepPoints()));
    EXPECT_EQ(serial_doc, parallel_doc) << "threads=" << threads;
  }
}

TEST(SweepRunner, ResultsInSubmissionOrder) {
  std::vector<std::function<int()>> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back([i] { return i * 3; });
  }
  SweepOptions opts;
  opts.threads = 8;
  std::vector<int> results = SweepRunner(opts).Run(std::move(points));
  ASSERT_EQ(results.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(results[size_t(i)], i * 3);
}

TEST(SweepRunner, ResultsLandInSubmissionOrderSlots) {
  // Point i returns only after every later point has, so the four points
  // finish in reverse order (which needs four threads at once); each result
  // still lands in its own point's slot.
  std::atomic<int> finished{0};
  std::vector<std::function<int()>> points;
  for (int i = 0; i < 4; ++i) {
    points.push_back([i, &finished] {
      while (finished.load() < 3 - i) std::this_thread::yield();
      ++finished;
      return i * i;
    });
  }
  SweepOptions opts;
  opts.threads = 4;
  std::vector<int> results = SweepRunner(opts).Run(std::move(points));
  EXPECT_EQ(results, (std::vector<int>{0, 1, 4, 9}));
  EXPECT_EQ(finished.load(), 4);
}

TEST(SweepRunner, MoreThreadsThanPointsIsFine) {
  // threads 0 counts as one thread.
  for (int threads : {0, 16}) {
    std::vector<std::function<int()>> points;
    points.push_back([] { return 7; });
    SweepOptions opts;
    opts.threads = threads;
    std::vector<int> results = SweepRunner(opts).Run(std::move(points));
    ASSERT_EQ(results.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(results[0], 7) << "threads=" << threads;
  }
}

TEST(SweepRunner, ThreadCountClampedToAtLeastOne) {
  // Zero or negative threads run every point, in order, on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {0, -3}) {
    std::vector<int> order;
    std::vector<std::function<int()>> points;
    for (int i = 0; i < 5; ++i) {
      points.push_back([i, caller, &order] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
        return i + 1;
      });
    }
    SweepOptions opts;
    opts.threads = threads;
    std::vector<int> results = SweepRunner(opts).Run(std::move(points));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}))
        << "threads=" << threads;
    EXPECT_EQ(results, (std::vector<int>{1, 2, 3, 4, 5}))
        << "threads=" << threads;
  }
}

TEST(SweepRunner, ThrowingPointLetsOthersRunAndLowestIndexIsRethrown) {
  // Points 3 and 7 throw. With threads running concurrently, point 3 waits
  // until point 7 has thrown, so the lowest index is not the first throw.
  for (int threads : {1, 4}) {
    std::atomic<int> ran{0};
    std::atomic<bool> seven_threw{false};
    std::vector<std::function<int()>> points;
    for (int i = 0; i < 10; ++i) {
      points.push_back([i, threads, &ran, &seven_threw]() -> int {
        ++ran;
        if (i == 3) {
          while (threads > 1 && !seven_threw.load()) std::this_thread::yield();
          throw std::runtime_error("point 3");
        }
        if (i == 7) {
          seven_threw.store(true);
          throw std::runtime_error("point 7");
        }
        return i;
      });
    }
    SweepOptions opts;
    opts.threads = threads;
    try {
      SweepRunner(opts).Run(std::move(points));
      ADD_FAILURE() << "threads=" << threads << ": nothing rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "point 3") << "threads=" << threads;
    }
    EXPECT_EQ(ran.load(), 10) << "threads=" << threads;
  }
}

TEST(SweepRunner, ParallelJobsActuallyOverlap) {
  // Four points that each wait until all four have started: the sweep
  // finishes only if four threads run them at once (a serial runner would
  // spin forever).
  std::atomic<int> started{0};
  std::vector<std::function<int()>> points;
  for (int i = 0; i < 4; ++i) {
    points.push_back([&started, i] {
      ++started;
      while (started.load() < 4) std::this_thread::yield();
      return i;
    });
  }
  SweepOptions opts;
  opts.threads = 4;
  std::vector<int> results = SweepRunner(opts).Run(std::move(points));
  EXPECT_EQ(results, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(started.load(), 4);
}

TEST(SweepRunner, EmptySweep) {
  SweepOptions opts;
  opts.threads = 4;
  std::vector<std::function<int()>> points;
  EXPECT_TRUE(SweepRunner(opts).Run(std::move(points)).empty());
}

TEST(SweepStress, FirstExceptionDeliveredUnderLoad) {
  SweepOptions opts;
  opts.threads = 4;
  SweepRunner runner(opts);
  std::atomic<int> ran{0};
  std::vector<std::function<int()>> points;
  for (int j = 0; j < 100; ++j) {
    points.push_back([&ran, j] {
      ran.fetch_add(1);
      if (j == 37) throw std::runtime_error("point 37");
      return j;
    });
  }
  EXPECT_THROW(runner.Run(points), std::runtime_error);
  EXPECT_EQ(ran.load(), 100);  // the other points still ran to completion
  // The runner keeps no error between sweeps: the next one runs clean.
  points.erase(points.begin() + 37);
  EXPECT_EQ(runner.Run(std::move(points)).size(), 99u);
  EXPECT_EQ(ran.load(), 199);
}

TEST(SweepStress, ThreadedRunMatchesSerialAtScale) {
  constexpr int kPoints = 200;
  std::vector<std::function<uint64_t()>> points;
  points.reserve(kPoints);
  for (int i = 0; i < kPoints; ++i) {
    points.push_back([i]() -> uint64_t {
      // Deterministic per-point work with data-dependent length.
      uint64_t acc = static_cast<uint64_t>(i);
      for (int k = 0; k < 1000 + (i % 7) * 500; ++k) {
        acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      return acc;
    });
  }

  SweepOptions serial;
  serial.threads = 1;
  auto expected = SweepRunner(serial).Run(points);

  SweepOptions threaded;
  threaded.threads = 8;
  auto actual = SweepRunner(threaded).Run(points);

  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "point " << i;
  }
}

TEST(MetricsJson, DocumentShapeAndOrder) {
  MetricsJson json("unit");
  MetricsJson::Point point("p0");
  point.Param("keys", 64LL);
  point.Param("stack", std::string("mdcc"));
  point.Param("rate", 2.5);
  point.Scalar("commit_rate", 0.75);
  Histogram h;
  h.Record(Millis(1));
  h.Record(Millis(3));
  point.Hist("latency", h);
  json.Add(std::move(point));

  EXPECT_EQ(json.num_points(), 1u);
  std::string doc = json.ToJson();
  EXPECT_NE(doc.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"label\": \"p0\""), std::string::npos);
  EXPECT_NE(doc.find("\"keys\": 64"), std::string::npos);
  EXPECT_NE(doc.find("\"stack\": \"mdcc\""), std::string::npos);
  EXPECT_NE(doc.find("\"rate\": 2.5"), std::string::npos);
  EXPECT_NE(doc.find("\"commit_rate\": 0.75"), std::string::npos);
  EXPECT_NE(doc.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"p50_us\": "), std::string::npos);
  // params come before scalars, scalars before histograms (insertion order).
  EXPECT_LT(doc.find("\"keys\""), doc.find("\"commit_rate\""));
  EXPECT_LT(doc.find("\"commit_rate\""), doc.find("\"latency\""));
}

TEST(MetricsJson, CalibrationBlock) {
  CalibrationTracker tracker(4);
  tracker.Record(0.9, true);
  tracker.Record(0.9, true);
  tracker.Record(0.1, false);
  MetricsJson json("unit");
  MetricsJson::Point point("cal");
  point.Calibration(tracker);
  json.Add(std::move(point));
  std::string doc = json.ToJson();
  EXPECT_NE(doc.find("\"calibration\""), std::string::npos);
  EXPECT_NE(doc.find("\"ece\""), std::string::npos);
  EXPECT_NE(doc.find("\"buckets\""), std::string::npos);
  EXPECT_NE(doc.find("\"mean_predicted\""), std::string::npos);
}

TEST(MetricsJson, WriteFileRoundTrips) {
  MetricsJson json("roundtrip");
  MetricsJson::Point point("p");
  point.Scalar("x", 1.5);
  json.Add(std::move(point));

  std::string path = testing::TempDir() + "/planet_metrics_json_test.json";
  ASSERT_TRUE(json.WriteFile(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json.ToJson() + "\n");
  std::remove(path.c_str());
}

TEST(MetricsJson, WriteFileToBadPathFails) {
  MetricsJson json("bad");
  EXPECT_FALSE(json.WriteFile("/nonexistent-dir-zz/x.json").ok());
}

TEST(MetricsJson, RenderingIsDeterministic) {
  auto build = [] {
    MetricsJson json("det");
    for (int i = 0; i < 3; ++i) {
      MetricsJson::Point point("p" + std::to_string(i));
      point.Param("i", static_cast<long long>(i));
      point.Scalar("v", 0.1 * i);
      json.Add(std::move(point));
    }
    return json.ToJson();
  };
  EXPECT_EQ(build(), build());
}

TEST(JsonFormat, QuoteEscapes) {
  EXPECT_EQ(json::Quote("plain"), "\"plain\"");
  EXPECT_EQ(json::Quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json::Quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json::Quote("a\nb"), "\"a\\nb\"");
}

TEST(JsonFormat, NumberFormatting) {
  EXPECT_EQ(json::Number(0), "0");
  EXPECT_EQ(json::Number(42), "42");
  EXPECT_EQ(json::Number(-7), "-7");
  EXPECT_EQ(json::Number(2.5), "2.5");
  EXPECT_EQ(json::Number(1e15), "1000000000000000");
  // Non-finite values must still produce valid JSON.
  EXPECT_EQ(json::Number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json::Number(std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace planet
