#include "workload/workload.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace planet {

namespace {

/// Keys shard `shard` owns out of the first `n` keys under round-robin
/// striping: |{r : r * num_shards + shard < n}|.
uint64_t StripeSpan(uint64_t n, int num_shards, int shard) {
  uint64_t s = static_cast<uint64_t>(shard);
  uint64_t stride = static_cast<uint64_t>(num_shards);
  return n > s ? (n - s + stride - 1) / stride : 0;
}

}  // namespace

Status ValidateWorkload(const WorkloadConfig& config) {
  auto invalid = [](const auto&... parts) {
    std::ostringstream msg;
    (msg << ... << parts);
    return Status::InvalidArgument(msg.str());
  };
  if (config.num_keys < 1) {
    return invalid("the key space needs at least one key");
  }
  if (!(config.zipf_theta >= 0.0)) {
    return invalid("zipf theta must be >= 0, got ", config.zipf_theta);
  }
  if (!(config.hot_fraction >= 0.0 && config.hot_fraction <= 1.0)) {
    return invalid("hot fraction must be in [0, 1], got ",
                   config.hot_fraction);
  }
  if (config.reads_per_txn < 0 || config.writes_per_txn < 0) {
    return invalid("reads and writes per transaction must be >= 0, got ",
                   config.reads_per_txn, " and ", config.writes_per_txn);
  }
  if (config.num_shards < 1 || config.shard < 0 ||
      config.shard >= config.num_shards) {
    return invalid("shard ", config.shard, " of ", config.num_shards,
                   " does not exist");
  }
  const uint64_t span =
      StripeSpan(config.num_keys, config.num_shards, config.shard);
  const uint64_t per_txn = static_cast<uint64_t>(config.reads_per_txn) +
                           static_cast<uint64_t>(config.writes_per_txn);
  if (span < 1 || per_txn > span) {
    return invalid("a transaction draws ", per_txn,
                   " distinct keys (reads + writes) but shard ", config.shard,
                   " of ", config.num_shards, " owns ", span, " of the ",
                   config.num_keys, " keys");
  }
  return Status::OK();
}

KeyChooser::KeyChooser(const WorkloadConfig& config)
    : config_(config),
      span_(StripeSpan(config.num_keys, config.num_shards, config.shard)),
      hot_span_(StripeSpan(std::min(config.hot_keys, config.num_keys),
                           config.num_shards, config.shard)),
      zipf_(span_ > 0 ? span_ : 1,
            config.dist == KeyDist::kZipf ? config.zipf_theta : 0.0) {
  PLANET_CHECK(config.num_keys >= 1);
  PLANET_CHECK(config.num_shards >= 1);
  PLANET_CHECK(config.shard >= 0 && config.shard < config.num_shards);
  PLANET_CHECK_MSG(span_ >= 1, "shard " << config.shard << " owns no keys of "
                                        << config.num_keys);
}

Key KeyChooser::Next(Rng& rng) const {
  // All draws are over shard-local ranks, mapped to global keys at the end;
  // with num_shards == 1 the mapping is the identity and the draw sequence
  // is exactly the historical one (goldens depend on this).
  switch (config_.dist) {
    case KeyDist::kUniform:
      return MapRank(rng.Next() % span_);
    case KeyDist::kZipf:
      return MapRank(zipf_.Next(rng));
    case KeyDist::kHotspot: {
      if (hot_span_ > 0 && rng.Bernoulli(config_.hot_fraction)) {
        return MapRank(rng.Next() % hot_span_);
      }
      uint64_t cold = span_ - hot_span_;
      if (cold == 0) return MapRank(rng.Next() % span_);
      return MapRank(hot_span_ + rng.Next() % cold);
    }
  }
  return 0;
}

std::vector<Key> KeyChooser::NextDistinct(Rng& rng, int n) const {
  PLANET_CHECK(n >= 0);
  PLANET_CHECK_MSG(static_cast<uint64_t>(n) <= span_,
                   "cannot draw " << n << " distinct of " << span_
                                  << " shard-owned keys");
  std::vector<Key> keys;
  keys.reserve(static_cast<size_t>(n));
  int attempts = 0;
  while (static_cast<int>(keys.size()) < n) {
    Key k = Next(rng);
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    } else if (++attempts > 64 * n) {
      // Pathologically small effective key space (e.g. 1 hot key with
      // hot_fraction 1): fall back to sequential fill over the shard's
      // ranks (identity when unsharded).
      for (uint64_t r = 0; static_cast<int>(keys.size()) < n; ++r) {
        Key k2 = MapRank(r);
        if (std::find(keys.begin(), keys.end(), k2) == keys.end()) {
          keys.push_back(k2);
        }
      }
    }
  }
  return keys;
}

LoadGenerator::LoadGenerator(Simulator* sim, Rng rng, TxnRunner runner,
                             Options options)
    : sim_(sim), rng_(rng), runner_(std::move(runner)), options_(options) {
  PLANET_CHECK(sim != nullptr);
}

void LoadGenerator::SetResultSink(std::function<void(const TxnResult&)> sink) {
  sink_ = std::move(sink);
}

void LoadGenerator::Start(SimTime end_time) {
  end_time_ = end_time;
  if (options_.rate_per_sec > 0) {
    ScheduleNextArrival();
    return;
  }
  uint64_t sessions = options_.sessions > 0 ? options_.sessions : 1;
  for (uint64_t i = 0; i < sessions; ++i) {
    if (options_.stagger_start && options_.think_time_mean > 0) {
      Duration pause = static_cast<Duration>(
          rng_.Exponential(static_cast<double>(options_.think_time_mean)));
      sim_->Schedule(pause, [this] { IssueClosedLoop(); });
    } else {
      IssueClosedLoop();
    }
  }
}

void LoadGenerator::RunOne() {
  ++issued_;
  runner_([this](TxnResult result) {
    ++finished_;
    if (sink_) sink_(result);
    if (options_.rate_per_sec <= 0) {
      // Closed loop: think, then go again.
      if (options_.think_time_mean > 0) {
        Duration think = static_cast<Duration>(
            rng_.Exponential(static_cast<double>(options_.think_time_mean)));
        sim_->Schedule(think, [this] { IssueClosedLoop(); });
      } else {
        IssueClosedLoop();
      }
    }
  });
}

void LoadGenerator::IssueClosedLoop() {
  if (sim_->Now() >= end_time_) return;
  RunOne();
}

void LoadGenerator::ScheduleNextArrival() {
  double mean_gap_us = 1e6 / options_.rate_per_sec;
  Duration gap = static_cast<Duration>(rng_.Exponential(mean_gap_us));
  SimTime next = sim_->Now() + gap;
  if (next >= end_time_) return;
  sim_->ScheduleAt(next, [this] {
    RunOne();
    ScheduleNextArrival();
  });
}

}  // namespace planet
