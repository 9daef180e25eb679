// Property tests of the commit-likelihood predictor, over 1000 random draws
// each: the estimate must be monotone in the things it models —
// non-increasing as the observed conflict rate grows, non-decreasing as
// quorum acks arrive. Each draw randomizes the training history, the key,
// and the option mix, so these pin the estimator's shape, not one point.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "planet/predictor.h"

namespace planet {
namespace {

constexpr double kEps = 1e-12;

MdccConfig MakeMdcc() {
  MdccConfig c;
  c.num_dcs = 5;
  return c;
}

WriteOption PhysicalOption(Key key) {
  WriteOption option;
  option.txn = 1;
  option.key = key;
  option.kind = OptionKind::kPhysical;
  option.read_version = 0;
  option.new_value = 1;
  return option;
}

OptionProgress MakeProgress(Key key, const std::vector<int8_t>& votes) {
  OptionProgress op;
  op.option = PhysicalOption(key);
  op.votes = votes;
  op.accepts = 0;
  op.rejects = 0;
  for (int8_t v : votes) {
    if (v == 1) ++op.accepts;
    if (v == 0) ++op.rejects;
  }
  return op;
}

TEST(PredictorProperty, LikelihoodNonIncreasingInConflictRate) {
  // Two conflict models fed the same random vote sequence, except model B
  // sees a random subset of the accepts flipped to rejects. B's EWMA
  // rejection rate dominates A's pointwise, so the fresh-transaction
  // likelihood under B must not exceed A's.
  Rng rng(2024);
  for (int trial = 0; trial < 1000; ++trial) {
    PlanetConfig planet;
    double alpha = 0.02 + 0.3 * rng.NextDouble();
    LatencyModel latency(5, Millis(100));
    ConflictModel low(alpha);
    ConflictModel high(alpha);

    Key key = static_cast<Key>(rng.UniformInt(0, 9));
    int votes = static_cast<int>(rng.UniformInt(1, 200));
    double base_reject = rng.NextDouble() * 0.6;
    double flip = rng.NextDouble() * 0.5;
    for (int i = 0; i < votes; ++i) {
      bool accepted = !rng.Bernoulli(base_reject);
      bool accepted_high = accepted && !rng.Bernoulli(flip);
      low.RecordVote(key, accepted);
      high.RecordVote(key, accepted_high);
    }

    CommitLikelihoodEstimator est_low(MakeMdcc(), planet, &latency, &low);
    CommitLikelihoodEstimator est_high(MakeMdcc(), planet, &latency, &high);
    std::vector<WriteOption> writes{PhysicalOption(key)};
    double l_low = est_low.EstimateFresh(writes);
    double l_high = est_high.EstimateFresh(writes);
    ASSERT_LE(l_high, l_low + kEps)
        << "trial " << trial << ": likelihood rose with conflict rate "
        << "(votes=" << votes << " base=" << base_reject
        << " flip=" << flip << ")";
    ASSERT_GE(l_low, 0.0);
    ASSERT_LE(l_low, 1.0 + kEps);
  }
}

TEST(PredictorProperty, LikelihoodNonDecreasingAsAcksArrive) {
  // For a random in-flight transaction, turning one unknown vote into an
  // accept must never lower the estimate.
  Rng rng(4048);
  for (int trial = 0; trial < 1000; ++trial) {
    PlanetConfig planet;
    LatencyModel latency(5, Millis(100));
    ConflictModel conflict(0.05);

    // Random conflict pre-training on the keys in play.
    int pretrain = static_cast<int>(rng.UniformInt(0, 300));
    double reject_rate = rng.NextDouble() * 0.7;
    for (int i = 0; i < pretrain; ++i) {
      conflict.RecordVote(static_cast<Key>(rng.UniformInt(0, 2)),
                          !rng.Bernoulli(reject_rate));
    }
    CommitLikelihoodEstimator estimator(MakeMdcc(), planet, &latency,
                                        &conflict);

    int num_options = static_cast<int>(rng.UniformInt(1, 3));
    TxnView view;
    view.phase = TxnPhase::kProposing;
    for (int i = 0; i < num_options; ++i) {
      std::vector<int8_t> votes(5, -1);
      // At most one pre-existing reject, so commit stays possible.
      if (rng.Bernoulli(0.3)) votes[4] = 0;
      view.options.push_back(
          MakeProgress(static_cast<Key>(rng.UniformInt(0, 2)), votes));
    }

    size_t target = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(view.options.size()) - 1));
    double prev = estimator.Estimate(view);
    for (int slot = 0; slot < 4; ++slot) {
      OptionProgress& op = view.options[target];
      op.votes[static_cast<size_t>(slot)] = 1;
      ++op.accepts;
      double next = estimator.Estimate(view);
      ASSERT_GE(next, prev - kEps)
          << "trial " << trial << ": estimate dropped from " << prev
          << " to " << next << " on ack " << (slot + 1);
      ASSERT_GE(next, 0.0);
      ASSERT_LE(next, 1.0 + kEps);
      prev = next;
    }
  }
}

TEST(PredictorProperty, FreshLikelihoodMatchesZeroVoteEstimate) {
  // EstimateFresh and Estimate-with-zero-votes answer the same question;
  // over random training histories they must agree (the effective accept
  // probability inversion exists exactly for this).
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    PlanetConfig planet;
    LatencyModel latency(5, Millis(100));
    ConflictModel conflict(kConflictAlpha);
    Key key = 3;
    int votes = static_cast<int>(rng.UniformInt(0, 200));
    double reject_rate = rng.NextDouble() * 0.5;
    for (int i = 0; i < votes; ++i) {
      conflict.RecordVote(key, !rng.Bernoulli(reject_rate));
      if (rng.Bernoulli(0.5)) {
        conflict.RecordOptionOutcome(key, !rng.Bernoulli(reject_rate));
      }
    }
    CommitLikelihoodEstimator estimator(MakeMdcc(), planet, &latency,
                                        &conflict);
    std::vector<WriteOption> writes{PhysicalOption(key)};
    TxnView view;
    view.phase = TxnPhase::kProposing;
    view.options.push_back(MakeProgress(key, std::vector<int8_t>(5, -1)));
    EXPECT_NEAR(estimator.EstimateFresh(writes), estimator.Estimate(view),
                1e-9)
        << "trial " << trial;
  }
}

TEST(DoomGaugeProperty, KillMonotoneInConflictEvidence) {
  // Pointwise-stronger doom evidence must never delay the kill: feed two
  // random sequences where B dominates A observation by observation; if the
  // gauge fires on A at step i, it must fire on B at some step <= i.
  Rng rng(1112);
  for (int trial = 0; trial < 1000; ++trial) {
    double threshold = 0.5 + 0.45 * rng.NextDouble();
    double hysteresis = 0.1 * rng.NextDouble();
    int confirm = static_cast<int>(rng.UniformInt(1, 4));
    DoomGauge weak(threshold, hysteresis, confirm);
    DoomGauge strong(threshold, hysteresis, confirm);

    int steps = static_cast<int>(rng.UniformInt(1, 60));
    int weak_fired_at = -1, strong_fired_at = -1;
    for (int i = 0; i < steps; ++i) {
      double doom = rng.NextDouble();
      double bump = (1.0 - doom) * rng.NextDouble();
      if (weak.Update(doom) && weak_fired_at < 0) weak_fired_at = i;
      if (strong.Update(doom + bump) && strong_fired_at < 0) {
        strong_fired_at = i;
      }
    }
    if (weak_fired_at >= 0) {
      ASSERT_TRUE(strong_fired_at >= 0 && strong_fired_at <= weak_fired_at)
          << "trial " << trial << ": stronger evidence fired at "
          << strong_fired_at << " but weaker fired at " << weak_fired_at;
    }
  }
}

TEST(DoomGaugeProperty, HysteresisPreventsFlapping) {
  // Observations inside [threshold - hysteresis, threshold) hold the armed
  // streak: doom oscillating across the threshold but staying inside the
  // band still accumulates toward confirm instead of flapping. Without the
  // band (hysteresis 0) the same dip resets the streak.
  Rng rng(3136);
  for (int trial = 0; trial < 1000; ++trial) {
    double threshold = 0.5 + 0.4 * rng.NextDouble();
    double hysteresis = 0.05 + 0.1 * rng.NextDouble();
    int confirm = static_cast<int>(rng.UniformInt(2, 5));
    DoomGauge banded(threshold, hysteresis, confirm);
    DoomGauge sharp(threshold, 0.0, confirm);

    // confirm-1 observations at/above threshold arm both gauges.
    for (int i = 0; i < confirm - 1; ++i) {
      double doom = threshold + (1.0 - threshold) * rng.NextDouble();
      ASSERT_FALSE(banded.Update(doom));
      ASSERT_FALSE(sharp.Update(doom));
    }
    // A dip inside the band holds the banded streak and resets the sharp one.
    int dips = static_cast<int>(rng.UniformInt(1, 10));
    for (int i = 0; i < dips; ++i) {
      double in_band =
          threshold - hysteresis * (0.01 + 0.98 * rng.NextDouble());
      ASSERT_FALSE(banded.Update(in_band));
      ASSERT_FALSE(sharp.Update(in_band));
    }
    // The next doomed observation completes the banded streak only.
    double doom = threshold + (1.0 - threshold) * rng.NextDouble();
    ASSERT_TRUE(banded.Update(doom)) << "trial " << trial;
    ASSERT_FALSE(sharp.Update(doom)) << "trial " << trial;
    // A fall below the band resets even the banded gauge.
    banded = DoomGauge(threshold, hysteresis, confirm);
    for (int i = 0; i < confirm - 1; ++i) {
      ASSERT_FALSE(banded.Update(threshold));
    }
    ASSERT_FALSE(banded.Update(threshold - hysteresis - 0.01));
    ASSERT_EQ(banded.streak(), 0) << "trial " << trial;
  }
}

TEST(DoomGaugeProperty, ThresholdZeroIsInert) {
  // kill_threshold <= 0 disables the path: Update never fires and the
  // streak never arms, whatever the evidence — the config contract that
  // keeps disabled runs byte-identical to pre-feature builds.
  Rng rng(9990);
  DoomGauge off(0.0, 0.05, 1);
  DoomGauge negative(-1.0, 0.05, 1);
  for (int i = 0; i < 1000; ++i) {
    double doom = rng.NextDouble();
    ASSERT_FALSE(off.Update(doom));
    ASSERT_FALSE(negative.Update(doom));
  }
  ASSERT_FALSE(off.enabled());
  ASSERT_FALSE(off.Update(1.0));
}

}  // namespace
}  // namespace planet
