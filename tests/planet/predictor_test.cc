#include "planet/predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace planet {
namespace {

TEST(BinomialTail, ExactSmallCases) {
  EXPECT_DOUBLE_EQ(BinomialTail(5, 0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialTail(5, 0.5, 6), 0.0);
  EXPECT_NEAR(BinomialTail(1, 0.3, 1), 0.3, 1e-12);
  // P(X >= 2), X ~ Bin(2, 0.5) = 0.25.
  EXPECT_NEAR(BinomialTail(2, 0.5, 2), 0.25, 1e-12);
  // P(X >= 4), X ~ Bin(5, 0.9) = 5*0.9^4*0.1 + 0.9^5.
  EXPECT_NEAR(BinomialTail(5, 0.9, 4), 5 * 0.6561 * 0.1 + 0.59049, 1e-9);
}

TEST(BinomialTail, MonotoneInP) {
  for (int k = 1; k <= 5; ++k) {
    double prev = -1;
    for (double p = 0.0; p <= 1.0001; p += 0.1) {
      double t = BinomialTail(5, p, k);
      EXPECT_GE(t, prev - 1e-12);
      prev = t;
    }
  }
}

TEST(LatencyModel, LearnsCdf) {
  LatencyModel model(2, Millis(100));
  for (int i = 0; i < 1000; ++i) {
    model.RecordRtt(0, 1, Millis(80) + (i % 20) * Millis(1));
  }
  EXPECT_GT(model.ProbResponseWithin(0, 1, Millis(100)), 0.99);
  EXPECT_LT(model.ProbResponseWithin(0, 1, Millis(50)), 0.01);
  EXPECT_NEAR(double(model.RttPercentile(0, 1, 50)), double(Millis(90)),
              double(Millis(8)));
}

TEST(LatencyModel, PriorBeforeData) {
  LatencyModel model(2, Millis(100));
  // No data: prior-hint behaviour, monotone in budget.
  double p_small = model.ProbResponseWithin(0, 1, Millis(10));
  double p_large = model.ProbResponseWithin(0, 1, Millis(500));
  EXPECT_LT(p_small, p_large);
  EXPECT_EQ(model.RttPercentile(0, 1, 99), Millis(100));
}

TEST(LatencyModel, ConditionalTail) {
  LatencyModel model(2, Millis(100));
  for (int i = 0; i < 2000; ++i) {
    model.RecordRtt(0, 1, Millis(80) + (i % 40) * Millis(1));
  }
  // Already waited 100ms of a [80,120]ms distribution: 10 more ms covers
  // roughly half the remaining mass.
  double p = model.ProbResponseWithinGiven(0, 1, Millis(100), Millis(10));
  EXPECT_GT(p, 0.25);
  EXPECT_LT(p, 0.8);
  // Waited far beyond everything observed: overdue fallback.
  double overdue =
      model.ProbResponseWithinGiven(0, 1, Millis(1000), Millis(10));
  EXPECT_NEAR(overdue, 0.5, 1e-9);
}

TEST(ConflictModel, StartsAtZero) {
  ConflictModel model(0.05);
  EXPECT_DOUBLE_EQ(model.ConflictProb(42), 0.0);
}

TEST(ConflictModel, LearnsPerKeyRates) {
  ConflictModel model(0.1);
  for (int i = 0; i < 200; ++i) {
    model.RecordVote(1, /*accepted=*/false);  // hot key: always conflicts
    model.RecordVote(2, /*accepted=*/true);   // cold key: never conflicts
  }
  EXPECT_GT(model.ConflictProb(1), 0.9);
  EXPECT_LT(model.ConflictProb(2), 0.3);  // pulled up slightly by global
  EXPECT_GT(model.ConflictProb(1), model.ConflictProb(2));
}

TEST(ConflictModel, UnseenKeyUsesGlobal) {
  ConflictModel model(0.1);
  for (int i = 0; i < 100; ++i) model.RecordVote(1, false);
  double unseen = model.ConflictProb(999);
  EXPECT_GT(unseen, 0.5) << "global rate should dominate for unseen keys";
}

TEST(ConflictModel, TrackedKeysStayBounded) {
  ConflictModel model(0.1, /*max_tracked_keys=*/100);
  for (Key k = 0; k < 100000; ++k) {
    model.RecordVote(k, k % 2 == 0);
    model.RecordOptionOutcome(k, k % 2 == 0);
  }
  EXPECT_LE(model.tracked_vote_keys(), 100u);
  EXPECT_LE(model.tracked_option_keys(), 100u);
  // The global rate still reflects every observation.
  EXPECT_EQ(model.observations(), 100000u);
  EXPECT_EQ(model.option_observations(), 100000u);
}

TEST(ConflictModel, EvictionSparesRecentlyTouchedKeys) {
  ConflictModel model(0.1, /*max_tracked_keys=*/64);
  // Key 7 is hot: touched on every round, so it must survive churn from a
  // stream of one-shot cold keys.
  for (Key cold = 1000; cold < 2000; ++cold) {
    model.RecordVote(7, false);
    model.RecordVote(cold, true);
  }
  EXPECT_LE(model.tracked_vote_keys(), 64u);
  EXPECT_GT(model.ConflictProb(7), 0.9)
      << "hot key's per-key EWMA must survive cold-key eviction";
}

TEST(ConflictModel, EvictionIsDeterministic) {
  auto run = [] {
    ConflictModel model(0.1, /*max_tracked_keys=*/32);
    for (Key k = 0; k < 1000; ++k) model.RecordVote(k, k % 3 == 0);
    std::vector<double> probs;
    for (Key k = 0; k < 1000; ++k) probs.push_back(model.ConflictProb(k));
    return probs;
  };
  EXPECT_EQ(run(), run());
}

class EstimatorTest : public ::testing::Test {
 protected:
  EstimatorTest()
      : latency_(5, Millis(100)),
        conflict_(0.1),
        estimator_(MakeMdcc(), MakePlanet(), &latency_, &conflict_) {}

  static MdccConfig MakeMdcc() {
    MdccConfig c;
    c.num_dcs = 5;
    return c;
  }
  static PlanetConfig MakePlanet() {
    PlanetConfig c;
    c.classic_damp = 0.5;
    return c;
  }

  OptionProgress MakeOption(Key key, int accepts, int rejects) {
    OptionProgress op;
    op.option.key = key;
    op.option.txn = 1;
    op.votes.assign(5, -1);
    for (int i = 0; i < accepts; ++i) op.votes[size_t(i)] = 1;
    for (int i = 0; i < rejects; ++i) op.votes[size_t(accepts + i)] = 0;
    op.accepts = accepts;
    op.rejects = rejects;
    return op;
  }

  TxnView MakeView(std::vector<OptionProgress> options) {
    TxnView view;
    view.phase = TxnPhase::kProposing;
    view.options = std::move(options);
    return view;
  }

  LatencyModel latency_;
  ConflictModel conflict_;
  CommitLikelihoodEstimator estimator_;
};

TEST_F(EstimatorTest, NoConflictHistoryMeansHighLikelihood) {
  TxnView view = MakeView({MakeOption(1, 0, 0)});
  EXPECT_GT(estimator_.Estimate(view), 0.99);
}

TEST_F(EstimatorTest, LikelihoodRisesWithAccepts) {
  // Moderate conflict environment.
  for (int i = 0; i < 300; ++i) conflict_.RecordVote(1, i % 3 != 0);
  double l0 = estimator_.Estimate(MakeView({MakeOption(1, 0, 0)}));
  double l2 = estimator_.Estimate(MakeView({MakeOption(1, 2, 0)}));
  double l4 = estimator_.Estimate(MakeView({MakeOption(1, 4, 0)}));
  EXPECT_LT(l0, l2);
  EXPECT_LT(l2, l4);
  EXPECT_DOUBLE_EQ(l4, 1.0) << "fast quorum already reached";
}

TEST_F(EstimatorTest, LikelihoodFallsWithRejects) {
  for (int i = 0; i < 300; ++i) conflict_.RecordVote(1, i % 3 != 0);
  double l0 = estimator_.Estimate(MakeView({MakeOption(1, 0, 0)}));
  double l1 = estimator_.Estimate(MakeView({MakeOption(1, 0, 1)}));
  double l2 = estimator_.Estimate(MakeView({MakeOption(1, 0, 2)}));
  EXPECT_GT(l0, l1);
  EXPECT_GT(l1, l2);
}

TEST_F(EstimatorTest, DecidedOptionsAreCertain) {
  OptionProgress chosen = MakeOption(1, 4, 0);
  chosen.decided = true;
  chosen.chosen = true;
  OptionProgress failed = MakeOption(2, 0, 2);
  failed.decided = true;
  failed.chosen = false;
  EXPECT_DOUBLE_EQ(estimator_.Estimate(MakeView({chosen})), 1.0);
  EXPECT_DOUBLE_EQ(estimator_.Estimate(MakeView({failed})), 0.0);
}

TEST_F(EstimatorTest, MultiOptionMultiplies) {
  for (int i = 0; i < 300; ++i) conflict_.RecordVote(1, i % 2 == 0);
  for (int i = 0; i < 300; ++i) conflict_.RecordVote(2, i % 2 == 0);
  double single = estimator_.Estimate(MakeView({MakeOption(1, 0, 0)}));
  double both = estimator_.Estimate(
      MakeView({MakeOption(1, 0, 0), MakeOption(2, 0, 0)}));
  EXPECT_NEAR(both, single * single, 0.02);
}

TEST_F(EstimatorTest, PhaseShortCircuits) {
  TxnView view = MakeView({MakeOption(1, 0, 0)});
  view.phase = TxnPhase::kCommitted;
  EXPECT_DOUBLE_EQ(estimator_.Estimate(view), 1.0);
  view.phase = TxnPhase::kAborted;
  EXPECT_DOUBLE_EQ(estimator_.Estimate(view), 0.0);
}

TEST_F(EstimatorTest, FreshEstimateMatchesZeroVoteView) {
  for (int i = 0; i < 200; ++i) conflict_.RecordVote(7, i % 4 == 0);
  WriteOption w;
  w.key = 7;
  double fresh = estimator_.EstimateFresh({w});
  double inflight = estimator_.Estimate(MakeView({MakeOption(7, 0, 0)}));
  EXPECT_NEAR(fresh, inflight, 1e-9);
}

TEST_F(EstimatorTest, EstimateByTightBudgetLowers) {
  for (int i = 0; i < 1000; ++i) {
    latency_.RecordRtt(0, static_cast<DcId>(i % 5), Millis(80));
  }
  TxnView view = MakeView({MakeOption(1, 0, 0)});
  view.options[0].proposed_at = 0;
  double eventually = estimator_.Estimate(view);
  double by_tight = estimator_.EstimateBy(view, /*now=*/0, Millis(10), 0);
  double by_loose = estimator_.EstimateBy(view, /*now=*/0, Seconds(10), 0);
  EXPECT_LT(by_tight, eventually);
  EXPECT_NEAR(by_loose, eventually, 0.05);
}

TEST(ConflictModel, OptionOutcomesLearnedPerKey) {
  ConflictModel model(0.1);
  for (int i = 0; i < 100; ++i) {
    model.RecordOptionOutcome(1, false);  // hot key: options always fail
    model.RecordOptionOutcome(2, true);
  }
  EXPECT_GT(model.OptionFailProb(1), 0.9);
  EXPECT_LT(model.OptionFailProb(2), 0.3);
  EXPECT_EQ(model.option_observations(), 200u);
}

TEST_F(EstimatorTest, FreshUsesOptionOutcomesWhenAvailable) {
  // Key 5 fails 60% of the time at the option level.
  for (int i = 0; i < 500; ++i) {
    conflict_.RecordOptionOutcome(5, i % 5 >= 3 ? false : true);
  }
  double fresh = estimator_.FreshOptionLikelihood(5);
  EXPECT_NEAR(fresh, 0.6, 0.1);
}

TEST_F(EstimatorTest, EffectiveAcceptProbInvertsFreshLikelihood) {
  for (int i = 0; i < 500; ++i) {
    conflict_.RecordOptionOutcome(5, i % 2 == 0);
  }
  double q = estimator_.EffectiveAcceptProb(5);
  ASSERT_GT(q, 0.0);
  ASSERT_LT(q, 1.0);
  // Plugging q back into the fresh-success formula recovers the target: the
  // zero-vote in-flight estimate coincides with the fresh estimate.
  OptionProgress op = MakeOption(5, 0, 0);
  double inflight = estimator_.Estimate(MakeView({op}));
  EXPECT_NEAR(inflight, estimator_.FreshOptionLikelihood(5), 1e-6);
}

TEST_F(EstimatorTest, InflightStillMonotoneWithOptionModel) {
  for (int i = 0; i < 500; ++i) {
    conflict_.RecordOptionOutcome(5, i % 2 == 0);
  }
  double l0 = estimator_.Estimate(MakeView({MakeOption(5, 0, 0)}));
  double l2 = estimator_.Estimate(MakeView({MakeOption(5, 2, 0)}));
  double r1 = estimator_.Estimate(MakeView({MakeOption(5, 0, 1)}));
  EXPECT_LT(l0, l2);
  EXPECT_GT(l0, r1);
}

// FreshSuccessGivenAcceptProb written out from the public pieces:
// P(fast quorum) + (1 - P(fast quorum)) * damp * ClassicRescue(1 - q).
double ReferenceFreshSuccess(const MdccConfig& mdcc, const PlanetConfig& planet,
                             double q) {
  auto classic_rescue = [&mdcc](double conflict) {
    if (!mdcc.enable_classic) return 0.0;
    return (1.0 - conflict) * BinomialTail(mdcc.num_dcs - 1, 1.0 - conflict,
                                           mdcc.ClassicQuorum() - 1);
  };
  double p_fast = BinomialTail(mdcc.num_dcs, q, mdcc.FastQuorum());
  double rescue = planet.classic_damp * classic_rescue(1.0 - q);
  return std::clamp(p_fast + (1.0 - p_fast) * rescue, 0.0, 1.0);
}

// The plain 30-step bisection that EffectiveAcceptProb memoizes and whose
// answer its fast path must reproduce.
double ReferenceAcceptProb(const MdccConfig& mdcc, const PlanetConfig& planet,
                           double target) {
  double lo = 0.0, hi = 1.0;
  for (int iter = 0; iter < 30; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (ReferenceFreshSuccess(mdcc, planet, mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

uint64_t BitsOf(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

// A long-lived estimator memoizes the accept-probability inversion by its
// target across calls. Under a seeded interleaving of model updates,
// reachability probes and estimates, every answer must be bit-identical to
// the plain bisection and to a freshly built estimator on the same models.
// Parameter: use_option_level_model.
class EstimatorMemo : public ::testing::TestWithParam<bool> {};

TEST_P(EstimatorMemo, BitIdenticalToPlainBisectionAndFreshEstimator) {
  MdccConfig mdcc;
  mdcc.num_dcs = 5;
  PlanetConfig planet;
  planet.use_option_level_model = GetParam();
  LatencyModel latency(5, Millis(100));
  ConflictModel conflict(0.1);
  ReachabilityTracker reach(5, Millis(200));
  CommitLikelihoodEstimator memo(mdcc, planet, &latency, &conflict, &reach);
  // Only DC 0's links start warm, so EstimateFreshBy from DC 1 takes the
  // cold path until the interleaving has fed its links.
  for (int i = 0; i < 8; ++i) {
    for (DcId d = 0; d < 5; ++d) latency.RecordRtt(0, d, Millis(40 + 10 * d));
  }

  // Key 0 always conflicts and key 1 never does: once each has 8
  // observations their targets are exactly 0 and 1. The other keys drift.
  constexpr Key kKeys = 3000;
  Rng rng(GetParam() ? 101 : 202);
  SimTime now = Millis(1);
  std::set<uint64_t> targets;
  int zero_targets = 0, one_targets = 0, dead_estimates = 0;
  int classic_estimates = 0;

  auto observe_target = [&](Key key) {
    double target = memo.FreshOptionLikelihood(key);
    targets.insert(BitsOf(target));
    if (target == 0.0) ++zero_targets;
    if (target == 1.0) ++one_targets;
  };
  auto random_key = [&rng] {
    return rng.Bernoulli(0.2) ? Key(rng.Next() % 2) : Key(rng.Next() % kKeys);
  };
  auto accepted = [&rng](Key key) {
    if (key < 2) return key == 1;
    return rng.Bernoulli(0.3 + 0.6 * double(key % 7) / 6.0);
  };

  for (int step = 0; step < 20000; ++step) {
    switch (rng.Next() % 6) {
      case 0: {
        Key key = random_key();
        conflict.RecordVote(key, accepted(key));
        break;
      }
      case 1: {
        Key key = random_key();
        conflict.RecordOptionOutcome(key, accepted(key));
        break;
      }
      case 2:
        latency.RecordRtt(DcId(rng.Next() % 2), DcId(rng.Next() % 5),
                          Millis(30 + int64_t(rng.Next() % 150)));
        break;
      case 3: {
        // DCs 3 and 4 answer rarely, so they go dead for stretches.
        DcId dc = DcId(rng.Next() % 5);
        if (rng.Bernoulli(dc >= 3 ? 0.1 : 0.5)) {
          reach.RecordAck(dc, now);
        } else {
          reach.RecordProbe(dc, now);
        }
        now += Millis(int64_t(rng.Next() % 40));
        break;
      }
      default: {
        TxnView view;
        view.phase = TxnPhase::kProposing;
        std::vector<WriteOption> writes;
        int num_options = 1 + int(rng.Next() % 3);
        for (int o = 0; o < num_options; ++o) {
          OptionProgress op;
          op.option.key = random_key();
          op.votes.assign(5, -1);
          for (size_t d = 0; d < 5; ++d) {
            int vote = int(rng.Next() % 3) - 1;
            op.votes[d] = int8_t(vote);
            if (vote == 1) ++op.accepts;
            if (vote == 0) ++op.rejects;
          }
          op.classic_inflight = rng.Bernoulli(0.2);
          op.decided = rng.Bernoulli(0.05);
          op.chosen = rng.Bernoulli(0.5);
          op.proposed_at = std::max<SimTime>(
              0, now - Millis(int64_t(rng.Next() % 300)));
          if (op.classic_inflight) ++classic_estimates;
          observe_target(op.option.key);
          writes.push_back(op.option);
          view.options.push_back(op);
        }
        if (reach.AliveCount(now) < 5) ++dead_estimates;
        Duration budget = Millis(int64_t(rng.Next() % 400));
        DcId client_dc = DcId(rng.Next() % 2);

        for (const WriteOption& w : writes) {
          double reference = ReferenceAcceptProb(
              mdcc, planet, memo.FreshOptionLikelihood(w.key));
          ASSERT_TRUE(SameBits(memo.EffectiveAcceptProb(w.key), reference))
              << "step " << step << " key " << w.key;
        }
        CommitLikelihoodEstimator fresh(mdcc, planet, &latency, &conflict,
                                        &reach);
        ASSERT_TRUE(SameBits(memo.Estimate(view, now),
                             fresh.Estimate(view, now)))
            << "step " << step;
        ASSERT_TRUE(SameBits(memo.EstimateBy(view, now, budget, client_dc),
                             fresh.EstimateBy(view, now, budget, client_dc)))
            << "step " << step;
        ASSERT_TRUE(SameBits(memo.EstimateFresh(writes, now),
                             fresh.EstimateFresh(writes, now)))
            << "step " << step;
        ASSERT_TRUE(
            SameBits(memo.EstimateFreshBy(writes, budget, client_dc, now),
                     fresh.EstimateFreshBy(writes, budget, client_dc, now)))
            << "step " << step;
        break;
      }
    }
  }
  // The interleaving reached what it is meant to cover: targets of exactly
  // 0 and 1, dead DCs, classic_inflight options, and more distinct targets
  // than the memo has slots (1,024), so slots were overwritten.
  EXPECT_GT(zero_targets, 0);
  EXPECT_GT(one_targets, 0);
  EXPECT_GT(dead_estimates, 0);
  EXPECT_GT(classic_estimates, 0);
  EXPECT_GT(targets.size(), 2048u);
}

INSTANTIATE_TEST_SUITE_P(Models, EstimatorMemo, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "OptionLevel" : "VoteLevel";
                         });

MdccConfig MdccWith(int num_dcs, bool classic) {
  MdccConfig mdcc;
  mdcc.num_dcs = num_dcs;
  mdcc.enable_classic = classic;
  return mdcc;
}

// The inversion's fast path guesses the answer's 2^-30 cell and certifies
// it. These targets are built to break a guess: f at random 2^-30 grid
// points (where the plain loop's comparison is a tie) and 1 and 2 ulps
// either side, targets within 1e-12 of 0 and of 1 (where f is flat), and
// exactly 0 and 1. Every answer must be bit-identical to the plain loop.
// Parameters: num_dcs, enable_classic.
class EstimatorExactness
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(EstimatorExactness, AdversarialTargetsMatchPlainBisection) {
  const auto [num_dcs, classic] = GetParam();
  const MdccConfig mdcc = MdccWith(num_dcs, classic);
  const PlanetConfig planet;
  LatencyModel latency(num_dcs, Millis(100));
  ConflictModel conflict(0.1);
  CommitLikelihoodEstimator estimator(mdcc, planet, &latency, &conflict);

  Rng rng(1000 + uint64_t(num_dcs) * 2 + (classic ? 1 : 0));
  std::vector<double> targets = {0.0, 1.0};
  for (int i = 0; i < 3000; ++i) {
    const double q = double(rng.Next() >> 34) * 0x1p-30;
    double up = ReferenceFreshSuccess(mdcc, planet, q);
    double down = up;
    targets.push_back(up);
    for (int ulps = 0; ulps < 2; ++ulps) {
      up = std::nextafter(up, 2.0);
      down = std::nextafter(down, -1.0);
      targets.push_back(up);
      targets.push_back(down);
    }
  }
  for (int i = 0; i < 1000; ++i) {
    targets.push_back(rng.NextDouble() * 1e-12);
    targets.push_back(1.0 - rng.NextDouble() * 1e-12);
  }
  for (double target : targets) {
    ASSERT_TRUE(SameBits(estimator.EffectiveAcceptProbFor(target),
                         ReferenceAcceptProb(mdcc, planet, target)))
        << "target " << std::hexfloat << target;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EstimatorExactness,
    ::testing::Combine(::testing::Values(3, 5, 7), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::to_string(std::get<0>(info.param)) + "Dcs" +
             (std::get<1>(info.param) ? "Classic" : "FastOnly");
    });

// The same formula as ReferenceFreshSuccess in long double, with exact
// binomial coefficients.
long double LongDoubleFreshSuccess(const MdccConfig& mdcc,
                                   const PlanetConfig& planet, long double q) {
  auto tail = [](int n, long double p, int k) {
    long double sum = 0.0L, c = 1.0L;  // c = C(n, i)
    for (int i = 0; i <= n; ++i) {
      if (i >= k) sum += c * std::pow(p, i) * std::pow(1.0L - p, n - i);
      c = c * (n - i) / (i + 1);
    }
    return sum;
  };
  long double rescue =
      mdcc.enable_classic
          ? q * tail(mdcc.num_dcs - 1, q, mdcc.ClassicQuorum() - 1)
          : 0.0L;
  long double p_fast = tail(mdcc.num_dcs, q, mdcc.FastQuorum());
  return p_fast + (1.0L - p_fast) * planet.classic_damp * rescue;
}

// kFreshSuccessError bounds the rounding error of the computed f; the fast
// path's certificate is only as sound as that bound. Check it at every
// 2^-12 grid point, at random q, and at q near 0 and near 1.
TEST(FreshSuccessRounding, ErrorIsBelowBound) {
  const PlanetConfig planet;
  Rng rng(77);
  long double max_gap = -1.0L;
  std::string worst;
  int points = 0;
  for (int num_dcs : {3, 5, 7}) {
    for (bool classic : {false, true}) {
      const MdccConfig mdcc = MdccWith(num_dcs, classic);
      auto check = [&](double q) {
        long double gap = std::fabs(
            static_cast<long double>(ReferenceFreshSuccess(mdcc, planet, q)) -
            LongDoubleFreshSuccess(mdcc, planet, q));
        ++points;
        if (gap > max_gap) {
          max_gap = gap;
          char where[96];
          std::snprintf(where, sizeof where, "num_dcs %d classic %d q %a",
                        num_dcs, int(classic), q);
          worst = where;
        }
      };
      for (int j = 0; j <= 4096; ++j) check(j * 0x1p-12);
      for (int i = 0; i < 150000; ++i) check(rng.NextDouble());
      for (int i = 0; i < 10000; ++i) {
        const double x = std::ldexp(rng.NextDouble(), -int(rng.Next() % 60));
        check(x);
        check(1.0 - x);
      }
    }
  }
  EXPECT_GE(points, 1000000);
  EXPECT_LT(max_gap, CommitLikelihoodEstimator::kFreshSuccessError) << worst;
  std::printf("largest |double - long double| gap: %.3Lg (%s) over %d points\n",
              max_gap, worst.c_str(), points);
}

TEST(Calibration, BucketsAndEce) {
  CalibrationTracker tracker(10);
  // Perfectly calibrated stream: predicted p, commits with rate p.
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    double p = rng.NextDouble();
    tracker.Record(p, rng.Bernoulli(p));
  }
  EXPECT_EQ(tracker.total(), 20000u);
  EXPECT_LT(tracker.ExpectedCalibrationError(), 0.03);
  auto buckets = tracker.Buckets();
  ASSERT_EQ(buckets.size(), 10u);
  // Observed rate in each bucket tracks its midpoint.
  for (const auto& b : buckets) {
    ASSERT_GT(b.total, 100u);
    double observed = double(b.committed) / double(b.total);
    EXPECT_NEAR(observed, (b.lo + b.hi) / 2, 0.06);
  }
}

TEST(Calibration, MiscalibratedStreamHasHighEce) {
  CalibrationTracker tracker(10);
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    tracker.Record(0.9, rng.Bernoulli(0.2));  // overconfident predictor
  }
  EXPECT_GT(tracker.ExpectedCalibrationError(), 0.5);
}

TEST(Calibration, EdgePredictionsClamp) {
  CalibrationTracker tracker(10);
  tracker.Record(-0.5, false);
  tracker.Record(1.5, true);
  tracker.Record(1.0, true);
  EXPECT_EQ(tracker.total(), 3u);
  auto buckets = tracker.Buckets();
  EXPECT_EQ(buckets.front().total, 1u);
  EXPECT_EQ(buckets.back().total, 2u);
}

}  // namespace
}  // namespace planet
