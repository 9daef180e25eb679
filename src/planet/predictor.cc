#include "planet/predictor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/logging.h"

namespace planet {

// -------------------------------------------------------------- doom gauge

DoomGauge::DoomGauge(double threshold, double hysteresis, int confirm)
    : threshold_(threshold),
      hysteresis_(std::max(0.0, hysteresis)),
      confirm_(std::max(1, confirm)) {}

bool DoomGauge::Update(double doom) {
  if (threshold_ <= 0.0) return false;
  if (doom >= threshold_) {
    ++streak_;
  } else if (doom < threshold_ - hysteresis_) {
    streak_ = 0;
  }
  // Inside the hysteresis band the streak holds: evidence has weakened but
  // not recovered, so neither arm nor disarm.
  return streak_ >= confirm_;
}

// ---------------------------------------------------------------- latency

LatencyModel::LatencyModel(int num_dcs, Duration prior_hint)
    : num_dcs_(num_dcs),
      prior_hint_(prior_hint),
      hists_(static_cast<size_t>(num_dcs) * static_cast<size_t>(num_dcs)) {
  PLANET_CHECK(num_dcs >= 1);
}

size_t LatencyModel::Index(DcId from, DcId to) const {
  PLANET_CHECK(from >= 0 && from < num_dcs_ && to >= 0 && to < num_dcs_);
  return static_cast<size_t>(from) * static_cast<size_t>(num_dcs_) +
         static_cast<size_t>(to);
}

void LatencyModel::RecordRtt(DcId from, DcId to, Duration rtt) {
  hists_[Index(from, to)].Record(rtt);
  ++total_samples_;
}

const Histogram& LatencyModel::HistogramFor(DcId from, DcId to) const {
  return hists_[Index(from, to)];
}

double LatencyModel::ProbResponseWithin(DcId from, DcId to,
                                        Duration budget) const {
  const Histogram& h = hists_[Index(from, to)];
  if (h.count() < 8) {
    // Uninformed: fall back to the prior hint as a soft step function.
    if (budget >= 2 * prior_hint_) return 0.99;
    if (budget >= prior_hint_) return 0.9;
    return 0.5;
  }
  return h.CdfAt(budget);
}

double LatencyModel::ProbResponseWithinGiven(DcId from, DcId to,
                                             Duration elapsed,
                                             Duration budget) const {
  const Histogram& h = hists_[Index(from, to)];
  if (h.count() < 8) return ProbResponseWithin(from, to, elapsed + budget);
  double f_e = h.CdfAt(elapsed);
  double f_eb = h.CdfAt(elapsed + budget);
  double denom = 1.0 - f_e;
  if (denom < 1e-6) {
    // The reply is far overdue relative to everything observed; it is most
    // likely delayed by retransmissions. Stay mildly pessimistic.
    return 0.5;
  }
  return std::clamp((f_eb - f_e) / denom, 0.0, 1.0);
}

bool LatencyModel::HasData(DcId from, DcId to) const {
  return hists_[Index(from, to)].count() >= 8;
}

Duration LatencyModel::RttPercentile(DcId from, DcId to, double pct) const {
  const Histogram& h = hists_[Index(from, to)];
  if (h.count() == 0) return prior_hint_;
  return h.Percentile(pct);
}

// ------------------------------------------------------------ reachability

ReachabilityTracker::ReachabilityTracker(int num_dcs, Duration dead_after)
    : num_dcs_(num_dcs),
      dead_after_(dead_after),
      first_unanswered_(static_cast<size_t>(num_dcs), -1) {
  PLANET_CHECK(num_dcs >= 1);
}

void ReachabilityTracker::RecordProbe(DcId dc, SimTime now) {
  PLANET_CHECK(dc >= 0 && dc < num_dcs_);
  SimTime& first = first_unanswered_[static_cast<size_t>(dc)];
  if (first < 0) first = now;
}

void ReachabilityTracker::RecordAck(DcId dc, SimTime now) {
  PLANET_CHECK(dc >= 0 && dc < num_dcs_);
  (void)now;
  first_unanswered_[static_cast<size_t>(dc)] = -1;
}

bool ReachabilityTracker::IsDead(DcId dc, SimTime now) const {
  PLANET_CHECK(dc >= 0 && dc < num_dcs_);
  if (dead_after_ <= 0) return false;
  SimTime first = first_unanswered_[static_cast<size_t>(dc)];
  return first >= 0 && now - first > dead_after_;
}

int ReachabilityTracker::AliveCount(SimTime now) const {
  int alive = 0;
  for (DcId d = 0; d < num_dcs_; ++d) {
    if (!IsDead(d, now)) ++alive;
  }
  return alive;
}

// ---------------------------------------------------------------- conflict

ConflictModel::ConflictModel(double alpha, size_t max_tracked_keys)
    : alpha_(alpha),
      max_tracked_keys_(std::max<size_t>(1, max_tracked_keys)),
      global_votes_(alpha),
      global_options_(alpha) {}

void ConflictModel::RecordVote(Key key, bool accepted) {
  double x = accepted ? 0.0 : 1.0;
  global_votes_.Observe(x);
  Touch(&votes_per_key_, key, x);
}

void ConflictModel::RecordOptionOutcome(Key key, bool chosen) {
  double x = chosen ? 0.0 : 1.0;
  global_options_.Observe(x);
  Touch(&options_per_key_, key, x);
}

void ConflictModel::Touch(KeyMap* per_key, Key key, double x) {
  auto [stats, inserted] = per_key->TryEmplace(key, KeyStats{Ewma(alpha_), 0});
  stats->ewma.Observe(x);
  stats->last_touch = ++tick_;
  if (inserted && per_key->size() > max_tracked_keys_) {
    // Evict the coldest half by last observation. last_touch is unique per
    // entry, so the survivor set is independent of map iteration order.
    std::vector<std::pair<uint64_t, Key>> by_age;
    by_age.reserve(per_key->size());
    per_key->ForEach([&](Key k, const KeyStats& s) {
      by_age.emplace_back(s.last_touch, k);
    });
    size_t evict = by_age.size() - max_tracked_keys_ / 2;
    std::nth_element(by_age.begin(),
                     by_age.begin() + static_cast<ptrdiff_t>(evict),
                     by_age.end());
    for (size_t i = 0; i < evict; ++i) per_key->Erase(by_age[i].second);
  }
}

double ConflictModel::Blend(const KeyMap& per_key, const Ewma& global,
                            Key key) {
  double g = global.observations() > 0 ? global.value() : 0.0;
  const KeyStats* stats = per_key.Find(key);
  if (stats == nullptr) return g;
  const Ewma& local = stats->ewma;
  // Blend by observation count: trust the key once it has ~8 observations.
  double w =
      std::min<double>(1.0, static_cast<double>(local.observations()) / 8.0);
  return std::clamp(w * local.value() + (1.0 - w) * g, 0.0, 1.0);
}

double ConflictModel::ConflictProb(Key key) const {
  return Blend(votes_per_key_, global_votes_, key);
}

double ConflictModel::OptionFailProb(Key key) const {
  return Blend(options_per_key_, global_options_, key);
}

// ---------------------------------------------------------------- binomial

double BinomialTail(int n, double p, int k) {
  if (k <= 0) return 1.0;
  if (k > n) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Direct sum; n is the replication factor (tiny).
  double tail = 0.0;
  for (int i = k; i <= n; ++i) {
    double c = 1.0;
    for (int j = 0; j < i; ++j) c *= double(n - j) / double(j + 1);
    tail += c * std::pow(p, i) * std::pow(1.0 - p, n - i);
  }
  return std::clamp(tail, 0.0, 1.0);
}

// ---------------------------------------------------------------- estimator

CommitLikelihoodEstimator::CommitLikelihoodEstimator(
    const MdccConfig& mdcc, const PlanetConfig& planet,
    const LatencyModel* latency, const ConflictModel* conflict,
    const ReachabilityTracker* reach)
    : mdcc_(mdcc),
      planet_(planet),
      latency_(latency),
      conflict_(conflict),
      reach_(reach) {
  PLANET_CHECK(latency != nullptr && conflict != nullptr);
  // Targets are clamped to [0, 1], so no target has the bits of -1.
  memo_.fill(AcceptProb{std::bit_cast<uint64_t>(-1.0), 0.0, 0.0});
  tree_.fill(-1.0);
}

double CommitLikelihoodEstimator::ClassicRescue(double conflict_prob) const {
  if (!mdcc_.enable_classic) return 0.0;
  // Master must accept (1 - c); then a majority of all acceptors, of which
  // the master is one.
  double master_ok = 1.0 - conflict_prob;
  double peers_ok = BinomialTail(mdcc_.num_dcs - 1, 1.0 - conflict_prob,
                                 mdcc_.ClassicQuorum() - 1);
  return master_ok * peers_ok;
}

double CommitLikelihoodEstimator::FreshSuccessGivenAcceptProb(double q) const {
  double p_fast = BinomialTail(mdcc_.num_dcs, q, mdcc_.FastQuorum());
  double rescue = planet_.classic_damp * ClassicRescue(1.0 - q);
  return std::clamp(p_fast + (1.0 - p_fast) * rescue, 0.0, 1.0);
}

double CommitLikelihoodEstimator::FreshOptionLikelihood(Key key) const {
  if (planet_.use_option_level_model &&
      conflict_->option_observations() > 0) {
    // The option-level outcome rate is the calibrated signal.
    return std::clamp(1.0 - conflict_->OptionFailProb(key), 0.0, 1.0);
  }
  // No option outcomes yet (or vote-level ablation): compose vote-level
  // rates under the independence assumption.
  return FreshSuccessGivenAcceptProb(1.0 - conflict_->ConflictProb(key));
}

double CommitLikelihoodEstimator::EffectiveAcceptProb(Key key) const {
  return EffectiveAcceptProbFor(FreshOptionLikelihood(key));
}

double CommitLikelihoodEstimator::EffectiveAcceptProbFor(double target) const {
  return AcceptProbFor(target).q_eff;
}

CommitLikelihoodEstimator::AcceptProb CommitLikelihoodEstimator::AcceptProbFor(
    double target) const {
  const auto bits = std::bit_cast<uint64_t>(target);
  // Fibonacci hashing: the top bits of the product mix every mantissa bit.
  AcceptProb& slot = memo_[(bits * 0x9E3779B97F4A7C15ull) >> (64 - kMemoBits)];
  if (slot.target_bits == bits) return slot;
  // Invert FreshSuccessGivenAcceptProb (monotone increasing in q) so that
  // the zero-vote in-flight estimate equals FreshOptionLikelihood. The
  // answer is fixed by the plain bisection's comparisons f(mid) < target.
  // Each midpoint is an exact dyadic rational fixed by the path to it, so
  // the first kTreeLevels are cached by heap position (children of node i
  // are 2i + 1 and 2i + 2). f_lo and f_hi track f at the cell's ends; the
  // exact 0 and 1 at q = 0 and 1 only feed CertifiedBisection's guess.
  double lo = 0.0, hi = 1.0, f_lo = 0.0, f_hi = 1.0;
  size_t node = 0;
  for (int level = 0; level < kTreeLevels; ++level) {
    const double mid = 0.5 * (lo + hi);
    double& success = tree_[node];
    if (success < 0.0) success = FreshSuccessGivenAcceptProb(mid);
    const bool below = success < target;
    (below ? lo : hi) = mid;
    (below ? f_lo : f_hi) = success;
    node = 2 * node + (below ? 2 : 1);
  }
  double q = CertifiedBisection(target, lo, f_lo, f_hi);
  if (q < 0.0) {
    for (int level = kTreeLevels; level < kLevels; ++level) {
      const double mid = 0.5 * (lo + hi);
      (FreshSuccessGivenAcceptProb(mid) < target ? lo : hi) = mid;
    }
    q = 0.5 * (lo + hi);
  }
  slot = AcceptProb{bits, q, ClassicRescue(1.0 - q)};
  return slot;
}

// Why a certified cell is the plain loop's answer. Exact f is
// non-decreasing in q: p = P(fast quorum) and r = damp * ClassicRescue(1 -
// q) both rise with q, and r <= 1, so f = p + (1 - p) * r rises with both.
// Let [L, H] be a 2^-30 cell inside the cached cell. Every midpoint m the
// plain loop compares inside it is a 2^-30 grid point, so m <= L or m >= H.
// With e = kFreshSuccessError, if computed f(L) < target - 2e and computed
// f(H) >= target + 2e, then for m <= L
//   computed f(m) <= f(m) + e <= f(L) + e <= computed f(L) + 2e < target,
// and for m >= H likewise computed f(m) >= target: every comparison goes
// the way that leads to [L, H]. At L = 0 (H = 1) no midpoint lies on that
// side. A poor guess therefore costs a fallback, never a different answer.
//
// The bound e. Let u = 2^-53, and assume std::pow is within 2 ulps (4u) of
// exact; predictor_test checks the resulting bound against long double.
//  * 1 - p is within a relative u of exact (exact for p >= 1/2), and the
//    rescue's 1 - (1 - q) is within u of q (exact on the 2^-30 grid).
//  * BinomialTail(n, p, k) adds up at most n + 1 terms
//    c * p^i * (1 - p)^(n - i) >= 0. The coefficient takes 2i rounded
//    operations, the powers 4u each plus (n - i)u from 1 - p, the two
//    products 2u and the running sum at most nu. As 2i + (n - i) <= 2n,
//    each term is within (3n + 10)u relative, so the tail (at most 1) is
//    within (3n + 10)u absolute; its clamp only moves it towards [0, 1].
//  * r = damp * ((1 - (1 - q)) * tail): two more roundings, and the shift
//    of q by u moves q * tail(n - 1, q) by at most nu (its slope is at
//    most n). So r is within (4n + 12)u.
//  * f = p + (1 - p) * r, with damp <= 1: the errors of p and r add, and
//    the subtraction, product and sum (results below 2) round by at most
//    u each: |computed f - f| <= (7n + 25)u, ignoring second-order terms
//    below 1e-26. For n <= kMaxCertifiedDcs = 64 that is 473u, about
//    5.3e-14; e = 1e-13 leaves room for the rounding of target -+ 2e.
double CommitLikelihoodEstimator::CertifiedBisection(double target, double lo,
                                                     double f_lo,
                                                     double f_hi) const {
  if (mdcc_.num_dcs > kMaxCertifiedDcs || !(planet_.classic_damp >= 0.0 &&
                                            planet_.classic_damp <= 1.0)) {
    return -1.0;
  }
  constexpr uint32_t kGrid = 1u << kTreeLevels;  // lo = j / kGrid
  constexpr uint32_t kCells = 1u << (kLevels - kTreeLevels);
  constexpr double kCell = 1.0 / double(kGrid) / double(kCells);  // 2^-30

  // 1. Guess from cached values only: a polynomial in s = (q - lo) / (hi -
  // lo) through the cell's ends and whichever neighbouring grid points
  // (s = -1 and s = 2) are cached, P(s) = f_lo + d s + s (s - 1) (a + b s),
  // then Newton steps on P(s) = target.
  auto cached = [this](uint32_t j) {  // f at j / kGrid, -1 if not computed
    const int zeros = std::countr_zero(j);
    const size_t level = static_cast<size_t>(kTreeLevels - 1 - zeros);
    return tree_[(size_t{1} << level) - 1 + (j >> (zeros + 1))];
  };
  const auto j = static_cast<uint32_t>(lo * kGrid);
  const double below = j >= 2 ? cached(j - 1) : -1.0;
  const double above = j + 2 < kGrid ? cached(j + 2) : -1.0;
  const double d = f_hi - f_lo;
  const double c_below = 0.5 * (below - 2.0 * f_lo + f_hi);
  const double c_above = 0.5 * (f_lo - 2.0 * f_hi + above);
  double a = 0.0, b = 0.0;
  if (below >= 0.0 && above >= 0.0) {
    b = (c_above - c_below) / 3.0;
    a = c_below + b;
  } else if (below >= 0.0) {
    a = c_below;
  } else if (above >= 0.0) {
    a = c_above;
  }
  double s = d > 0.0 ? (target - f_lo) / d : 0.5;
  for (int step = 0; step < 3; ++step) {
    const double w = a + b * s;
    const double slope = d + (2.0 * s - 1.0) * w + s * (s - 1.0) * b;
    if (!(slope > 0.0)) break;
    s -= (f_lo + d * s + s * (s - 1.0) * w - target) / slope;
  }

  // 2. Certify the 2^-30 cell holding the guess; 3. if that fails, once
  // more the cell a secant step through the new values points to.
  auto cell_of = [](double x) {  // fmax/fmin map NaN to 0
    const double clamped = std::fmin(std::fmax(x, 0.0), 1.0);
    return std::min(static_cast<uint32_t>(clamped * kCells), kCells - 1);
  };
  auto f_at = [&](uint32_t i) {  // f at lo + i * kCell, ends from the tree
    if (i == 0) return f_lo;
    if (i == kCells) return f_hi;
    return FreshSuccessGivenAcceptProb(lo + i * kCell);
  };
  uint32_t k = cell_of(s);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const double l = lo + k * kCell, h = l + kCell;
    const double f_l = f_at(k), f_h = f_at(k + 1);
    if ((l == 0.0 || f_l < target - 2.0 * kFreshSuccessError) &&
        (h == 1.0 || f_h >= target + 2.0 * kFreshSuccessError)) {
      return 0.5 * (l + h);
    }
    const double secant = f_h > f_l ? (target - f_l) / (f_h - f_l) : 0.5;
    const uint32_t next = cell_of((k + secant) / kCells);
    if (next == k) break;
    k = next;
  }
  return -1.0;
}

double CommitLikelihoodEstimator::OptionLikelihood(const OptionProgress& op,
                                                   bool with_latency,
                                                   SimTime now,
                                                   Duration budget,
                                                   DcId client_dc) const {
  if (op.decided) return op.chosen ? 1.0 : 0.0;
  // Per-acceptor accept probability implied by the calibrated option-level
  // outcome rate (consistent with FreshOptionLikelihood at zero votes).
  const AcceptProb accept = AcceptProbFor(FreshOptionLikelihood(op.option.key));

  // Failure detection: acceptors silent past dead_after cannot vote. Their
  // outstanding votes are written off, and the classic rescue disappears
  // when no quorum of live acceptors remains — or when the master is dead
  // and failover is disabled.
  int n = mdcc_.num_dcs;
  const bool detect = reach_ != nullptr && now > 0;
  int dead_total = 0;
  bool master_dead = false;
  if (detect) {
    for (DcId d = 0; d < n; ++d) {
      if (reach_->IsDead(d, now)) ++dead_total;
    }
    master_dead = reach_->IsDead(mdcc_.MasterOf(op.option.key), now);
  }
  const bool classic_possible =
      n - dead_total >= mdcc_.ClassicQuorum() &&
      (!master_dead || mdcc_.master_failover_timeout > 0);

  if (op.classic_inflight) {
    double rescue = classic_possible ? accept.rescue : 0.0;
    if (with_latency && rescue > 0) {
      // Classic adds a client->master->peers->master->client exchange; use
      // the master RTT as the dominant term.
      DcId master = mdcc_.MasterOf(op.option.key);
      Duration elapsed = now - op.proposed_at;
      rescue *= latency_->ProbResponseWithinGiven(client_dc, master, elapsed,
                                                  budget);
    }
    return rescue;
  }

  int outstanding = n - op.accepts - op.rejects;
  if (detect && dead_total > 0 &&
      op.votes.size() == static_cast<size_t>(n)) {
    for (DcId d = 0; d < n; ++d) {
      if (op.votes[static_cast<size_t>(d)] == -1 && reach_->IsDead(d, now)) {
        --outstanding;
      }
    }
  }
  int needed = mdcc_.FastQuorum() - op.accepts;
  double p_vote = accept.q_eff;

  double p_fast;
  if (needed <= 0) {
    p_fast = 1.0;
  } else if (needed > outstanding) {
    p_fast = 0.0;
  } else if (with_latency) {
    // Each outstanding acceptor must both accept and answer in time; the
    // per-acceptor in-time probability differs by DC, so use the mean
    // in-time probability across outstanding DCs (votes are near-symmetric
    // at this granularity).
    double in_time_sum = 0.0;
    int counted = 0;
    Duration elapsed = now - op.proposed_at;
    for (DcId d = 0; d < n; ++d) {
      if (op.votes[static_cast<size_t>(d)] != -1) continue;
      if (detect && reach_->IsDead(d, now)) continue;
      in_time_sum +=
          latency_->ProbResponseWithinGiven(client_dc, d, elapsed, budget);
      ++counted;
    }
    double in_time = counted > 0 ? in_time_sum / counted : 1.0;
    p_fast = BinomialTail(outstanding, p_vote * in_time, needed);
  } else {
    p_fast = BinomialTail(outstanding, p_vote, needed);
  }

  double rescue =
      classic_possible ? planet_.classic_damp * accept.rescue : 0.0;
  if (with_latency && rescue > 0) {
    // The rescue path spends at least another master round trip.
    DcId master = mdcc_.MasterOf(op.option.key);
    Duration classic_rtt = latency_->RttPercentile(client_dc, master, 50);
    if (budget < 2 * classic_rtt) rescue = 0.0;
  }
  return std::clamp(p_fast + (1.0 - p_fast) * rescue, 0.0, 1.0);
}

double CommitLikelihoodEstimator::Estimate(const TxnView& view,
                                           SimTime now) const {
  if (view.phase == TxnPhase::kCommitted) return 1.0;
  if (view.phase == TxnPhase::kAborted) return 0.0;
  double likelihood = 1.0;
  for (const OptionProgress& op : view.options) {
    likelihood *= OptionLikelihood(op, /*with_latency=*/false, now, 0, 0);
  }
  return likelihood;
}

double CommitLikelihoodEstimator::EstimateBy(const TxnView& view, SimTime now,
                                             Duration budget,
                                             DcId client_dc) const {
  if (view.phase == TxnPhase::kCommitted) return 1.0;
  if (view.phase == TxnPhase::kAborted) return 0.0;
  double likelihood = 1.0;
  for (const OptionProgress& op : view.options) {
    likelihood *=
        OptionLikelihood(op, /*with_latency=*/true, now, budget, client_dc);
  }
  return likelihood;
}

double CommitLikelihoodEstimator::EstimateFresh(
    const std::vector<WriteOption>& writes, SimTime now) const {
  bool any_dead = false;
  if (reach_ != nullptr && now > 0) {
    for (DcId d = 0; d < mdcc_.num_dcs; ++d) {
      if (reach_->IsDead(d, now)) {
        any_dead = true;
        break;
      }
    }
  }
  if (any_dead) {
    // Dead-DC-aware prior: evaluate each write as a zero-vote in-flight
    // option so the reachability terms apply.
    double likelihood = 1.0;
    for (const WriteOption& w : writes) {
      OptionProgress op;
      op.option = w;
      op.votes.assign(static_cast<size_t>(mdcc_.num_dcs), -1);
      op.proposed_at = now;
      likelihood *= OptionLikelihood(op, /*with_latency=*/false, now, 0, 0);
    }
    return likelihood;
  }
  double likelihood = 1.0;
  for (const WriteOption& w : writes) {
    likelihood *= FreshOptionLikelihood(w.key);
  }
  return likelihood;
}

double CommitLikelihoodEstimator::EstimateFreshBy(
    const std::vector<WriteOption>& writes, Duration sla, DcId client_dc,
    SimTime now) const {
  // Admission must never shed load on a cold model: only links with learned
  // data contribute a latency constraint. Warmth depends on client_dc only,
  // not on the individual writes, so scan the links once per call.
  bool warm = true;
  for (DcId d = 0; d < mdcc_.num_dcs; ++d) {
    if (!latency_->HasData(client_dc, d)) {
      warm = false;
      break;
    }
  }
  if (!warm) return EstimateFresh(writes, now);

  double likelihood = 1.0;
  for (const WriteOption& w : writes) {
    // Zero-vote in-flight option proposed "now": the latency-constrained
    // estimate then uses the learned RTT tails for every outstanding DC.
    OptionProgress op;
    op.option = w;
    op.votes.assign(static_cast<size_t>(mdcc_.num_dcs), -1);
    op.proposed_at = now;
    likelihood *=
        OptionLikelihood(op, /*with_latency=*/true, now, sla, client_dc);
  }
  return likelihood;
}

// ------------------------------------------------------------- calibration

CalibrationTracker::CalibrationTracker(int buckets)
    : buckets_(buckets),
      totals_(static_cast<size_t>(buckets), 0),
      committed_(static_cast<size_t>(buckets), 0),
      predicted_sum_(static_cast<size_t>(buckets), 0.0) {
  PLANET_CHECK(buckets >= 1);
}

void CalibrationTracker::Record(double predicted, bool committed) {
  predicted = std::clamp(predicted, 0.0, 1.0);
  int b = std::min(buckets_ - 1, static_cast<int>(predicted * buckets_));
  ++totals_[static_cast<size_t>(b)];
  if (committed) ++committed_[static_cast<size_t>(b)];
  predicted_sum_[static_cast<size_t>(b)] += predicted;
  ++total_;
}

std::vector<CalibrationTracker::Bucket> CalibrationTracker::Buckets() const {
  std::vector<Bucket> out;
  for (int b = 0; b < buckets_; ++b) {
    Bucket bucket;
    bucket.lo = double(b) / buckets_;
    bucket.hi = double(b + 1) / buckets_;
    bucket.total = totals_[static_cast<size_t>(b)];
    bucket.committed = committed_[static_cast<size_t>(b)];
    bucket.mean_predicted =
        bucket.total > 0
            ? predicted_sum_[static_cast<size_t>(b)] / double(bucket.total)
            : 0.0;
    // Emit-path only: builds the calibration report after a run drains
    // (the analyzer reaches it through name-based `.Reset()` fan-out).
    out.push_back(bucket);  // planet-lint: allow(hot-path-alloc)
  }
  return out;
}

double CalibrationTracker::ExpectedCalibrationError() const {
  if (total_ == 0) return 0.0;
  double ece = 0.0;
  for (const Bucket& b : Buckets()) {
    if (b.total == 0) continue;
    double observed = double(b.committed) / double(b.total);
    ece += (double(b.total) / double(total_)) *
           std::abs(observed - b.mean_predicted);
  }
  return ece;
}

}  // namespace planet
