// Commit-likelihood prediction: the analytical heart of PLANET.
//
// The predictor combines two online-learned models:
//   * LatencyModel — per (client DC, replica DC) round-trip histograms,
//     answering "what is the probability the outstanding vote arrives within
//     my remaining budget, given it has been silent for `elapsed` already?"
//   * ConflictModel — per-key EWMA of acceptor-level rejection probability,
//     answering "what is the probability one more acceptor rejects this
//     option because of contention?"
//
// CommitLikelihoodEstimator maps a transaction's live vote tallies to
// P(commit): per undecided option it computes the probability that enough of
// the outstanding acceptors accept (binomial over the conflict probability),
// adds the classic-path rescue term, and multiplies across options
// (independence assumption, as in the paper).
#ifndef PLANET_PLANET_PREDICTOR_H_
#define PLANET_PLANET_PREDICTOR_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/histogram.h"
#include "common/types.h"
#include "mdcc/client.h"
#include "mdcc/config.h"

namespace planet {

/// EWMA weight of new conflict observations in a PlanetContext's model.
inline constexpr double kConflictAlpha = 0.05;

/// Default bound on the keys a ConflictModel tracks individually (per
/// level). Beyond it, the coldest half is evicted, so huge key spaces (F1
/// runs 1M keys) cannot grow the model without bound; evicted keys fall back
/// to the global rate, which is what a cold key blends to anyway.
inline constexpr size_t kConflictMaxTrackedKeys = 65536;

/// RTT a PlanetContext's latency model assumes before it has data.
inline constexpr Duration kLatencyPriorHint = Millis(250);

/// Tuning knobs of the PLANET layer.
struct PlanetConfig {
  /// Admission control: reject transactions whose prior commit likelihood is
  /// below the threshold (0 disables rejection even when enabled).
  bool enable_admission = false;
  double admission_threshold = 0.0;

  /// Latency-aware admission (extension): when > 0, the prior likelihood is
  /// computed as P(commit AND decision within this SLA) using the learned
  /// RTT model — so a saturated or degraded cluster sheds load before
  /// burning wide-area work on transactions that cannot meet the SLA.
  Duration admission_sla = 0;

  /// Damping of the classic-path rescue probability (correlated rejections
  /// make a fresh-state classic estimate optimistic).
  double classic_damp = 0.5;

  /// Ablation knob (experiment F3): when false the estimator composes
  /// vote-level conflict rates under the independence assumption instead of
  /// using the calibrated option-level outcome model. Vote-level rejections
  /// are correlated within an option, so this is measurably miscalibrated —
  /// kept to quantify the design choice.
  bool use_option_level_model = true;

  /// Failure detection: a DC whose oldest unanswered probe is older than
  /// this is treated as dead by the estimator — its outstanding votes are
  /// dropped from every quorum term. 0 disables failure detection.
  Duration dead_after = 0;

  /// Predictive early abort (experiment F11): kill an in-flight transaction
  /// as soon as its DoomScore (1 - commit likelihood) stays at or above this
  /// threshold for `kill_confirm` consecutive progress events. 0 disables
  /// the path entirely — no gauge is evaluated, no extra work is done, and
  /// runs replay byte-identical to the pre-feature stack.
  double kill_threshold = 0.0;

  /// Hysteresis band below the kill threshold: the confirmation streak only
  /// resets once doom falls below `kill_threshold - kill_hysteresis`, so a
  /// score oscillating around the threshold cannot flap the decision.
  double kill_hysteresis = 0.05;

  /// Consecutive at-or-above-threshold observations required before the
  /// kill fires (absorbs single-vote noise).
  int kill_confirm = 2;
};

/// Per-transaction kill gauge for predictive early abort. Feeds on the
/// DoomScore (1 - commit likelihood) after every progress event; trips once
/// the score holds at or above the threshold for `confirm` consecutive
/// observations. A hysteresis band keeps a borderline score from flapping
/// the streak: within [threshold - hysteresis, threshold) the streak holds
/// its value, and only a clear recovery below the band resets it.
/// Plain value type — one per in-flight transaction, no allocation.
class DoomGauge {
 public:
  DoomGauge() = default;
  DoomGauge(double threshold, double hysteresis, int confirm);

  /// Observes one doom score; returns true when the kill decision fires.
  /// Disabled gauges (threshold <= 0) always return false.
  bool Update(double doom);

  bool enabled() const { return threshold_ > 0.0; }
  int streak() const { return streak_; }

 private:
  double threshold_ = 0.0;
  double hysteresis_ = 0.0;
  int confirm_ = 1;
  int streak_ = 0;
};

/// Passive failure detector fed by the coordinator's own traffic: every
/// message sent toward a DC is a probe, every reply (vote, classic result)
/// is an ack. A DC is dead once its oldest unanswered probe is older than
/// `dead_after`; it revives on the next ack. No extra messages are sent, so
/// the simulation schedule is unchanged whether or not detection is enabled.
class ReachabilityTracker {
 public:
  ReachabilityTracker(int num_dcs, Duration dead_after);

  /// A message left for `dc` at `now` (only the oldest unanswered one
  /// matters).
  void RecordProbe(DcId dc, SimTime now);

  /// Any reply from `dc` observed at `now`.
  void RecordAck(DcId dc, SimTime now);

  /// True iff detection is on and `dc` has been silent past the deadline.
  bool IsDead(DcId dc, SimTime now) const;

  int AliveCount(SimTime now) const;
  Duration dead_after() const { return dead_after_; }

 private:
  int num_dcs_;
  Duration dead_after_;
  /// Send time of the oldest probe not yet answered; -1 = none outstanding.
  std::vector<SimTime> first_unanswered_;
};

/// Per-DC-pair round-trip model learned online from coordinator-observed
/// votes.
class LatencyModel {
 public:
  LatencyModel(int num_dcs, Duration prior_hint);

  void RecordRtt(DcId from, DcId to, Duration rtt);

  /// P(reply arrives within `budget` of the send).
  double ProbResponseWithin(DcId from, DcId to, Duration budget) const;

  /// P(reply arrives within `budget` more | silent for `elapsed` already).
  double ProbResponseWithinGiven(DcId from, DcId to, Duration elapsed,
                                 Duration budget) const;

  /// Observed RTT percentile (prior hint when no data).
  Duration RttPercentile(DcId from, DcId to, double pct) const;

  /// True once the link has enough samples for its learned CDF to be used.
  bool HasData(DcId from, DcId to) const;

  const Histogram& HistogramFor(DcId from, DcId to) const;
  uint64_t total_samples() const { return total_samples_; }

 private:
  size_t Index(DcId from, DcId to) const;

  int num_dcs_;
  Duration prior_hint_;
  std::vector<Histogram> hists_;
  uint64_t total_samples_ = 0;
};

/// Contention model, per key with a global fallback, learned at two levels:
///   * vote level — P(one acceptor rejects), from individual votes;
///   * option level — P(an option is ultimately not chosen), from option
///     decisions. Votes within an option are strongly correlated (a blocked
///     record rejects everywhere at once), so the option-level rate is the
///     calibrated signal; the vote-level rate is kept for diagnostics.
class ConflictModel {
 public:
  /// `max_tracked_keys` bounds each per-key map; see
  /// kConflictMaxTrackedKeys.
  explicit ConflictModel(double alpha,
                         size_t max_tracked_keys = kConflictMaxTrackedKeys);

  /// Feeds one acceptor vote (accepted / rejected-for-contention).
  void RecordVote(Key key, bool accepted);

  /// Feeds one option decision (chosen / failed).
  void RecordOptionOutcome(Key key, bool chosen);

  /// P(one more acceptor rejects an option on `key`). Blends the per-key
  /// EWMA with the global rate while the key has few observations.
  double ConflictProb(Key key) const;

  /// P(a fresh option on `key` ultimately fails). Same blending.
  double OptionFailProb(Key key) const;

  uint64_t observations() const { return global_votes_.observations(); }
  uint64_t option_observations() const {
    return global_options_.observations();
  }

  /// Currently tracked keys per level (bounded; exposed for tests).
  size_t tracked_vote_keys() const { return votes_per_key_.size(); }
  size_t tracked_option_keys() const { return options_per_key_.size(); }

 private:
  struct KeyStats {
    Ewma ewma{0.0};
    uint64_t last_touch = 0;  ///< model-wide tick of the last observation
  };
  using KeyMap = FlatMap<KeyStats>;

  static double Blend(const KeyMap& per_key, const Ewma& global, Key key);

  /// Observes `x` on `key`, evicting the coldest half of the map when it
  /// outgrows the bound. Eviction order is by last_touch (unique per entry),
  /// so the model stays deterministic for a deterministic call sequence.
  void Touch(KeyMap* per_key, Key key, double x);

  double alpha_;
  size_t max_tracked_keys_;
  uint64_t tick_ = 0;
  Ewma global_votes_;
  Ewma global_options_;
  KeyMap votes_per_key_;
  KeyMap options_per_key_;
};

/// P(X >= k) for X ~ Binomial(n, p). Exposed for tests.
double BinomialTail(int n, double p, int k);

/// Maps live transaction progress to commit likelihood.
class CommitLikelihoodEstimator {
 public:
  /// `reach` (optional) adds dead-DC awareness: outstanding votes from dead
  /// acceptors are written off instead of counted as still-possible.
  CommitLikelihoodEstimator(const MdccConfig& mdcc, const PlanetConfig& planet,
                            const LatencyModel* latency,
                            const ConflictModel* conflict,
                            const ReachabilityTracker* reach = nullptr);

  /// P(this transaction eventually commits), from the coordinator view.
  /// `now` (when nonzero, with a tracker installed) enables the dead-DC
  /// terms; the default keeps reachability-blind call sites valid.
  double Estimate(const TxnView& view, SimTime now = 0) const;

  /// P(commit and all needed votes arrive within `budget` from `now`);
  /// `client_dc` locates the coordinator for the latency model.
  double EstimateBy(const TxnView& view, SimTime now, Duration budget,
                    DcId client_dc) const;

  /// Prior likelihood of a not-yet-proposed write set (admission control):
  /// every option starts with zero votes. Nonzero `now` adds the dead-DC
  /// terms (a dead fast-quorum makes the prior drop sharply).
  double EstimateFresh(const std::vector<WriteOption>& writes,
                       SimTime now = 0) const;

  /// P(fresh write set commits AND the decision arrives within `sla`),
  /// combining the conflict prior with the learned RTT tails from
  /// `client_dc` (latency-aware admission).
  double EstimateFreshBy(const std::vector<WriteOption>& writes, Duration sla,
                         DcId client_dc, SimTime now = 0) const;

  /// Probability a single fresh option is eventually chosen. Driven by the
  /// option-level outcome model (self-calibrating); falls back to the
  /// vote-level binomial when no option outcomes have been observed yet.
  double FreshOptionLikelihood(Key key) const;

  /// The per-acceptor accept probability implied by the option-level
  /// outcome rate of `key` under the independence model (inverted
  /// numerically). Feeds the in-flight vote-progress updates so that the
  /// zero-vote estimate coincides with FreshOptionLikelihood.
  double EffectiveAcceptProb(Key key) const;

  /// EffectiveAcceptProb for a target likelihood in [0, 1]: the answer of
  /// a 30-step bisection for the q whose fresh-option success is `target`.
  double EffectiveAcceptProbFor(double target) const;

  /// Bound on |computed - exact| fresh-option success probability at any q
  /// in [0, 1], for num_dcs <= kMaxCertifiedDcs and classic_damp in [0, 1].
  /// The derivation is in predictor.cc; the inversion's fast path relies
  /// on it and falls back to the plain bisection outside that range.
  static constexpr double kFreshSuccessError = 1e-13;
  static constexpr int kMaxCertifiedDcs = 64;

 private:
  /// One slot of a direct-mapped memo of the accept-probability inversion,
  /// keyed by the bit pattern of its target FreshOptionLikelihood(key).
  /// Exact: q_eff depends only on the target and this estimator's fixed
  /// configs, so a hit returns the bits the bisection would compute. A
  /// colliding target overwrites the slot.
  struct AcceptProb {
    uint64_t target_bits;
    double q_eff;
    double rescue;  ///< ClassicRescue(1 - q_eff)
  };
  static constexpr int kMemoBits = 10;
  /// Bisection levels: the answer is the midpoint of a 2^-30 cell.
  static constexpr int kLevels = 30;
  /// Bisection levels whose midpoint values are cached.
  static constexpr int kTreeLevels = 12;

  /// The inversion for `target`: a memo hit, or on a miss the cached tree
  /// levels followed by CertifiedBisection or the plain loop.
  AcceptProb AcceptProbFor(double target) const;

  /// Finishes the bisection inside the cached cell [lo, lo + 2^-12], whose
  /// ends have f_lo and f_hi, from a guess that two evaluations certify;
  /// -1 when the certificate fails.
  double CertifiedBisection(double target, double lo, double f_lo,
                            double f_hi) const;

  /// Likelihood of one in-flight option, optionally latency-constrained.
  double OptionLikelihood(const OptionProgress& op, bool with_latency,
                          SimTime now, Duration budget, DcId client_dc) const;

  double ClassicRescue(double conflict_prob) const;

  /// P(fresh option chosen) if each acceptor independently accepts with
  /// probability q (fast quorum + damped classic rescue).
  double FreshSuccessGivenAcceptProb(double q) const;

  MdccConfig mdcc_;
  PlanetConfig planet_;
  const LatencyModel* latency_;
  const ConflictModel* conflict_;
  const ReachabilityTracker* reach_;

  // Caches filled on use by the const estimates. An estimator belongs to
  // one PlanetContext, so to one cluster and one shard thread.
  mutable std::array<AcceptProb, 1u << kMemoBits> memo_;
  /// FreshSuccessGivenAcceptProb at each cached bisection midpoint, in heap
  /// order; -1 until computed.
  mutable std::array<double, (1u << kTreeLevels) - 1> tree_;
};

/// Reliability-diagram tracker: buckets predictions and records outcomes so
/// experiment F3 can compare predicted vs observed commit rates.
class CalibrationTracker {
 public:
  explicit CalibrationTracker(int buckets);

  void Record(double predicted, bool committed);

  struct Bucket {
    double lo = 0;
    double hi = 0;
    uint64_t total = 0;
    uint64_t committed = 0;
    double mean_predicted = 0;  ///< average prediction in the bucket
  };
  std::vector<Bucket> Buckets() const;

  uint64_t total() const { return total_; }

  /// Expected calibration error: sum over buckets of
  /// |observed - predicted| weighted by bucket mass.
  double ExpectedCalibrationError() const;

 private:
  int buckets_;
  std::vector<uint64_t> totals_;
  std::vector<uint64_t> committed_;
  std::vector<double> predicted_sum_;
  uint64_t total_ = 0;
};

}  // namespace planet

#endif  // PLANET_PLANET_PREDICTOR_H_
