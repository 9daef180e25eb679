// planet_fuzz: deterministic protocol fuzzer for the PLANET/MDCC/2PC stacks.
//
// From a single 64-bit seed it derives a full scenario — workload shape,
// client population, WAN jitter, and a fault schedule — runs the simulated
// cluster to quiescence, and feeds the recorded history to both correctness
// oracles (the serialization-graph checker and the replica-convergence
// oracle). Everything downstream of the seed is deterministic, so any
// reported violation is replayable from the printed command line.
//
// When a violation is found the failing scenario is shrunk before being
// reported: fault events are dropped greedily, the run is shortened, and
// the client population is reduced, as long as the smaller scenario still
// fails. The shrunk repro line (and witness) can be written to a file with
// --artifact for CI upload.
//
// Self-test mode: --chaos-drop-learn N makes every replica outside DC 0
// silently discard its first N committed physical learns (a synthetic
// lost-update bug). Both oracles must flag such runs; --expect-violation
// inverts the exit code so CI can assert the oracles still have teeth.
//
// Predictive mode: --predict runs the IsoPredict-style analysis over each
// clean run's history (see check/predict.h). Every predicted reordering is
// replayed on the same seed with its delay directives applied; a replay
// whose checker reports a mode-permitted cycle *confirms* the prediction,
// and the confirmed scenario is shrunk to a repro line carrying
// --isolation and --delay-txn flags. --expect-witness inverts the exit
// code around witnesses the way --expect-violation does around bugs.
//
// Exit codes: 0 = clean (or violation found under --expect-violation),
// 1 = violation found (or none found under --expect-violation), 2 = usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/convergence.h"
#include "check/predict.h"
#include "check/serializability.h"
#include "fault/fault.h"
#include "harness/cluster.h"
#include "harness/metrics.h"
#include "workload/runners.h"

namespace planet {
namespace {

enum class StackKind { kPlanet, kMdcc, kTpc };

/// Every fuzzed deployment has the default five DCs.
constexpr int kNumDcs = 5;

const char* StackName(StackKind stack) {
  switch (stack) {
    case StackKind::kPlanet: return "planet";
    case StackKind::kMdcc: return "mdcc";
    case StackKind::kTpc: return "tpc";
  }
  return "?";
}

struct FuzzFlags {
  int seeds = 20;
  uint64_t seed_start = 1;
  int64_t single_seed = -1;   ///< --seed: run exactly this one
  int64_t duration_ms = 20000;
  std::string stack = "mixed";  ///< planet | mdcc | tpc | mixed
  int chaos_drop_learn = 0;
  bool fault_override = false;  ///< --fault given ('none' = no faults)
  FaultSchedule faults;         ///< the --fault schedule
  int clients_override = -1;    ///< -1 = derived
  bool no_shrink = false;
  bool expect_violation = false;
  std::string artifact;
  bool verbose = false;
  int64_t dump_key = -1;  ///< debug: dump one key's WAL + history post-run
  /// Isolation mode every client runs under (tentpole knobs).
  IsolationLevel isolation = IsolationLevel::kSerializable;
  bool predict = false;         ///< run the predictive pass on clean runs
  bool expect_witness = false;  ///< exit 0 iff >= 1 witness (predict mode)
  ScheduleDelays delays;        ///< --delay-txn replay directives
  /// Workload overrides (-1 = derived); repro lines carry them so
  /// predictive witnesses replay with the exact contention shape.
  int64_t keys_override = -1;
  int reads_override = -1;
  int writes_override = -1;
  /// Predictive early abort (F11). 0 = off (the default keeps every
  /// committed corpus repro line replaying byte-identically);
  /// --derive-kill-threshold samples a per-seed threshold instead.
  double kill_threshold = 0;
  int kill_confirm = 2;
  bool derive_kill = false;
};

/// One fully derived scenario. Everything the run depends on lives here, so
/// the shrinker can mutate fields and re-run without re-deriving.
struct FuzzCase {
  uint64_t seed = 0;
  StackKind stack = StackKind::kPlanet;
  Duration duration = 0;
  WorkloadConfig wl;
  int clients_per_dc = 1;
  FaultSchedule faults;
  int chaos_drop_learn = 0;
  /// PLANET runner policy knobs (0 deadline = speculation disabled).
  Duration speculation_deadline = 0;
  int64_t dump_key = -1;  ///< debug: dump one key's WAL + history post-run
  /// Isolation mode for every client (kSerializable = pre-mode behaviour).
  IsolationLevel isolation = IsolationLevel::kSerializable;
  /// Commit-submission delays applied on predictive replays. TxnIds are
  /// per-client sequence numbers, stable across replays of the same seed.
  ScheduleDelays delays;
  /// Echo of the workload override flags, for exact repro lines.
  int64_t keys_override = -1;
  int reads_override = -1;
  int writes_override = -1;
  /// Effective early-abort knobs (derived or overridden); repro lines echo
  /// the resolved values so replays never re-derive.
  double kill_threshold = 0;
  int kill_confirm = 2;
};

/// Debug aid (--dump-key): prints one key's per-replica state, its WAL
/// entries, and every recorded txn touching it.
template <typename ClusterT>
void DumpKey(ClusterT& cluster, const History& history, Key key) {
  std::printf("---- dump key %llu ----\n",
              static_cast<unsigned long long>(key));
  for (DcId dc = 0; dc < cluster.num_dcs(); ++dc) {
    const auto& store = cluster.node(dc)->store();
    RecordView rv = store.Read(key);
    uint64_t deltas = 0;
    for (const SyncEntry& e : store.ExportState()) {
      if (e.key == key) deltas = e.deltas_applied;
    }
    std::printf("replica %d: v%llu=%lld deltas_applied=%llu wal:",
                dc, static_cast<unsigned long long>(rv.version),
                static_cast<long long>(rv.value),
                static_cast<unsigned long long>(deltas));
    for (const WalEntry& e : store.wal()) {
      if (e.key != key) continue;
      std::printf(" [txn %llu v%llu=%lld]",
                  static_cast<unsigned long long>(e.txn),
                  static_cast<unsigned long long>(e.new_version),
                  static_cast<long long>(e.new_value));
    }
    std::printf("\n");
  }
  for (const SeededKey& s : history.seeds()) {
    if (s.key == key) {
      std::printf("seed: v%llu=%lld\n",
                  static_cast<unsigned long long>(s.version),
                  static_cast<long long>(s.value));
    }
  }
  for (const RecordedTxn& t : history.txns()) {
    for (const RecordedWrite& w : t.writes) {
      if (w.key != Key(key)) continue;
      std::printf("txn %llu (%s, decide=%.3f): %s read_v=%llu new=%lld "
                  "delta=%lld\n",
                  static_cast<unsigned long long>(t.id),
                  TxnOutcomeName(t.outcome),
                  static_cast<double>(t.decide) / 1e6,
                  w.kind == OptionKind::kPhysical ? "phys" : "comm",
                  static_cast<unsigned long long>(w.read_version),
                  static_cast<long long>(w.new_value),
                  static_cast<long long>(w.delta));
    }
  }
  std::printf("---- end dump ----\n");
}

/// Formats a schedule in FaultSchedule::Parse grammar, so repro lines
/// round-trip exactly (ToString is for humans, not for Parse).
std::string ScheduleSpec(const FaultSchedule& schedule) {
  std::ostringstream oss;
  bool first = true;
  for (const FaultEvent& e : schedule.Sorted()) {
    if (!first) oss << ",";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s@%.6f:%d", FaultKindName(e.kind),
                  static_cast<double>(e.at) / 1e6, e.dc);
    oss << buf;
    if (e.kind == FaultKind::kSpikeDc) {
      oss << ":" << e.spike_extra / 1000;
    }
  }
  return oss.str();
}

/// Derives a random-but-deterministic fault schedule: up to `max_incidents`
/// paired incidents (crash+restart / partition+heal / spike+clear) on
/// distinct DCs, all healed before 85% of the run so the final quiesce sees
/// every replica live. Generated through the Parse grammar so the schedule
/// is identical whether derived or replayed from a --fault flag.
FaultSchedule DeriveFaults(Rng rng, Duration duration, int num_dcs,
                           int max_incidents) {
  int incidents = static_cast<int>(rng.UniformInt(0, max_incidents));
  if (incidents == 0) return FaultSchedule{};
  std::vector<DcId> dcs;
  for (DcId dc = 0; dc < num_dcs; ++dc) dcs.push_back(dc);
  std::ostringstream spec;
  for (int i = 0; i < incidents; ++i) {
    size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(dcs.size()) - 1));
    DcId dc = dcs[pick];
    dcs.erase(dcs.begin() + static_cast<long>(pick));

    double dur_s = static_cast<double>(duration) / 1e6;
    // Millisecond granularity keeps the spec round-trip exact.
    double start = std::floor(dur_s * (0.15 + 0.40 * rng.NextDouble()) * 1e3) / 1e3;
    double length = std::floor(dur_s * (0.10 + 0.15 * rng.NextDouble()) * 1e3) / 1e3;
    double end = std::min(start + length, dur_s * 0.85);
    int kind = static_cast<int>(rng.UniformInt(0, 2));
    if (i > 0) spec << ",";
    char buf[128];
    switch (kind) {
      case 0:
        std::snprintf(buf, sizeof(buf), "crash@%.3f:%d,restart@%.3f:%d",
                      start, dc, end, dc);
        break;
      case 1:
        std::snprintf(buf, sizeof(buf), "partition@%.3f:%d,heal@%.3f:%d",
                      start, dc, end, dc);
        break;
      default: {
        int extra_ms = static_cast<int>(rng.UniformInt(1, 3)) * 100;
        std::snprintf(buf, sizeof(buf),
                      "spike@%.3f:%d:%d,clearspike@%.3f:%d", start, dc,
                      extra_ms, end, dc);
        break;
      }
    }
    spec << buf;
  }
  FaultSchedule schedule;
  std::string error;
  bool ok = FaultSchedule::Parse(spec.str(), &schedule, &error);
  PLANET_CHECK_MSG(ok, "derived schedule failed to parse: " << error);
  return schedule;
}

/// Derives the scenario of one seed. Independent Rng forks per aspect, so a
/// flag override of one aspect never shifts the draws of another.
FuzzCase DeriveCase(uint64_t seed, const FuzzFlags& flags) {
  FuzzCase c;
  c.seed = seed;
  c.duration = Millis(flags.duration_ms);
  c.chaos_drop_learn = flags.chaos_drop_learn;
  c.dump_key = flags.dump_key;

  Rng stack_rng = Rng(seed).Fork(12);
  if (flags.stack == "planet") {
    c.stack = StackKind::kPlanet;
  } else if (flags.stack == "mdcc") {
    c.stack = StackKind::kMdcc;
  } else if (flags.stack == "tpc") {
    c.stack = StackKind::kTpc;
  } else {  // mixed; chaos lives in the MDCC replica, so skip 2PC then
    int hi = flags.chaos_drop_learn > 0 ? 1 : 2;
    switch (stack_rng.UniformInt(0, hi)) {
      case 0: c.stack = StackKind::kPlanet; break;
      case 1: c.stack = StackKind::kMdcc; break;
      default: c.stack = StackKind::kTpc; break;
    }
  }

  Rng wl_rng = Rng(seed).Fork(11);
  const uint64_t key_choices[] = {16, 64, 256, 1024};
  c.wl.num_keys = key_choices[wl_rng.UniformInt(0, 3)];
  switch (wl_rng.UniformInt(0, 2)) {
    case 0: c.wl.dist = KeyDist::kUniform; break;
    case 1:
      c.wl.dist = KeyDist::kZipf;
      c.wl.zipf_theta = 0.7 + 0.29 * wl_rng.NextDouble();
      break;
    default:
      c.wl.dist = KeyDist::kHotspot;
      c.wl.hot_keys = std::max<uint64_t>(1, c.wl.num_keys / 8);
      c.wl.hot_fraction = 0.8;
      break;
  }
  c.wl.reads_per_txn = static_cast<int>(wl_rng.UniformInt(0, 2));
  c.wl.writes_per_txn = static_cast<int>(wl_rng.UniformInt(0, 2));
  if (c.wl.reads_per_txn == 0 && c.wl.writes_per_txn == 0) {
    c.wl.writes_per_txn = 1;
  }
  // Always draw, then mask: keeps the stream aligned across stack choices.
  bool commutative = wl_rng.Bernoulli(0.25);
  c.wl.commutative = commutative && c.stack != StackKind::kTpc &&
                     c.wl.writes_per_txn > 0;
  c.speculation_deadline =
      wl_rng.Bernoulli(0.5) ? Millis(100 * wl_rng.UniformInt(1, 3)) : 0;

  c.clients_per_dc = flags.clients_override > 0
                         ? flags.clients_override
                         : static_cast<int>(Rng(seed).Fork(15).UniformInt(1, 3));

  // Workload overrides land after every derivation draw, so they never
  // shift another aspect's stream.
  c.isolation = flags.isolation;
  c.delays = flags.delays;
  c.keys_override = flags.keys_override;
  c.reads_override = flags.reads_override;
  c.writes_override = flags.writes_override;
  if (flags.keys_override > 0) {
    c.wl.num_keys = static_cast<uint64_t>(flags.keys_override);
    if (c.wl.dist == KeyDist::kHotspot) {
      c.wl.hot_keys = std::max<uint64_t>(1, c.wl.num_keys / 8);
    }
  }
  if (flags.reads_override >= 0) c.wl.reads_per_txn = flags.reads_override;
  if (flags.writes_override >= 0) c.wl.writes_per_txn = flags.writes_override;
  if (c.wl.writes_per_txn == 0) c.wl.commutative = false;

  // Early-abort derivation rides its own fork (16) and runs after every
  // pre-existing draw, so turning it on never shifts another aspect's
  // stream — seed N's workload/faults are the same with or without it.
  c.kill_threshold = flags.kill_threshold;
  c.kill_confirm = flags.kill_confirm;
  if (flags.derive_kill) {
    Rng kill_rng = Rng(seed).Fork(16);
    // Half the seeds keep the path off (the control arm); the rest sample
    // the plausible operating band.
    if (kill_rng.Bernoulli(0.5)) {
      c.kill_threshold = 0.7 + 0.29 * kill_rng.NextDouble();
      c.kill_confirm = static_cast<int>(kill_rng.UniformInt(1, 3));
    }
  }

  if (c.stack == StackKind::kTpc) {
    // 2PC has no anti-entropy: replicas a fault made miss replication stay
    // behind forever, which is the baseline's documented blocking behaviour,
    // not a bug. Fuzz it fault-free so the convergence oracle applies.
    c.faults = FaultSchedule{};
  } else if (flags.fault_override) {
    c.faults = flags.faults;
  } else {
    // Commutative runs get at most one incident: with two overlapping
    // outages no replica is guaranteed to have seen every delta, and the
    // count-based anti-entropy can then legitimately fail to pick a winner.
    int max_incidents = c.wl.commutative ? 1 : 2;
    c.faults =
        DeriveFaults(Rng(seed).Fork(13), c.duration, kNumDcs, max_incidents);
  }
  return c;
}

/// The full outcome of one scenario run.
struct RunOutcome {
  RunMetrics metrics;
  size_t recorded_txns = 0;
  CheckReport serial;
  ConvergenceReport conv;
  History history;  ///< recorded run, input of the predictive pass

  bool violated() const { return !serial.ok() || !conv.ok(); }

  /// Mode-permitted serialization cycles: the witness material weak
  /// isolation modes are fuzzed for (not protocol bugs, so not violated()).
  size_t witnesses() const {
    size_t n = 0;
    for (const Violation& v : serial.violations) {
      if (v.mode_permitted && v.kind == ViolationKind::kCycle) ++n;
    }
    return n;
  }

  std::string ViolationText() const {
    std::ostringstream oss;
    for (const Violation& v : serial.violations) {
      oss << "  [serializability] " << v.ToString() << "\n";
    }
    for (const ConvergenceViolation& v : conv.violations) {
      oss << "  [convergence] " << v.ToString() << "\n";
    }
    return oss.str();
  }
};

/// Seeds a prefix of the key space with deterministic values (the oracles
/// then have non-trivial initial chains to check against).
template <typename ClusterT>
void SeedKeys(ClusterT& cluster, const FuzzCase& c) {
  Rng seed_rng = Rng(c.seed).Fork(14);
  uint64_t count = std::min<uint64_t>(c.wl.num_keys, 64);
  for (Key key = 0; key < count; ++key) {
    cluster.SeedKey(key, seed_rng.UniformInt(0, 99));
  }
}

// The stack-specific parts of a run, overloaded on the cluster type.

void Configure(const FuzzCase& c, ClusterOptions* options) {
  options->mdcc.txn_timeout = Seconds(2);
  options->mdcc.read_timeout = Millis(500);
  options->mdcc.chaos_drop_learn = c.chaos_drop_learn;
  options->recovery_period = Seconds(1);
  options->planet.kill_threshold = c.kill_threshold;
  options->planet.kill_confirm = c.kill_confirm;
}

void Configure(const FuzzCase& /*c*/, TpcClusterOptions* options) {
  options->tpc.txn_timeout = Seconds(2);
  options->tpc.read_timeout = Millis(500);
}

TxnRunner MakeRunner(const FuzzCase& c, Cluster& cluster, int i) {
  Rng rng = cluster.ForkRng(200 + uint64_t(i));
  if (c.stack == StackKind::kMdcc) {
    return MakeMdccRunner(cluster.client(i), c.wl, rng);
  }
  PlanetRunnerPolicy policy;
  policy.speculation_deadline = c.speculation_deadline;
  policy.speculate_threshold = 0.7;
  policy.give_up_below = false;
  return MakePlanetRunner(cluster.planet_client(i), c.wl, rng, policy);
}

TxnRunner MakeRunner(const FuzzCase& c, TpcCluster& cluster, int i) {
  return MakeTpcRunner(cluster.client(i), c.wl,
                       cluster.ForkRng(200 + uint64_t(i)));
}

/// Quiesce: one explicit anti-entropy round across all live replicas (the
/// fault schedules heal everything before the run ends, so normally all 5).
void Quiesce(Cluster& cluster) {
  for (DcId dc = 0; dc < cluster.num_dcs(); ++dc) {
    if (!cluster.replica(dc)->crashed()) cluster.replica(dc)->RequestSyncAll();
  }
  cluster.Drain();
}

/// Fault-free 2PC: draining delivers every replication message, so no
/// extra quiesce round exists (or is needed) — there is no anti-entropy.
void Quiesce(TpcCluster& /*cluster*/) {}

CheckerOptions SerialOptions(const Cluster& /*cluster*/) { return {}; }

/// A 2PC commit whose ack quorum never arrived may or may not have applied.
CheckerOptions SerialOptions(const TpcCluster& /*cluster*/) {
  CheckerOptions options;
  options.allow_in_doubt_writers = true;
  return options;
}

template <typename ClusterT>
RunOutcome Run(const FuzzCase& c) {
  typename ClusterT::Options options;
  options.seed = c.seed;
  options.clients_per_dc = c.clients_per_dc;
  options.isolation = c.isolation;
  options.faults = c.faults;
  Configure(c, &options);
  ClusterT cluster(options);

  HistoryRecorder recorder;
  cluster.SetHistoryRecorder(&recorder);
  if (!c.delays.empty()) cluster.SetScheduleDelays(&c.delays);
  SeedKeys(cluster, c);

  RunOutcome out;
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    auto gen = std::make_unique<LoadGenerator>(
        &cluster.sim(), cluster.ForkRng(100 + uint64_t(i)),
        MakeRunner(c, cluster, i), LoadGenerator::Options{});
    gen->SetResultSink(out.metrics.Sink());
    gen->Start(c.duration);
    generators.push_back(std::move(gen));
  }
  cluster.Drain();
  Quiesce(cluster);

  const History& history = recorder.history();
  out.recorded_txns = history.txns().size();
  out.serial = CheckSerializability(history, SerialOptions(cluster));
  out.conv = CheckConvergence(cluster.LiveReplicaStates(), &history);
  if (c.dump_key >= 0) DumpKey(cluster, history, Key(c.dump_key));
  out.history = history;
  return out;
}

RunOutcome RunCase(const FuzzCase& c) {
  return c.stack == StackKind::kTpc ? Run<TpcCluster>(c) : Run<Cluster>(c);
}

std::string ReproLine(const FuzzCase& c) {
  std::ostringstream oss;
  oss << "planet_fuzz --seed " << c.seed << " --stack " << StackName(c.stack)
      << " --duration-ms " << c.duration / 1000 << " --clients "
      << c.clients_per_dc;
  if (c.chaos_drop_learn > 0) {
    oss << " --chaos-drop-learn " << c.chaos_drop_learn;
  }
  if (c.stack != StackKind::kTpc) {
    oss << " --fault '"
        << (c.faults.empty() ? std::string("none") : ScheduleSpec(c.faults))
        << "'";
  }
  if (c.isolation != IsolationLevel::kSerializable) {
    oss << " --isolation " << IsolationLevelName(c.isolation);
  }
  if (c.keys_override > 0) oss << " --keys " << c.keys_override;
  if (c.reads_override >= 0) oss << " --reads " << c.reads_override;
  if (c.writes_override >= 0) oss << " --writes " << c.writes_override;
  if (c.kill_threshold > 0 && c.stack == StackKind::kPlanet) {
    // Echo the *effective* threshold (derived or flagged): replays pin the
    // value directly instead of re-deriving.
    char buf[48];
    std::snprintf(buf, sizeof(buf), " --kill-threshold %.6f --kill-confirm %d",
                  c.kill_threshold, c.kill_confirm);
    oss << buf;
  }
  for (const auto& [txn, delay] : c.delays) {
    oss << " --delay-txn " << txn << ":" << delay;
  }
  return oss.str();
}

std::string CaseSummary(const FuzzCase& c) {
  std::ostringstream oss;
  oss << "stack=" << StackName(c.stack) << " keys=" << c.wl.num_keys
      << " rw=" << c.wl.reads_per_txn << "/" << c.wl.writes_per_txn
      << (c.wl.commutative ? " comm" : "") << " clients=" << c.clients_per_dc
      << "x5 faults=" << c.faults.size();
  if (c.isolation != IsolationLevel::kSerializable) {
    oss << " iso=" << IsolationLevelName(c.isolation);
  }
  if (c.kill_threshold > 0 && c.stack == StackKind::kPlanet) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " kill=%.3f/%d", c.kill_threshold,
                  c.kill_confirm);
    oss << buf;
  }
  if (!c.delays.empty()) oss << " delays=" << c.delays.size();
  return oss.str();
}

/// Greedy schedule/duration/client minimization: keep any mutation that
/// still satisfies `bad` (oracle violation by default; mode-permitted
/// witness reproduction for predictive shrinks). Every candidate is a full
/// deterministic re-run, so the surviving scenario is replayable as
/// printed. When delay directives are present the client population is
/// left alone: TxnIds embed the issuing client's node id, and dropping
/// clients could unmoor a directive from its transaction.
FuzzCase Shrink(FuzzCase c, int* runs_out,
                const std::function<bool(const RunOutcome&)>& bad =
                    [](const RunOutcome& out) { return out.violated(); }) {
  int runs = 0;
  auto still_fails = [&](const FuzzCase& candidate) {
    ++runs;
    return bad(RunCase(candidate));
  };

  // 1. Drop fault events. Single events first; if Validate rejects the
  //    orphaned half of a pair, drop the pair together.
  bool improved = true;
  while (improved && !c.faults.empty()) {
    improved = false;
    std::vector<FaultEvent> events = c.faults.Sorted();
    for (size_t i = 0; i < events.size() && !improved; ++i) {
      for (size_t j = i; j < events.size() && !improved; ++j) {
        FaultSchedule candidate_faults;
        for (size_t k = 0; k < events.size(); ++k) {
          if (k == i || k == j) continue;
          candidate_faults.Add(events[k]);
        }
        if (!candidate_faults.Validate(kNumDcs).ok()) continue;
        FuzzCase candidate = c;
        candidate.faults = candidate_faults;
        if (still_fails(candidate)) {
          c = candidate;
          improved = true;
        }
        if (i != j) continue;  // single-event removal also tries pairs next
      }
    }
  }

  // 2. Shorten the run (halving, floor 1s).
  while (c.duration / 2 >= Seconds(1)) {
    FuzzCase candidate = c;
    candidate.duration = c.duration / 2;
    if (!still_fails(candidate)) break;
    c = candidate;
  }

  // 3. Fewer clients (skipped when delay directives pin client node ids).
  while (c.delays.empty() && c.clients_per_dc > 1) {
    FuzzCase candidate = c;
    candidate.clients_per_dc = c.clients_per_dc - 1;
    if (!still_fails(candidate)) break;
    c = candidate;
  }

  if (runs_out != nullptr) *runs_out = runs;
  return c;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: planet_fuzz [options]\n"
      "  --seeds N             number of consecutive seeds to run (default 20)\n"
      "  --seed-start S        first seed (default 1)\n"
      "  --seed S              run exactly one seed\n"
      "  --duration-ms D       simulated run length per seed (default 20000)\n"
      "  --stack S             planet | mdcc | tpc | mixed (default mixed)\n"
      "  --clients N           override derived clients per DC\n"
      "  --fault SPEC          override derived fault schedule ('none' = off)\n"
      "  --chaos-drop-learn N  oracle self-test: drop first N learns per\n"
      "                        non-DC0 replica (must produce violations)\n"
      "  --isolation MODE      serializable | read_committed | causal\n"
      "                        (default serializable, the validated mode)\n"
      "  --keys N              override derived key-space size\n"
      "  --reads N             override derived reads per txn\n"
      "  --writes N            override derived writes per txn\n"
      "  --kill-threshold X    predictive early abort: kill in-flight PLANET\n"
      "                        txns whose doom score holds >= X (default 0 =\n"
      "                        off; repro lines echo the effective value)\n"
      "  --kill-confirm N      consecutive doomed observations before the\n"
      "                        kill fires (default 2)\n"
      "  --derive-kill-threshold\n"
      "                        sample kill threshold/confirm per seed (half\n"
      "                        the seeds stay off as the control arm)\n"
      "  --predict             predictive pass: enumerate feasible commit\n"
      "                        reorderings of each clean run, replay each\n"
      "                        with delay directives, report confirmed\n"
      "                        unserializable witnesses (shrunk)\n"
      "  --delay-txn T:MICROS  delay txn T's commit submission (repeatable;\n"
      "                        how witness repro lines replay)\n"
      "  --expect-witness      exit 0 iff at least one mode-permitted\n"
      "                        witness was observed or confirmed\n"
      "  --expect-violation    exit 0 iff at least one violation was found\n"
      "  --no-shrink           report the first failure unminimized\n"
      "  --artifact PATH       write the shrunk repro + witness to PATH\n"
      "  --dump-key K          debug: dump key K's per-replica state, WAL\n"
      "                        entries, and recorded txns after each run\n"
      "  -v                    per-seed scenario details\n");
  return 2;
}

int Main(int argc, char** argv) {
  FuzzFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      flags.seeds = std::atoi(next());
    } else if (arg == "--seed-start") {
      flags.seed_start = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      flags.single_seed = static_cast<int64_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--duration-ms") {
      flags.duration_ms = std::atoll(next());
    } else if (arg == "--stack") {
      flags.stack = next();
    } else if (arg == "--clients") {
      flags.clients_override = std::atoi(next());
    } else if (arg == "--fault") {
      std::string spec = next();
      flags.fault_override = true;
      std::string error;
      if (spec != "none" &&
          !FaultSchedule::Parse(spec, &flags.faults, &error)) {
        std::fprintf(stderr, "bad --fault: %s\n", error.c_str());
        return Usage();
      }
    } else if (arg == "--chaos-drop-learn") {
      flags.chaos_drop_learn = std::atoi(next());
    } else if (arg == "--isolation") {
      const char* mode = next();
      if (!ParseIsolationLevel(mode, &flags.isolation)) {
        std::fprintf(stderr, "bad --isolation: %s\n", mode);
        return Usage();
      }
    } else if (arg == "--keys") {
      flags.keys_override = std::atoll(next());
    } else if (arg == "--reads") {
      flags.reads_override = std::atoi(next());
    } else if (arg == "--writes") {
      flags.writes_override = std::atoi(next());
    } else if (arg == "--kill-threshold") {
      flags.kill_threshold = std::atof(next());
    } else if (arg == "--kill-confirm") {
      flags.kill_confirm = std::atoi(next());
      if (flags.kill_confirm < 1) {
        std::fprintf(stderr, "--kill-confirm wants a positive count\n");
        return Usage();
      }
    } else if (arg == "--derive-kill-threshold") {
      flags.derive_kill = true;
    } else if (arg == "--predict") {
      flags.predict = true;
    } else if (arg == "--expect-witness") {
      flags.expect_witness = true;
    } else if (arg == "--delay-txn") {
      std::string spec = next();
      size_t colon = spec.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "bad --delay-txn (want TXN:MICROS): %s\n",
                     spec.c_str());
        return Usage();
      }
      TxnId txn = std::strtoull(spec.substr(0, colon).c_str(), nullptr, 10);
      Duration delay = std::atoll(spec.substr(colon + 1).c_str());
      flags.delays[txn] += delay;
    } else if (arg == "--expect-violation") {
      flags.expect_violation = true;
    } else if (arg == "--no-shrink") {
      flags.no_shrink = true;
    } else if (arg == "--artifact") {
      flags.artifact = next();
    } else if (arg == "--dump-key") {
      flags.dump_key = std::atoll(next());
    } else if (arg == "-v" || arg == "--verbose") {
      flags.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (flags.stack != "planet" && flags.stack != "mdcc" &&
      flags.stack != "tpc" && flags.stack != "mixed") {
    std::fprintf(stderr, "bad --stack: %s\n", flags.stack.c_str());
    return Usage();
  }
  if (flags.single_seed < 0 && flags.seeds < 1) {
    std::fprintf(stderr, "--seeds wants a positive count\n");
    return Usage();
  }
  Status valid = flags.faults.Validate(kNumDcs);
  if (!valid.ok()) {
    std::fprintf(stderr, "bad --fault: %s\n", valid.ToString().c_str());
    return Usage();
  }
  if (flags.chaos_drop_learn > 0 && flags.stack == "tpc") {
    std::fprintf(stderr,
                 "--chaos-drop-learn mutates the MDCC replica; "
                 "--stack tpc never exercises it\n");
    return Usage();
  }

  std::vector<uint64_t> seeds;
  if (flags.single_seed >= 0) {
    seeds.push_back(static_cast<uint64_t>(flags.single_seed));
  } else {
    for (int i = 0; i < flags.seeds; ++i) {
      seeds.push_back(flags.seed_start + static_cast<uint64_t>(i));
    }
  }

  RunMetrics totals;
  int violations_found = 0;
  size_t witnesses_found = 0;
  for (uint64_t seed : seeds) {
    FuzzCase c = DeriveCase(seed, flags);
    RunOutcome out = RunCase(c);
    totals.Merge(out.metrics);
    if (flags.verbose) {
      std::printf("[seed %llu] %s txns=%zu committed=%llu %s\n",
                  static_cast<unsigned long long>(seed),
                  CaseSummary(c).c_str(), out.recorded_txns,
                  static_cast<unsigned long long>(out.metrics.committed),
                  out.violated() ? "VIOLATION" : "ok");
    }
    if (!out.violated()) {
      // Witnesses the base run already exhibits (weak-mode anomalies the
      // checker classified as mode-permitted).
      witnesses_found += out.witnesses();
      if (out.witnesses() > 0 && (flags.expect_witness || flags.verbose)) {
        for (const Violation& v : out.serial.violations) {
          if (v.mode_permitted) {
            std::printf("  [witness] %s\n", v.ToString().c_str());
          }
        }
      }
      if (!flags.predict) continue;

      // Predictive pass: enumerate feasible reorderings of this clean
      // history, replay each with its delay directives, keep the confirmed.
      std::vector<PredictedViolation> predictions =
          PredictReorderings(out.history);
      int confirmed = 0;
      for (const PredictedViolation& p : predictions) {
        FuzzCase candidate = c;
        for (const DelayDirective& d : p.directives) {
          candidate.delays[d.txn] += d.delay;
        }
        // Confirmation is anchored, not incidental: the replay must show a
        // mode-permitted cycle that involves the predicted reader or the
        // delayed writer — a cycle the base run happened to contain anyway
        // does not vindicate the prediction.
        auto still_witnesses = [&p](const RunOutcome& o) {
          if (o.violated()) return false;
          for (const Violation& v : o.serial.violations) {
            if (!v.mode_permitted || v.kind != ViolationKind::kCycle) {
              continue;
            }
            for (TxnId t : v.txns) {
              if (t == p.reader || t == p.writer) return true;
            }
          }
          return false;
        };
        RunOutcome replay = RunCase(candidate);
        if (replay.violated()) {
          // The perturbed schedule exposed a real protocol bug — promote it
          // to a first-class violation with its own repro line.
          ++violations_found;
          std::printf("seed %llu: VIOLATION on predictive replay (%s)\n",
                      static_cast<unsigned long long>(seed),
                      CaseSummary(candidate).c_str());
          std::printf("%s", replay.ViolationText().c_str());
          std::printf("repro: %s\n", ReproLine(candidate).c_str());
          continue;
        }
        if (!still_witnesses(replay)) {
          if (flags.verbose) {
            std::printf("  [refuted] %s\n", p.ToString().c_str());
          }
          continue;
        }
        ++confirmed;
        ++witnesses_found;
        std::printf("seed %llu: witness CONFIRMED: %s\n",
                    static_cast<unsigned long long>(seed),
                    p.ToString().c_str());
        FuzzCase shrunk = candidate;
        int shrink_runs = 0;
        if (!flags.no_shrink) {
          shrunk = Shrink(candidate, &shrink_runs, still_witnesses);
          std::printf("shrunk after %d candidate runs: %s\n", shrink_runs,
                      CaseSummary(shrunk).c_str());
        }
        RunOutcome final_out = flags.no_shrink ? std::move(replay)
                                               : RunCase(shrunk);
        std::string repro = ReproLine(shrunk);
        std::printf("witness repro: %s\n", repro.c_str());
        for (const Violation& v : final_out.serial.violations) {
          if (v.mode_permitted) {
            std::printf("  [witness] %s\n", v.ToString().c_str());
          }
        }
        if (!flags.artifact.empty()) {
          std::ofstream file(flags.artifact);
          file << "# planet_fuzz confirmed predictive witness\n"
               << "repro: " << repro << "\n"
               << "scenario: " << CaseSummary(shrunk) << "\n"
               << "prediction: " << p.ToString() << "\n"
               << "serializability: " << final_out.serial.Summary() << "\n";
          std::printf("artifact written to %s\n", flags.artifact.c_str());
        }
      }
      std::printf("predict[seed %llu]: %zu predicted, %d confirmed\n",
                  static_cast<unsigned long long>(seed), predictions.size(),
                  confirmed);
      continue;
    }

    ++violations_found;
    std::printf("seed %llu: VIOLATION (%s)\n",
                static_cast<unsigned long long>(seed), CaseSummary(c).c_str());
    std::printf("%s", out.ViolationText().c_str());

    FuzzCase shrunk = c;
    int shrink_runs = 0;
    if (!flags.no_shrink) {
      shrunk = Shrink(c, &shrink_runs);
      std::printf("shrunk after %d candidate runs: %s\n", shrink_runs,
                  CaseSummary(shrunk).c_str());
    }
    RunOutcome final_out = flags.no_shrink ? std::move(out) : RunCase(shrunk);
    std::string repro = ReproLine(shrunk);
    std::printf("repro: %s\n%s", repro.c_str(),
                final_out.ViolationText().c_str());

    if (!flags.artifact.empty()) {
      std::ofstream file(flags.artifact);
      file << "# planet_fuzz violation artifact\n"
           << "repro: " << repro << "\n"
           << "scenario: " << CaseSummary(shrunk) << "\n"
           << "serializability: " << final_out.serial.Summary() << "\n"
           << "convergence: " << final_out.conv.Summary() << "\n"
           << final_out.ViolationText();
      std::printf("artifact written to %s\n", flags.artifact.c_str());
    }
    // Keep scanning remaining seeds: a fuzz batch reports every bad seed.
  }

  std::printf(
      "planet_fuzz: %zu seed(s), %llu committed / %llu attempted txns, "
      "%d violation(s), %zu witness(es)\n",
      seeds.size(), static_cast<unsigned long long>(totals.committed),
      static_cast<unsigned long long>(totals.attempted()), violations_found,
      witnesses_found);
  if (flags.expect_violation) {
    if (violations_found == 0) {
      std::printf("expected a violation (oracle self-test) but found none\n");
      return 1;
    }
    return 0;
  }
  if (flags.expect_witness) {
    if (violations_found > 0) return 1;  // a real bug still fails the run
    if (witnesses_found == 0) {
      std::printf("expected a mode-permitted witness but found none\n");
      return 1;
    }
    return 0;
  }
  return violations_found > 0 ? 1 : 0;
}

}  // namespace
}  // namespace planet

int main(int argc, char** argv) { return planet::Main(argc, argv); }
