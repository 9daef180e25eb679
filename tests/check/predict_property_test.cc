// Property tests for the predictive pass.
//
// Contract 1 (no false accusations): a fully serializable history admits
// zero predicted reorderings, whatever its shape — serializable clients
// have no visibility slack, so any prediction against one is a bug in the
// predictor, not in the protocol. Checked over 1000 randomly generated
// well-formed histories.
//
// Contract 2 (determinism): predictions are a pure deterministic function
// of the history — two runs over the same input produce byte-identical
// prediction lists. The fuzzer's confirmed-witness repro lines inherit
// their replayability from this.
//
// Contract 3 (the two oracles agree): applying a prediction to the history
// it came from — the reader's read observes the predicted version — makes
// CheckSerializability report a cycle.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/predict.h"
#include "check/serializability.h"

namespace planet {
namespace {

/// Deterministic split-free PRNG (same LCG family the workloads use); the
/// draws must not depend on platform rand().
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Generates a well-formed random history: proper per-key version chains
/// (every committed physical write validates the current tip), reads of
/// existing committed versions with monotone timestamps.
History RandomHistory(uint64_t seed, IsolationLevel iso_mode,
                      bool mixed_weak) {
  Lcg rng(seed);
  History h;
  const Key num_keys = 4;
  std::vector<Version> tip(num_keys + 1, 1);
  for (Key k = 1; k <= num_keys; ++k) {
    h.AddSeed(k, 1, static_cast<Value>(rng.Below(100)));
  }
  const size_t num_txns = 8 + rng.Below(8);
  for (size_t i = 0; i < num_txns; ++i) {
    RecordedTxn t;
    t.id = i + 1;
    t.client_node = 10 + rng.Below(4);
    t.client_dc = static_cast<DcId>(rng.Below(3));
    if (mixed_weak) {
      switch (rng.Below(3)) {
        case 0: t.isolation = IsolationLevel::kSerializable; break;
        case 1: t.isolation = IsolationLevel::kReadCommitted; break;
        default: t.isolation = IsolationLevel::kCausal; break;
      }
    } else {
      t.isolation = iso_mode;
    }
    t.outcome = rng.Below(10) < 9 ? TxnOutcome::kCommitted
                                  : TxnOutcome::kAborted;
    t.begin = static_cast<SimTime>(i * 100 + rng.Below(50));
    t.decide = t.begin + 50 + static_cast<SimTime>(rng.Below(200));

    const size_t reads = rng.Below(3);
    for (size_t r = 0; r < reads; ++r) {
      RecordedRead rd;
      rd.key = 1 + static_cast<Key>(rng.Below(num_keys));
      rd.version = 1 + static_cast<Version>(rng.Below(tip[rd.key]));
      rd.at = t.begin + 1 + static_cast<SimTime>(rng.Below(100));
      t.reads.push_back(rd);
    }
    const size_t writes = rng.Below(3);
    for (size_t w = 0; w < writes; ++w) {
      Key k = 1 + static_cast<Key>(rng.Below(num_keys));
      bool already = false;
      for (const RecordedWrite& prev : t.writes) {
        if (prev.key == k) already = true;
      }
      if (already) continue;
      RecordedWrite wr;
      wr.key = k;
      wr.read_version = tip[k];
      wr.new_value = static_cast<Value>(rng.Below(100));
      t.writes.push_back(wr);
      if (t.outcome == TxnOutcome::kCommitted) tip[k] = wr.installed();
    }
    h.Add(std::move(t));
  }
  return h;
}

std::string Render(const std::vector<PredictedViolation>& predictions) {
  std::ostringstream os;
  for (const PredictedViolation& p : predictions) {
    os << p.ToString() << "\n";
  }
  return os.str();
}

TEST(PredictProperty, NoFalseAccusationsUnderSerializable) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    History h =
        RandomHistory(seed, IsolationLevel::kSerializable, /*mixed=*/false);
    std::vector<PredictedViolation> p = PredictReorderings(h);
    ASSERT_TRUE(p.empty())
        << "seed " << seed << " accused a serializable history:\n"
        << Render(p);
    // The generated chains are well-formed, so the checker agrees the
    // observed run is clean.
    CheckReport report = CheckSerializability(h);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": " << report.Summary();
  }
}

TEST(PredictProperty, PredictionsAreDeterministic) {
  size_t histories_with_predictions = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    History h = RandomHistory(seed, IsolationLevel::kReadCommitted,
                              /*mixed=*/true);
    std::vector<PredictedViolation> first = PredictReorderings(h);
    std::vector<PredictedViolation> second = PredictReorderings(h);
    ASSERT_EQ(Render(first), Render(second)) << "seed " << seed;
    if (!first.empty()) ++histories_with_predictions;
  }
  // The generator must actually exercise the predictor — an all-empty
  // sweep would make this test vacuous.
  EXPECT_GT(histories_with_predictions, 0u);
}

TEST(PredictProperty, WeakPredictionsRespectSessionOrder) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    History h = RandomHistory(seed, IsolationLevel::kReadCommitted,
                              /*mixed=*/true);
    for (const PredictedViolation& p : PredictReorderings(h)) {
      const RecordedTxn* reader = nullptr;
      const RecordedTxn* writer = nullptr;
      for (const RecordedTxn& t : h.txns()) {
        if (t.id == p.reader) reader = &t;
        if (t.id == p.writer) writer = &t;
      }
      ASSERT_NE(reader, nullptr);
      ASSERT_NE(writer, nullptr);
      // Never reorders a client against itself, never accuses a
      // serializable reader, and always proposes a realizable version.
      EXPECT_NE(reader->client_node, writer->client_node);
      EXPECT_NE(reader->isolation, IsolationLevel::kSerializable);
      EXPECT_EQ(p.predicted + 1, p.observed);
      ASSERT_FALSE(p.directives.empty());
      EXPECT_EQ(p.directives[0].txn, p.writer);
      EXPECT_GT(p.directives[0].delay, 0);
    }
  }
}

TEST(PredictProperty, PredictedCyclesAreCheckerCycles) {
  size_t patched = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    History h = RandomHistory(seed, IsolationLevel::kReadCommitted,
                              /*mixed=*/true);
    bool forked = false;
    for (const Violation& v : CheckSerializability(h).violations) {
      if (v.kind == ViolationKind::kVersionFork) forked = true;
    }
    if (forked) continue;
    for (const PredictedViolation& p : PredictReorderings(h)) {
      // Replay the prediction on the history itself: the reader's read of
      // `key` observes `predicted`. The writer's path to the reader never
      // leaves through the reader, and the patched read adds rw
      // reader -> writer, so the checker must see the cycle.
      History patched_history;
      for (const SeededKey& s : h.seeds()) {
        patched_history.AddSeed(s.key, s.version, s.value);
      }
      for (RecordedTxn t : h.txns()) {
        if (t.id == p.reader) {
          for (RecordedRead& r : t.reads) {
            if (r.key == p.key && r.version == p.observed) {
              r.version = p.predicted;
            }
          }
        }
        patched_history.Add(std::move(t));
      }
      CheckReport report = CheckSerializability(patched_history);
      bool cycle = false;
      for (const Violation& v : report.violations) {
        if (v.kind == ViolationKind::kCycle) cycle = true;
      }
      EXPECT_TRUE(cycle) << "seed " << seed << ": " << p.ToString() << "\n"
                         << report.Summary();
      ++patched;
    }
  }
  EXPECT_GT(patched, 0u);
}

}  // namespace
}  // namespace planet
