// Golden witness corpus: canonical anomaly histories checked table-driven
// against the checker's classification (violation kinds, mode-permitted
// flags, the protocol-correctness verdict) and against the predictor's
// candidate count. Positives pin what each anomaly looks like; negatives
// pin what must NOT be flagged — a checker that starts accusing clean
// serializable or healthy causal runs fails here first.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "check/history_text.h"
#include "check/predict.h"
#include "check/serializability.h"

namespace planet {
namespace {

std::string CorpusPath(const std::string& name) {
  return std::string(PLANET_GOLDEN_HISTORY_DIR) + "/" + name;
}

History LoadCorpus(const std::string& name) {
  std::ifstream file(CorpusPath(name));
  EXPECT_TRUE(file.good()) << "missing corpus file " << CorpusPath(name);
  std::ostringstream text;
  text << file.rdbuf();
  History h;
  Status s = ParseHistoryText(text.str(), &h);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return h;
}

size_t CountKind(const CheckReport& report, ViolationKind kind,
                 bool permitted) {
  size_t n = 0;
  for (const Violation& v : report.violations) {
    if (v.kind == kind && v.mode_permitted == permitted) ++n;
  }
  return n;
}

struct CorpusCase {
  const char* file;
  bool ok;                  ///< protocol-correctness verdict
  size_t permitted;         ///< mode-permitted anomalies expected
  ViolationKind kind;       ///< dominant violation kind (when any)
  size_t total_violations;  ///< all violations, permitted included
  size_t predictions;       ///< PredictReorderings candidate count
};

// Names each case by its corpus file. Without it gtest prints the raw bytes
// of the struct (a string pointer and padding), and the ctest names that
// gtest_discover_tests derives from that output change with every build.
void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.file; }

class GoldenCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(GoldenCorpus, ClassifiesAsPinned) {
  const CorpusCase& c = GetParam();
  History h = LoadCorpus(c.file);
  CheckReport report = CheckSerializability(h);
  EXPECT_EQ(report.ok(), c.ok) << report.Summary();
  EXPECT_EQ(report.PermittedCount(), c.permitted) << report.Summary();
  EXPECT_EQ(report.violations.size(), c.total_violations) << report.Summary();
  if (c.total_violations > 0) {
    EXPECT_EQ(CountKind(report, c.kind, c.permitted > 0), 1u)
        << report.Summary();
  }
  std::vector<PredictedViolation> predictions = PredictReorderings(h);
  EXPECT_EQ(predictions.size(), c.predictions);
}

INSTANTIATE_TEST_SUITE_P(
    Anomalies, GoldenCorpus,
    ::testing::Values(
        // Positives: each canonical anomaly classified exactly.
        CorpusCase{"write_skew_rc.history", true, 1, ViolationKind::kCycle,
                   1, 0},
        // Lost update reports the fork AND the rw cycle it induces.
        CorpusCase{"lost_update.history", false, 0,
                   ViolationKind::kVersionFork, 2, 0},
        CorpusCase{"dirty_read_rc.history", true, 1,
                   ViolationKind::kPhantomVersion, 1, 0},
        CorpusCase{"dirty_read_bug.history", false, 0,
                   ViolationKind::kPhantomVersion, 1, 0},
        CorpusCase{"long_fork_causal.history", true, 1, ViolationKind::kCycle,
                   1, 0},
        CorpusCase{"causal_session_regression.history", false, 0,
                   ViolationKind::kSessionRegression, 1, 0},
        // Latent write skew: clean as observed, one predicted reordering.
        CorpusCase{"write_skew_latent_rc.history", true, 0,
                   ViolationKind::kCycle, 0, 1},
        // Negatives: must not be flagged, must not be predicted.
        CorpusCase{"write_skew_ser.history", true, 0, ViolationKind::kCycle,
                   0, 0},
        CorpusCase{"write_skew_latent_ser.history", true, 0,
                   ViolationKind::kCycle, 0, 0},
        CorpusCase{"causal_session_ok.history", true, 0,
                   ViolationKind::kCycle, 0, 0},
        CorpusCase{"serializable_clean.history", true, 0,
                   ViolationKind::kCycle, 0, 0}));

// The serializable write-skew shape IS a full-serializability cycle when
// unvalidated reads are explicitly requested — and then it is a real
// violation, not a permitted one (the clients asked for serializable).
TEST(GoldenCorpusExtra, SerializableWriteSkewFlaggedOnRequest) {
  History h = LoadCorpus("write_skew_ser.history");
  CheckerOptions options;
  options.include_unvalidated_reads = true;
  CheckReport report = CheckSerializability(h, options);
  EXPECT_FALSE(report.ok()) << report.Summary();
  EXPECT_EQ(CountKind(report, ViolationKind::kCycle, /*permitted=*/false), 1u);
}

// The predicted reordering of the latent corpus names the right txns and
// carries a usable delay directive.
TEST(GoldenCorpusExtra, LatentWriteSkewPredictionAnatomy) {
  History h = LoadCorpus("write_skew_latent_rc.history");
  std::vector<PredictedViolation> predictions = PredictReorderings(h);
  ASSERT_EQ(predictions.size(), 1u);
  const PredictedViolation& p = predictions[0];
  EXPECT_EQ(p.reader, 1u);
  EXPECT_EQ(p.writer, 2u);
  EXPECT_EQ(p.key, 2u);
  EXPECT_EQ(p.observed, 2u);
  EXPECT_EQ(p.predicted, 1u);
  ASSERT_EQ(p.directives.size(), 1u);
  EXPECT_EQ(p.directives[0].txn, 2u);
  // Delay covers read-at (300) minus writer begin (50) plus the margin.
  EXPECT_GE(p.directives[0].delay, 250);
  ASSERT_GE(p.cycle.size(), 2u);
  // The closing edge is the reassigned read's anti-dependency back to the
  // delayed writer.
  EXPECT_EQ(p.cycle.back().from, 1u);
  EXPECT_EQ(p.cycle.back().to, 2u);
  EXPECT_EQ(p.cycle.back().kind, 'a');
}

// Round-trip: every corpus file reparses to an equivalent history
// (Format(Parse(x)) == Format(Parse(Format(Parse(x))))).
TEST(GoldenCorpusExtra, CorpusRoundTrips) {
  const char* files[] = {
      "write_skew_rc.history",       "write_skew_ser.history",
      "lost_update.history",         "dirty_read_rc.history",
      "dirty_read_bug.history",      "long_fork_causal.history",
      "causal_session_regression.history", "causal_session_ok.history",
      "serializable_clean.history",  "write_skew_latent_rc.history",
      "write_skew_latent_ser.history"};
  for (const char* f : files) {
    History h = LoadCorpus(f);
    std::string once = FormatHistoryText(h);
    History h2;
    ASSERT_TRUE(ParseHistoryText(once, &h2).ok()) << f;
    EXPECT_EQ(once, FormatHistoryText(h2)) << f;
  }
}

}  // namespace
}  // namespace planet
