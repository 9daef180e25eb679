// Tests of the small shared utilities: time formatting, invariant checks,
// and config quorum arithmetic.
#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/types.h"
#include "mdcc/config.h"

namespace planet {
namespace {

TEST(Types, DurationHelpers) {
  EXPECT_EQ(Micros(7), 7);
  EXPECT_EQ(Millis(3), 3000);
  EXPECT_EQ(Seconds(2), 2000000);
}

TEST(Types, FormatSimTime) {
  EXPECT_EQ(FormatSimTime(0), "0.000000s");
  EXPECT_EQ(FormatSimTime(1500000), "1.500000s");
  EXPECT_EQ(FormatSimTime(42), "0.000042s");
  EXPECT_EQ(FormatSimTime(Seconds(90) + Micros(1)), "90.000001s");
}

TEST(Logging, CheckPassesOnTrue) {
  PLANET_CHECK(1 + 1 == 2);
  PLANET_CHECK_MSG(true, "unused " << 42);
}

TEST(Logging, CheckAbortsOnFalse) {
  EXPECT_DEATH(PLANET_CHECK(false), "invariant violated");
  EXPECT_DEATH(PLANET_CHECK_MSG(2 < 1, "ctx " << 7), "ctx 7");
}

TEST(MdccConfig, QuorumArithmetic) {
  MdccConfig c;
  c.num_dcs = 5;
  EXPECT_EQ(c.FastQuorum(), 4);
  EXPECT_EQ(c.ClassicQuorum(), 3);
  c.num_dcs = 3;
  EXPECT_EQ(c.FastQuorum(), 3);
  EXPECT_EQ(c.ClassicQuorum(), 2);
  c.num_dcs = 7;
  EXPECT_EQ(c.FastQuorum(), 6);
  EXPECT_EQ(c.ClassicQuorum(), 4);
  c.num_dcs = 4;
  EXPECT_EQ(c.FastQuorum(), 3);
  EXPECT_EQ(c.ClassicQuorum(), 3);
}

TEST(MdccConfig, QuorumsAlwaysIntersectConflictSafely) {
  // For every cluster size: two fast quorums, two classic quorums, and a
  // mixed pair must overlap in at least one acceptor (the conflict-exclusion
  // precondition of the safety argument).
  for (int n = 3; n <= 15; ++n) {
    MdccConfig c;
    c.num_dcs = n;
    EXPECT_GE(c.FastQuorum() * 2, n + 1) << "fast/fast, n=" << n;
    EXPECT_GE(c.ClassicQuorum() * 2, n + 1) << "classic/classic, n=" << n;
    EXPECT_GE(c.FastQuorum() + c.ClassicQuorum(), n + 1)
        << "fast/classic, n=" << n;
  }
}

TEST(MdccConfig, MasterPlacement) {
  MdccConfig c;
  c.num_dcs = 5;
  EXPECT_EQ(c.MasterOf(0), 0);
  EXPECT_EQ(c.MasterOf(7), 2);
  c.master_dc = 3;
  EXPECT_EQ(c.MasterOf(7), 3);
  EXPECT_EQ(c.MasterOf(12345), 3);
}

}  // namespace
}  // namespace planet
