// FaultSchedule: flag grammar, validation, ordering, and the injector's
// deterministic application of events inside the event loop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.h"
#include "sim/simulator.h"

namespace planet {
namespace {

TEST(FaultSchedule, ParsesCommaSeparatedEvents) {
  FaultSchedule faults;
  std::string error;
  ASSERT_TRUE(FaultSchedule::Parse("crash@20:1,restart@50:1", &faults, &error))
      << error;
  ASSERT_EQ(faults.size(), 2u);
  const FaultEvent& crash = faults.events()[0];
  EXPECT_EQ(crash.kind, FaultKind::kCrashReplica);
  EXPECT_EQ(crash.at, Seconds(20));
  EXPECT_EQ(crash.dc, 1);
  const FaultEvent& restart = faults.events()[1];
  EXPECT_EQ(restart.kind, FaultKind::kRestartReplica);
  EXPECT_EQ(restart.at, Seconds(50));
  EXPECT_EQ(restart.dc, 1);
}

TEST(FaultSchedule, ParsesSemicolonsFractionsAndSpikes) {
  FaultSchedule faults;
  std::string error;
  ASSERT_TRUE(FaultSchedule::Parse(
      "partition@1.5:2;heal@30:2;spike@40:0:250;clearspike@60:0", &faults,
      &error))
      << error;
  ASSERT_EQ(faults.size(), 4u);
  EXPECT_EQ(faults.events()[0].at, Seconds(1) + Millis(500));
  const FaultEvent& spike = faults.events()[2];
  EXPECT_EQ(spike.kind, FaultKind::kSpikeDc);
  EXPECT_EQ(spike.spike_extra, Millis(250));
  EXPECT_EQ(faults.events()[3].kind, FaultKind::kClearSpikeDc);
}

TEST(FaultSchedule, ParseRejectsMalformedSpecs) {
  const char* bad[] = {
      "explode@5:0",                    // unknown kind
      "crash5:0",                       // missing @
      "crash@:0",                       // missing time
      "crash@-5:0",                     // negative time
      "crash@5",                        // missing dc
      "crash@5:x",                      // non-numeric dc
      "crash@5:0:100",                  // extra latency on a non-spike event
      "spike@5:0",                      // spike without latency
      "spike@5:0:0",                    // zero spike latency
      "crash@nan:0",                    // not a finite time
      "crash@inf:0",                    // not a finite time
      "crash@1e300:0",                  // microseconds overflow SimTime
      "crash@5:4294967297",             // dc overflows DcId
      "spike@5:0:9223372036854775807",  // microseconds overflow Duration
  };
  for (const char* spec : bad) {
    FaultSchedule faults;
    std::string error;
    EXPECT_FALSE(FaultSchedule::Parse(spec, &faults, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(FaultSchedule, ValidateChecksRangesAndAlternation) {
  {
    FaultSchedule faults;
    faults.CrashReplica(Seconds(1), 7);
    EXPECT_FALSE(faults.Validate(5).ok()) << "dc out of range";
  }
  {
    FaultSchedule faults;
    faults.RestartReplica(Seconds(1), 0);
    EXPECT_FALSE(faults.Validate(5).ok()) << "restart without crash";
  }
  {
    FaultSchedule faults;
    faults.CrashReplica(Seconds(1), 0).CrashReplica(Seconds(2), 0);
    EXPECT_FALSE(faults.Validate(5).ok()) << "double crash";
  }
  {
    FaultSchedule faults;
    faults.HealDc(Seconds(1), 0);
    EXPECT_FALSE(faults.Validate(5).ok()) << "heal without partition";
  }
  {
    FaultSchedule faults;
    faults.PartitionDc(Seconds(1), 2)
        .HealDc(Seconds(5), 2)
        .PartitionDc(Seconds(10), 2);
    EXPECT_FALSE(faults.Validate(5).ok()) << "partition never heals";
  }
  {
    // A full well-formed episode validates, including a crash left open
    // (permanent failures are legal).
    FaultSchedule faults;
    faults.PartitionDc(Seconds(1), 2)
        .HealDc(Seconds(5), 2)
        .CrashReplica(Seconds(10), 1)
        .RestartReplica(Seconds(20), 1)
        .CrashReplica(Seconds(30), 4);
    EXPECT_TRUE(faults.Validate(5).ok());
  }
}

TEST(FaultSchedule, SortedIsStableByTime) {
  FaultSchedule faults;
  faults.CrashReplica(Seconds(30), 0)
      .PartitionDc(Seconds(10), 1)
      .HealDc(Seconds(30), 1)  // same time as the crash, inserted later
      .RestartReplica(Seconds(40), 0);
  std::vector<FaultEvent> sorted = faults.Sorted();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].kind, FaultKind::kPartitionDc);
  EXPECT_EQ(sorted[1].kind, FaultKind::kCrashReplica);  // insertion order kept
  EXPECT_EQ(sorted[2].kind, FaultKind::kHealDc);
  EXPECT_EQ(sorted[3].kind, FaultKind::kRestartReplica);
}

TEST(FaultSchedule, RoundTripsThroughToString) {
  FaultSchedule faults;
  std::string error;
  ASSERT_TRUE(FaultSchedule::Parse("crash@20:1,restart@50:1,spike@30:2:250",
                                   &faults, &error));
  std::string printed = faults.ToString();
  EXPECT_NE(printed.find("crash"), std::string::npos);
  EXPECT_NE(printed.find("spike"), std::string::npos);
}

TEST(FaultInjector, AppliesEventsAtTheirTimesInOrder) {
  Simulator sim;
  FaultSchedule faults;
  faults.RestartReplica(Seconds(50), 1)
      .CrashReplica(Seconds(20), 1)
      .SpikeDc(Seconds(10), 2, Millis(250));

  struct Applied {
    FaultKind kind;
    DcId dc;
    SimTime at;
  };
  std::vector<Applied> log;
  FaultActions actions;
  actions.crash_replica = [&](DcId dc) {
    log.push_back({FaultKind::kCrashReplica, dc, sim.Now()});
  };
  actions.restart_replica = [&](DcId dc) {
    log.push_back({FaultKind::kRestartReplica, dc, sim.Now()});
  };
  actions.spike_dc = [&](DcId dc, Duration extra, double) {
    EXPECT_EQ(extra, Millis(250));
    log.push_back({FaultKind::kSpikeDc, dc, sim.Now()});
  };

  FaultInjector injector(&sim, faults, actions);
  sim.Run();

  EXPECT_EQ(injector.injected(), 3u);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].kind, FaultKind::kSpikeDc);
  EXPECT_EQ(log[0].at, Seconds(10));
  EXPECT_EQ(log[1].kind, FaultKind::kCrashReplica);
  EXPECT_EQ(log[1].at, Seconds(20));
  EXPECT_EQ(log[2].kind, FaultKind::kRestartReplica);
  EXPECT_EQ(log[2].at, Seconds(50));
  EXPECT_EQ(log[2].dc, 1);
}

TEST(FaultInjector, MissingActionsAreNoOps) {
  // A stack that does not model some fault kind simply skips those events.
  Simulator sim;
  FaultSchedule faults;
  faults.SpikeDc(Seconds(1), 0, Millis(100)).ClearSpikeDc(Seconds(2), 0);
  FaultInjector injector(&sim, faults, FaultActions{});
  sim.Run();
  EXPECT_EQ(injector.injected(), 2u);
}

}  // namespace
}  // namespace planet
