// Fixture: every analyzer pass violated once, every violation suppressed
// through the planet-lint allow grammar (the wall-clock chain starts in
// sim/experiment.h). The analyzer must exit 0. This file doubles as the
// sharded-drain reference for the shard-unchecked case (the audit keys on
// the src/harness/sharded_cluster.h path).
#ifndef FIXTURE_SUPPRESSED_HARNESS_SHARDED_CLUSTER_H_
#define FIXTURE_SUPPRESSED_HARNESS_SHARDED_CLUSTER_H_

#include "harness/widget.h"

namespace planet {

class Driver {
 public:
  void Drive(Widget& widget) { widget.Poke(); }

 private:
  int rounds_ = 0;
};

}  // namespace planet

#endif  // FIXTURE_SUPPRESSED_HARNESS_SHARDED_CLUSTER_H_
