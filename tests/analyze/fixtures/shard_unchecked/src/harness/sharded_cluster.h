// Fixture: stands in for the real sharded drain header (the audit keys on
// this path). It references Widget, which is handed to a worker thread
// with neither lock annotations nor a ThreadChecker — Widget must be
// flagged; Gizmo (checker in its base) and FixtureRuntime itself (defined
// in a sharded file) must not.
#ifndef FIXTURE_HARNESS_SHARDED_CLUSTER_H_
#define FIXTURE_HARNESS_SHARDED_CLUSTER_H_

#include "harness/widget.h"

namespace planet {

class FixtureRuntime {
 public:
  void Drive(Widget& widget, Gizmo& gizmo) {
    widget.Poke();
    gizmo.Poke();
  }

 private:
  int rounds_ = 0;
};

}  // namespace planet

#endif  // FIXTURE_HARNESS_SHARDED_CLUSTER_H_
