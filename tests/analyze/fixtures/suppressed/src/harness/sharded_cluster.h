// Fixture: every analyzer pass violated once, every violation suppressed
// through the shared planet-lint allow grammar (the wall-clock chain
// starts in sim/experiment.h). The analyzer must exit 0. This file doubles
// as the sharded-drain reference for the shard-unchecked case (the audit
// keys on the src/harness/sharded_cluster.h path).
//
// Host-side coordination code: sanctioned lock use.
// planet-lint: allow-file(blocking-primitive)
#ifndef FIXTURE_SUPPRESSED_HARNESS_SHARDED_CLUSTER_H_
#define FIXTURE_SUPPRESSED_HARNESS_SHARDED_CLUSTER_H_

#include "common/mutex.h"
#include "harness/widget.h"

namespace planet {

class OrderedPair {
 public:
  void Forward() {
    MutexLock a(mu_a_);
    MutexLock b(mu_b_);
  }

  void Backward() {
    MutexLock b(mu_b_);
    // Documented inversion (e.g. guarded by an external arbiter).
    MutexLock a(mu_a_);  // planet-lint: allow(lock-order-cycle)
  }

 private:
  Mutex mu_a_;
  Mutex mu_b_;
  /// Written only before the workers start (documented happens-before).
  int prepared_ = 0;  // planet-lint: allow(guarded-field)
};

class Driver {
 public:
  void Drive(Widget& widget) { widget.Poke(); }

 private:
  int rounds_ = 0;
};

}  // namespace planet

#endif  // FIXTURE_SUPPRESSED_HARNESS_SHARDED_CLUSTER_H_
