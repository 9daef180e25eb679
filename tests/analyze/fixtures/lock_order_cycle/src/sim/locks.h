// Fixture: a deliberate two-mutex lock-order cycle. Forward establishes
// mu_a_ -> mu_b_, Backward establishes mu_b_ -> mu_a_; planet_analyze must
// report the cycle with both edge witnesses.
//
// Host-side coordination code: sanctioned lock use.
// planet-lint: allow-file(blocking-primitive)
#ifndef FIXTURE_SIM_LOCKS_H_
#define FIXTURE_SIM_LOCKS_H_

#include "common/mutex.h"

namespace planet {

class PairedState {
 public:
  void Forward() {
    MutexLock a(mu_a_);
    MutexLock b(mu_b_);
    ++both_;
  }

  void Backward() {
    MutexLock b(mu_b_);
    MutexLock a(mu_a_);
    --both_;
  }

 private:
  Mutex mu_a_;
  Mutex mu_b_;
  int both_ GUARDED_BY(mu_a_) = 0;
};

}  // namespace planet

#endif  // FIXTURE_SIM_LOCKS_H_
