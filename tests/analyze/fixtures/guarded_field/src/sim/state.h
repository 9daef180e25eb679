// Fixture: a Mutex-owning class with unguarded mutable fields. Both
// `total_` and `pending_` must be flagged; `mu_` (the capability itself),
// `kLimit` (const) and `label_` (GUARDED_BY) must not.
//
// Host-side coordination code: sanctioned lock use.
// planet-lint: allow-file(blocking-primitive)
#ifndef FIXTURE_SIM_STATE_H_
#define FIXTURE_SIM_STATE_H_

#include "common/mutex.h"

namespace planet {

class SharedCounter {
 public:
  void Add(long delta) {
    MutexLock l(mu_);
    total_ += delta;
  }

 private:
  static constexpr int kLimit = 64;
  Mutex mu_;
  long total_ = 0;
  int pending_ = 0;
  int label_ GUARDED_BY(mu_) = 0;
};

}  // namespace planet

#endif  // FIXTURE_SIM_STATE_H_
