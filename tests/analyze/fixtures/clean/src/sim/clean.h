// Fixture: a pure simulated-world file. Mentions of banned primitives only
// in comments ("std::chrono::steady_clock", "MutexLock") and strings must
// not produce findings; the code itself allocates nothing, locks nothing,
// and reads no clocks. `slots_` has a brace-initialized template argument,
// which the scanner splits at the brace; the analyzer must skip the tail.
#ifndef FIXTURE_SIM_CLEAN_H_
#define FIXTURE_SIM_CLEAN_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace planet {

class PureAccumulator {
 public:
  void Observe(uint64_t sample) {
    sum_ += sample;
    ++count_;
  }
  // "new" appears here only inside a string: it must not count.
  const char* Describe() const { return "new sample recorded"; }

  uint64_t mean() const { return count_ == 0 ? 0 : sum_ / count_; }

 private:
  uint64_t sum_ = 0;
  uint64_t count_ = 0;
  std::array<int, size_t{1} << 4> slots_;
};

inline uint64_t Mix(uint64_t a, uint64_t b) { return a * 31 + b; }

}  // namespace planet

#endif  // FIXTURE_SIM_CLEAN_H_
