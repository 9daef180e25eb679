// Wall-clock timing for the layer replays: best-of-N repetitions of a fixed
// operation count, the idiom bench/bench_micro.cc uses for its components.
#ifndef PLANET_PERFBENCH_TIMING_H_
#define PLANET_PERFBENCH_TIMING_H_

#include <chrono>
#include <cstdint>

namespace planet {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Keeps the optimizer from discarding a value.
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Runs `body(rep)` for rep = 0..reps-1, each performing `ops` operations,
/// and returns the fastest repetition in ns per operation. `rep` lets a
/// body that consumes its inputs work on a fresh slice each time.
template <typename Body>
double BestNsPerOp(uint64_t ops, int reps, Body&& body) {
  double best = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    Clock::time_point start = Clock::now();
    body(rep);
    double sec = SecondsSince(start);
    if (best < 0.0 || sec < best) best = sec;
  }
  return ops == 0 ? 0.0 : best * 1e9 / double(ops);
}

}  // namespace perfbench
}  // namespace planet

#endif  // PLANET_PERFBENCH_TIMING_H_
