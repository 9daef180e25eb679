// SweepRunner: fans the independent sweep points of an experiment across
// host threads. Every PLANET experiment is a set of fully independent
// deterministic simulations (one Cluster per point, each with its own seed),
// so points can run concurrently; results are returned in submission order
// and all printing happens afterwards on the main thread, which makes the
// output byte-identical to the serial run regardless of --threads.
//
// The shared command-line contract of every bench binary:
//   --threads N    run up to N sweep points concurrently (default 1)
//   --json PATH    also export a MetricsJson document to PATH
#ifndef PLANET_HARNESS_SWEEP_H_
#define PLANET_HARNESS_SWEEP_H_

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "harness/metrics_json.h"

namespace planet {

struct SweepOptions {
  int threads = 1;        ///< concurrent sweep points
  std::string json_path;  ///< empty: no JSON export
};

/// Parses the shared bench flags (--threads, --json, --help) from argv.
/// Prints usage and exits on --help; complains and exits(2) on anything
/// unknown. `bench_id` names the binary in the usage text.
SweepOptions ParseSweepArgs(int argc, char** argv, const std::string& bench_id);

/// The numeric flag parser of every command-line tool: all of `text` must
/// be one finite base-10 number of T's type no smaller than `min` (counts
/// pass 1, durations 0). Otherwise this prints "FLAG wants ..., got 'TEXT'" to
/// stderr and returns false; atoi and strtoull would read "abc" as 0 and
/// "1x" as 1. Defined for int, int64_t, uint64_t and double.
template <typename T>
[[nodiscard]] bool ParseFlagNumber(
    const std::string& flag, const char* text, T* out,
    std::type_identity_t<T> min = std::numeric_limits<T>::lowest());

/// Runs `fn(t)` for every t in [0, num_threads): inline on the calling
/// thread for one, otherwise on one thread each, all joined before this
/// returns (the join is the caller's happens-before edge for reading what
/// the threads wrote). The only place in src/ that starts a thread.
template <typename Fn>
void RunOnThreads(int num_threads, const Fn& fn) {
  if (num_threads == 1) {
    fn(0);
    return;
  }
  // Host-side threads, one whole simulation (or a queue of them) each: no
  // simulated-world code ever blocks or shares state across them. Each
  // joins when `workers` goes out of scope.
  std::vector<std::jthread> workers;  // planet-lint: allow(blocking-primitive)
  workers.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&fn, t] { fn(t); });
  }
}

/// Runs sweep points across threads with deterministic result order.
class SweepRunner {
 public:
  explicit SweepRunner(const SweepOptions& options) : options_(options) {}

  const SweepOptions& options() const { return options_; }

  /// Executes every point (each must be an independent simulation) and
  /// returns their results in submission order. R must be movable and
  /// default-constructible. Workers take point indices from a shared
  /// counter; with one thread that is the plain serial loop on the caller.
  /// A throwing point does not stop the others: once every point has run,
  /// the exception of the lowest-index throwing point is rethrown.
  template <typename R>
  std::vector<R> Run(std::vector<std::function<R()>> points) const {
    std::vector<R> results(points.size());
    std::vector<std::exception_ptr> errors(points.size());
    std::atomic<size_t> next{0};
    int threads = std::min<int>(std::max(1, options_.threads),
                                static_cast<int>(points.size()));
    RunOnThreads(threads, [&](int) {
      for (size_t i = next++; i < points.size(); i = next++) {
        try {
          results[i] = points[i]();
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    return results;
  }

 private:
  SweepOptions options_;
};

/// Writes `json` to options.json_path when set (a note goes to stderr so
/// stdout stays byte-comparable across runs); PLANET_CHECKs the write.
void ExportMetricsJson(const SweepOptions& options, const MetricsJson& json);

}  // namespace planet

#endif  // PLANET_HARNESS_SWEEP_H_
