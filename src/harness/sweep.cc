#include "harness/sweep.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace planet {

SweepOptions ParseSweepArgs(int argc, char** argv,
                            const std::string& bench_id) {
  SweepOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto need = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", bench_id.c_str(),
                     a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      std::printf(
          "%s - PLANET experiment binary\n"
          "  --threads N    run up to N sweep points concurrently "
          "(default 1)\n"
          "  --json PATH    also export metrics as JSON to PATH\n",
          bench_id.c_str());
      std::exit(0);
    } else if (a == "--threads") {
      if (!ParseFlagNumber(a, need(), &options.threads, 1)) std::exit(2);
    } else if (a == "--json") {
      options.json_path = need();
    } else {
      std::fprintf(stderr, "%s: unknown flag %s (try --help)\n",
                   bench_id.c_str(), a.c_str());
      std::exit(2);
    }
  }
  return options;
}

template <typename T>
bool ParseFlagNumber(const std::string& flag, const char* text, T* out,
                     std::type_identity_t<T> min) {
  T value{};
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, value);
  bool finite = true;  // from_chars reads "inf" and "nan" into a double
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(value);
  if (ec == std::errc() && ptr == end && finite && value >= min) {
    *out = value;
    return true;
  }
  const char* want = min > T{0}    ? "a positive count"
                     : min == T{0} ? "a nonnegative number"
                                   : "a number";
  std::fprintf(stderr, "%s wants %s, got '%s'\n", flag.c_str(), want, text);
  return false;
}

template bool ParseFlagNumber<int>(const std::string&, const char*, int*,
                                   int);
template bool ParseFlagNumber<int64_t>(const std::string&, const char*,
                                       int64_t*, int64_t);
template bool ParseFlagNumber<uint64_t>(const std::string&, const char*,
                                        uint64_t*, uint64_t);
template bool ParseFlagNumber<double>(const std::string&, const char*,
                                      double*, double);

void ExportMetricsJson(const SweepOptions& options, const MetricsJson& json) {
  if (options.json_path.empty()) return;
  Status status = json.WriteFile(options.json_path);
  PLANET_CHECK_MSG(status.ok(), "metrics export failed: " << status.message());
  std::fprintf(stderr, "wrote %zu-point metrics document to %s\n",
               json.num_points(), options.json_path.c_str());
}

}  // namespace planet
