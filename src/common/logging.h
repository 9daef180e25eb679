// Invariant checking for the library. PLANET_CHECK aborts the process on
// violated invariants; it is active in all build types because protocol
// invariants must never be silently violated.
#ifndef PLANET_COMMON_LOGGING_H_
#define PLANET_COMMON_LOGGING_H_

#include <sstream>
#include <string>

#include "common/types.h"

namespace planet {

namespace logging {

/// Aborts with a formatted invariant-violation message.
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& msg);

}  // namespace logging

/// Invariant check, active in every build type.
#define PLANET_CHECK(expr)                                                  \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::planet::logging::CheckFailed(__FILE__, __LINE__, #expr, "");        \
    }                                                                       \
  } while (0)

#define PLANET_CHECK_MSG(expr, ...)                                         \
  do {                                                                      \
    if (!(expr)) {                                                          \
      std::ostringstream planet_chk_oss_;                                   \
      planet_chk_oss_ << __VA_ARGS__;                                       \
      ::planet::logging::CheckFailed(__FILE__, __LINE__, #expr,             \
                                     planet_chk_oss_.str());                \
    }                                                                       \
  } while (0)

}  // namespace planet

#endif  // PLANET_COMMON_LOGGING_H_
