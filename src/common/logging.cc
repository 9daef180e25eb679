#include "common/logging.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace planet {

std::string FormatSimTime(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%06" PRId64 "s", t / 1000000,
                t % 1000000);
  return buf;
}

bool ParseIsolationLevel(const std::string& text, IsolationLevel* out) {
  if (text == "serializable") {
    *out = IsolationLevel::kSerializable;
  } else if (text == "read_committed" || text == "read-committed") {
    *out = IsolationLevel::kReadCommitted;
  } else if (text == "causal") {
    *out = IsolationLevel::kCausal;
  } else {
    return false;
  }
  return true;
}

namespace logging {
namespace {

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

void CheckFailed(const char* file, int line, const char* expr,
                 const std::string& msg) {
  std::fprintf(stderr, "[CHECK %s:%d] invariant violated: %s %s\n",
               Basename(file), line, expr, msg.c_str());
  std::abort();
}

}  // namespace logging
}  // namespace planet
