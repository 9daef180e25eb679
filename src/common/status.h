// Status error handling, RocksDB-style. The library does not throw.
#ifndef PLANET_COMMON_STATUS_H_
#define PLANET_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace planet {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kInvalidArgument,
  kAborted,          // transaction aborted (conflict / stale read)
  kRejected,         // refused by admission control before proposing
  kTimedOut,
  kUnavailable,      // quorum unreachable (partition / loss)
  kAlreadyExists,
  kFailedPrecondition,
  kInternal,
};

/// Human-readable name of a StatusCode, e.g. "Aborted".
const char* StatusCodeName(StatusCode code);

/// Outcome of an operation: a code plus an optional message. Cheap to copy
/// in the OK case (no allocation).
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status NotFound(std::string msg = "") {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status InvalidArgument(std::string msg = "") {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status Aborted(std::string msg = "") {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  [[nodiscard]] static Status Rejected(std::string msg = "") {
    return Status(StatusCode::kRejected, std::move(msg));
  }
  [[nodiscard]] static Status TimedOut(std::string msg = "") {
    return Status(StatusCode::kTimedOut, std::move(msg));
  }
  [[nodiscard]] static Status Unavailable(std::string msg = "") {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  [[nodiscard]] static Status AlreadyExists(std::string msg = "") {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string msg = "") {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg = "") {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsRejected() const { return code_ == StatusCode::kRejected; }
  bool IsTimedOut() const { return code_ == StatusCode::kTimedOut; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "Aborted: <msg>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  StatusCode code_;
  std::string msg_;
};

}  // namespace planet

#endif  // PLANET_COMMON_STATUS_H_
