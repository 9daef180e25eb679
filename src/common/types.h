// Core scalar types shared by every PLANET module.
#ifndef PLANET_COMMON_TYPES_H_
#define PLANET_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

namespace planet {

/// Simulated time in microseconds since simulation start.
using SimTime = int64_t;

/// Duration in simulated microseconds.
using Duration = int64_t;

/// Identifier of a data center (0-based).
using DcId = int32_t;

/// Identifier of a simulated node (replica, master, client); unique cluster-wide.
using NodeId = int32_t;

/// Identifier of a transaction; unique cluster-wide.
using TxnId = uint64_t;

/// Key of a record in the store.
using Key = uint64_t;

/// Value stored in a record. Records hold integer payloads; the commit
/// protocol never inspects values, so this loses no generality.
using Value = int64_t;

/// Monotonically increasing version of a committed record.
using Version = uint64_t;

inline constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();
inline constexpr TxnId kInvalidTxnId = 0;
inline constexpr NodeId kInvalidNodeId = -1;

/// Client-visible isolation mode. Controls when speculative/committed
/// versions become readable and how the correctness oracles treat a
/// transaction's unvalidated reads (see docs/TESTING.md):
///  * kSerializable  — reads observe committed state only; plain reads stay
///    out of the serialization graph (update serializability, the default
///    contract). Bit-identical to the pre-isolation-mode stack.
///  * kReadCommitted — reads may observe a pending (accepted but undecided)
///    physical option's value; the checker admits those reads into the
///    graph and classifies resulting anomalies as mode-permitted.
///  * kCausal        — committed-only reads plus a client-side session
///    guarantee (monotonic reads / read-your-writes via a per-key floor);
///    a session-order regression is a real violation, never permitted.
enum class IsolationLevel : uint8_t {
  kSerializable = 0,
  kReadCommitted = 1,
  kCausal = 2,
};

constexpr const char* IsolationLevelName(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kSerializable:
      return "serializable";
    case IsolationLevel::kReadCommitted:
      return "read_committed";
    case IsolationLevel::kCausal:
      return "causal";
  }
  return "?";
}

/// Parses "serializable" / "read_committed" / "causal" (also accepts the
/// hyphenated spelling). Returns false on anything else.
bool ParseIsolationLevel(const std::string& text, IsolationLevel* out);

/// Convenience literal helpers (simulated time units).
constexpr Duration Micros(int64_t n) { return n; }
constexpr Duration Millis(int64_t n) { return n * 1000; }
constexpr Duration Seconds(int64_t n) { return n * 1000 * 1000; }

/// Formats a simulated timestamp as "12.345678s" for logs.
std::string FormatSimTime(SimTime t);

}  // namespace planet

#endif  // PLANET_COMMON_TYPES_H_
