// Write options: the unit of optimistic commit in the MDCC-style stack.
//
// An option is a proposed transition of one record, `key: vread -> new
// state`. A transaction is a set of options plus the all-or-nothing rule:
// the transaction commits iff every option is accepted by its per-record
// Paxos instance. Options come in two flavours (as in MDCC):
//   * physical: replace the value, valid only against the exact version read;
//   * commutative: add a delta, valid whenever demarcation bounds allow,
//     regardless of interleaving (used for hot counters, experiment F7).
#ifndef PLANET_STORAGE_OPTION_H_
#define PLANET_STORAGE_OPTION_H_

#include "common/types.h"

namespace planet {

/// Kind of update carried by an option.
enum class OptionKind {
  kPhysical,     ///< value := new_value, requires version == read_version
  kCommutative,  ///< value += delta, requires demarcation bounds to hold
};

/// One proposed record transition, owned by a transaction.
struct WriteOption {
  TxnId txn = kInvalidTxnId;
  Key key = 0;
  OptionKind kind = OptionKind::kPhysical;
  Version read_version = 0;  ///< version observed by the transaction's read
  Value new_value = 0;       ///< physical payload
  Value delta = 0;           ///< commutative payload
  int epoch = 0;             ///< mastership epoch (classic-path routing only)
};

}  // namespace planet

#endif  // PLANET_STORAGE_OPTION_H_
