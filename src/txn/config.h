// Configuration both commit stacks share.
#ifndef PLANET_TXN_CONFIG_H_
#define PLANET_TXN_CONFIG_H_

#include "common/types.h"

namespace planet {

/// The parameters of every commit stack, with one set of defaults.
/// MdccConfig and TpcConfig derive from it and add their protocol's own.
struct StackConfig {
  /// Number of data centers, one replica each (the paper evaluates 5).
  int num_dcs = 5;

  /// Overall transaction deadline: a commit that has not resolved by then
  /// ends with kUnavailable (covers partitions and crashed nodes).
  Duration txn_timeout = Seconds(30);

  /// Deadline for a read against the local replica. A crashed or partitioned
  /// local replica otherwise hangs the transaction forever. 0 disables.
  Duration read_timeout = Seconds(10);

  /// Master placement: -1 hashes masters across DCs (key % num_dcs);
  /// otherwise all keys are mastered in the given DC.
  int master_dc = -1;

  /// DC mastering the given key (MDCC: at epoch 0; 2PC: its home node).
  DcId MasterOf(Key key) const {
    return master_dc >= 0 ? master_dc
                          : static_cast<DcId>(key % static_cast<Key>(num_dcs));
  }
};

}  // namespace planet

#endif  // PLANET_TXN_CONFIG_H_
