// The direct serialization graph (DSG) of a recorded History, built once
// for both history oracles: CheckSerializability reports what it finds in
// it, and PredictReorderings patches it to predict anomalies. Internal to
// src/check.
//
// Nodes are the committed transactions, in history order. Each key's
// version chain maps an installed version to its committed writers, with
// marks for a seed and for in-doubt writers. The edges (see
// serializability.h for their meaning) go in a fixed order: the ww edges by
// key and version, then for each node the reads its physical writes
// validated, then its unvalidated reads. A breadth-first search keeps the
// first path it finds, so witnesses depend on that order.
#ifndef PLANET_CHECK_DSG_H_
#define PLANET_CHECK_DSG_H_

#include <map>
#include <vector>

#include "check/history.h"
#include "check/serializability.h"

namespace planet {

/// Index of a committed transaction in SerializationGraph::nodes.
using NodeIndex = int;
constexpr NodeIndex kNoNode = -1;

/// One adjacency-list edge, annotated for witness reconstruction.
struct DsgEdge {
  NodeIndex to = kNoNode;
  char kind = '?';  ///< as WitnessEdge::kind
  Key key = 0;
  Version version = 0;
  /// The edge exists only because a weak-mode (read_committed / causal)
  /// transaction's unvalidated read joined the graph: any cycle that needs
  /// it is a mode-permitted anomaly, not a protocol bug.
  bool weak = false;
};

/// One installed version of a key.
struct ChainEntry {
  std::vector<NodeIndex> committed;  ///< committed writers of this version
  bool seeded = false;               ///< installed by SeedValue
  bool in_doubt = false;             ///< possible 2PC in-doubt writer
};

/// A read that joined the graph but observed a version nothing installed
/// (no committed or seeded write, and no admitted in-doubt one).
struct UninstalledRead {
  NodeIndex reader = kNoNode;
  Key key = 0;
  Version version = 0;
  bool weak = false;         ///< a weak-mode transaction's unvalidated read
  bool speculative = false;  ///< it observed a pending option
};

struct SerializationGraph {
  std::vector<const RecordedTxn*> nodes;
  std::vector<std::vector<DsgEdge>> adj;  ///< out-edges of each node
  std::map<Key, std::map<Version, ChainEntry>> chains;
  std::vector<UninstalledRead> uninstalled_reads;  ///< in edge order

  const RecordedTxn& txn(NodeIndex n) const {
    return *nodes[static_cast<size_t>(n)];
  }
  /// The chain entry of (key, version), or nullptr if nothing installed it.
  const ChainEntry* Installed(Key key, Version version) const;
};

/// Builds the graph of `history`, which must outlive it. `options` select
/// the accesses and the chain links, as documented on CheckerOptions.
SerializationGraph BuildSerializationGraph(const History& history,
                                           const CheckerOptions& options);

/// True iff `txn` physically writes `key`. The acceptors validate that
/// write's read_version, which joins the graph as its read of `key`; a
/// plain read of the key joins no graph and cannot be reassigned.
bool WritesPhysically(const RecordedTxn& txn, Key key);

/// Where a breadth-first search first reached a node from.
struct BfsParent {
  NodeIndex node = kNoNode;
  const DsgEdge* edge = nullptr;
};

/// The path a search recorded in `parent`, walked back from `to` to `from`
/// and returned in forward order; `from == to` walks a cycle.
std::vector<WitnessEdge> WitnessPath(const SerializationGraph& g,
                                     const std::vector<BfsParent>& parent,
                                     NodeIndex from, NodeIndex to);

}  // namespace planet

#endif  // PLANET_CHECK_DSG_H_
