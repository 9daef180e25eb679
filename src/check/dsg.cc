#include "check/dsg.h"

#include <algorithm>

namespace planet {

const ChainEntry* SerializationGraph::Installed(Key key,
                                                Version version) const {
  auto chain = chains.find(key);
  if (chain == chains.end()) return nullptr;
  auto entry = chain->second.find(version);
  return entry == chain->second.end() ? nullptr : &entry->second;
}

bool WritesPhysically(const RecordedTxn& txn, Key key) {
  // Writes are sorted by key, so a pass over the reads stays O(R log W).
  auto w = std::lower_bound(
      txn.writes.begin(), txn.writes.end(), key,
      [](const RecordedWrite& lhs, Key k) { return lhs.key < k; });
  return w != txn.writes.end() && w->key == key &&
         w->kind == OptionKind::kPhysical;
}

SerializationGraph BuildSerializationGraph(const History& history,
                                           const CheckerOptions& options) {
  SerializationGraph g;
  for (const SeededKey& seed : history.seeds()) {
    g.chains[seed.key][seed.version].seeded = true;
  }
  // In-doubt transactions join version chains but are no nodes.
  for (const RecordedTxn& txn : history.txns()) {
    bool committed = txn.outcome == TxnOutcome::kCommitted;
    if (committed) {
      g.nodes.push_back(&txn);
    } else if (!options.allow_in_doubt_writers || !txn.in_doubt) {
      continue;
    }
    for (const RecordedWrite& w : txn.writes) {
      if (w.kind != OptionKind::kPhysical) continue;
      ChainEntry& entry = g.chains[w.key][w.installed()];
      if (committed) {
        entry.committed.push_back(static_cast<NodeIndex>(g.nodes.size()) - 1);
      } else {
        entry.in_doubt = true;
      }
    }
  }
  g.adj.resize(g.nodes.size());
  auto add_edge = [&g](NodeIndex from, NodeIndex to, char kind, Key key,
                       Version version, bool weak) {
    if (from == to) return;  // self-dependencies are not anomalies
    g.adj[static_cast<size_t>(from)].push_back(
        DsgEdge{to, kind, key, version, weak});
  };

  for (const auto& [key, chain] : g.chains) {
    const ChainEntry* prev = nullptr;
    Version prev_version = 0;
    for (const auto& [version, entry] : chain) {
      if (prev != nullptr && version == prev_version + 1) {
        for (NodeIndex from : prev->committed) {
          for (NodeIndex to : entry.committed) {
            add_edge(from, to, 'w', key, version, /*weak=*/false);
          }
        }
      }
      prev = &entry;
      prev_version = version;
    }
  }

  // Writers of the version read get wr edges to the reader; writers of the
  // next version get rw (anti-dependency) edges from it.
  auto add_reader_edges = [&](NodeIndex reader, Key key, Version version,
                              bool weak, bool speculative) {
    if (const ChainEntry* read = g.Installed(key, version)) {
      for (NodeIndex from : read->committed) {
        add_edge(from, reader, 'r', key, version, weak);
      }
    } else if (version != 0) {  // every key logically starts at version 0
      g.uninstalled_reads.push_back(
          UninstalledRead{reader, key, version, weak, speculative});
    }
    if (const ChainEntry* next = g.Installed(key, version + 1)) {
      for (NodeIndex to : next->committed) {
        add_edge(reader, to, 'a', key, version, weak);
      }
    }
  };
  // A physical write's read_version is acceptor-validated: a strong edge
  // whatever the transaction's mode. Unvalidated reads join for weak-mode
  // transactions always (tagged weak) and for serializable ones on request.
  for (NodeIndex n = 0; n < static_cast<NodeIndex>(g.nodes.size()); ++n) {
    const RecordedTxn& txn = g.txn(n);
    for (const RecordedWrite& w : txn.writes) {
      if (w.kind != OptionKind::kPhysical) continue;
      add_reader_edges(n, w.key, w.read_version, /*weak=*/false,
                       /*speculative=*/false);
    }
    bool weak_mode = txn.isolation != IsolationLevel::kSerializable;
    if (!weak_mode && !options.include_unvalidated_reads) continue;
    for (const RecordedRead& r : txn.reads) {
      if (WritesPhysically(txn, r.key)) continue;
      add_reader_edges(n, r.key, r.version, weak_mode, r.speculative);
    }
  }
  return g;
}

std::vector<WitnessEdge> WitnessPath(const SerializationGraph& g,
                                     const std::vector<BfsParent>& parent,
                                     NodeIndex from, NodeIndex to) {
  std::vector<WitnessEdge> path;
  NodeIndex v = to;
  do {
    const BfsParent& p = parent[static_cast<size_t>(v)];
    path.push_back(WitnessEdge{g.txn(p.node).id, g.txn(v).id, p.edge->kind,
                               p.edge->key, p.edge->version});
    v = p.node;
  } while (v != from);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace planet
