#include "check/serializability.h"

#include <deque>
#include <map>
#include <sstream>

#include "check/dsg.h"

namespace planet {
namespace {

using Adjacency = std::vector<std::vector<DsgEdge>>;

size_t EdgeCount(const Adjacency& adj) {
  size_t n = 0;
  for (const auto& out : adj) n += out.size();
  return n;
}

bool HasWeakEdge(const Adjacency& adj) {
  for (const auto& out : adj) {
    for (const DsgEdge& e : out) {
      if (e.weak) return true;
    }
  }
  return false;
}

/// The strong (non-weak) edges of `adj`, over the same node set.
Adjacency StrongSubgraph(const Adjacency& adj) {
  Adjacency strong(adj.size());
  for (size_t v = 0; v < adj.size(); ++v) {
    for (const DsgEdge& e : adj[v]) {
      if (!e.weak) strong[v].push_back(e);
    }
  }
  return strong;
}

/// Shortest cycle through any node of the SCC over `adj`, as witness edges.
/// BFS from every node over its out-edges back to itself; O(V * E), run
/// only when a cycle is known to exist (Tarjan found a nontrivial SCC).
std::vector<WitnessEdge> ShortestCycle(const SerializationGraph& g,
                                       const Adjacency& adj,
                                       const std::vector<NodeIndex>& scc) {
  std::vector<WitnessEdge> best;
  std::vector<int> in_scc(adj.size(), 0);
  for (NodeIndex n : scc) in_scc[static_cast<size_t>(n)] = 1;

  for (NodeIndex start : scc) {
    std::vector<BfsParent> parent(adj.size());
    std::deque<NodeIndex> queue{start};
    std::vector<int> seen(adj.size(), 0);
    seen[static_cast<size_t>(start)] = 1;
    bool closed = false;
    while (!queue.empty() && !closed) {
      NodeIndex u = queue.front();
      queue.pop_front();
      for (const DsgEdge& e : adj[static_cast<size_t>(u)]) {
        if (!in_scc[static_cast<size_t>(e.to)]) continue;
        if (e.to == start) {
          parent[static_cast<size_t>(start)] = {u, &e};
          closed = true;
          break;
        }
        if (!seen[static_cast<size_t>(e.to)]) {
          seen[static_cast<size_t>(e.to)] = 1;
          parent[static_cast<size_t>(e.to)] = {u, &e};
          queue.push_back(e.to);
        }
      }
    }
    if (!closed) continue;
    std::vector<WitnessEdge> cycle = WitnessPath(g, parent, start, start);
    if (best.empty() || cycle.size() < best.size()) best = std::move(cycle);
    if (best.size() == 2) break;  // cannot do better: no self-loops exist
  }
  return best;
}

/// Iterative Tarjan SCC; returns the members of every SCC of size >= 2.
std::vector<std::vector<NodeIndex>> NontrivialSccs(const Adjacency& adj) {
  const size_t n = adj.size();
  std::vector<int> index(n, -1), low(n, 0), on_stack(n, 0);
  std::vector<NodeIndex> stack;
  std::vector<std::vector<NodeIndex>> sccs;
  int next_index = 0;

  struct Frame {
    NodeIndex v;
    size_t edge = 0;
  };
  for (NodeIndex root = 0; root < static_cast<NodeIndex>(n); ++root) {
    if (index[static_cast<size_t>(root)] != -1) continue;
    std::vector<Frame> frames{{root}};
    while (!frames.empty()) {
      Frame& f = frames.back();
      size_t v = static_cast<size_t>(f.v);
      if (f.edge == 0) {
        index[v] = low[v] = next_index++;
        stack.push_back(f.v);
        on_stack[v] = 1;
      }
      bool descended = false;
      while (f.edge < adj[v].size()) {
        NodeIndex w = adj[v][f.edge].to;
        ++f.edge;
        size_t wi = static_cast<size_t>(w);
        if (index[wi] == -1) {
          frames.push_back(Frame{w});
          descended = true;
          break;
        }
        if (on_stack[wi]) low[v] = std::min(low[v], index[wi]);
      }
      if (descended) continue;
      if (low[v] == index[v]) {
        std::vector<NodeIndex> scc;
        NodeIndex w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[static_cast<size_t>(w)] = 0;
          scc.push_back(w);
        } while (w != f.v);
        if (scc.size() >= 2) sccs.push_back(std::move(scc));
      }
      frames.pop_back();
      if (!frames.empty()) {
        size_t p = static_cast<size_t>(frames.back().v);
        low[p] = std::min(low[p], low[v]);
      }
    }
  }
  return sccs;
}

}  // namespace

const char* TxnOutcomeName(TxnOutcome outcome) {
  switch (outcome) {
    case TxnOutcome::kCommitted:
      return "committed";
    case TxnOutcome::kAborted:
      return "aborted";
    case TxnOutcome::kUnavailable:
      return "unavailable";
  }
  return "?";
}

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kVersionFork:
      return "version-fork";
    case ViolationKind::kPhantomVersion:
      return "phantom-version";
    case ViolationKind::kCycle:
      return "cycle";
    case ViolationKind::kSessionRegression:
      return "session-regression";
  }
  return "?";
}

std::string WitnessEdge::ToString() const {
  std::ostringstream os;
  const char* name = kind == 'w' ? "ww" : kind == 'r' ? "wr" : "rw";
  os << "txn " << from << " -" << name << "(key " << key << " @v" << version
     << ")-> txn " << to;
  return os.str();
}

std::string Violation::ToString() const {
  std::ostringstream os;
  os << ViolationKindName(kind);
  if (mode_permitted) os << " [mode-permitted]";
  os << ": " << message;
  for (const WitnessEdge& e : cycle) os << "\n    " << e.ToString();
  return os.str();
}

std::string CheckReport::Summary() const {
  std::ostringstream os;
  os << committed_txns << " committed txns, " << edges << " edges: ";
  size_t permitted = PermittedCount();
  if (ok()) {
    os << "serializable";
    if (permitted > 0) {
      os << " (" << permitted << " mode-permitted anomaly(ies))";
      for (const Violation& v : violations) os << "\n  " << v.ToString();
    }
  } else {
    os << violations.size() - permitted << " violation(s)";
    if (permitted > 0) os << " + " << permitted << " mode-permitted";
    for (const Violation& v : violations) os << "\n  " << v.ToString();
  }
  return os.str();
}

CheckReport CheckSerializability(const History& history,
                                 const CheckerOptions& options) {
  CheckReport report;
  SerializationGraph g = BuildSerializationGraph(history, options);
  report.committed_txns = g.nodes.size();
  report.edges = EdgeCount(g.adj);

  // Two committed writers of one version (a seed counts as one) fork it.
  for (const auto& [key, chain] : g.chains) {
    for (const auto& [version, entry] : chain) {
      size_t writers = entry.committed.size() + (entry.seeded ? 1 : 0);
      if (writers <= 1) continue;
      Violation v;
      v.kind = ViolationKind::kVersionFork;
      v.keys.push_back(key);
      std::ostringstream os;
      os << "key " << key << " v" << version << " installed by " << writers
         << " committed writers:";
      for (NodeIndex n : entry.committed) {
        v.txns.push_back(g.txn(n).id);
        os << " txn " << g.txn(n).id;
      }
      if (entry.seeded) os << " seed";
      v.message = os.str();
      report.violations.push_back(std::move(v));
    }
  }

  // A phantom from a speculative (read-committed) read is the dirty read
  // that mode permits; any other phantom is a protocol bug.
  for (const UninstalledRead& r : g.uninstalled_reads) {
    Violation v;
    v.kind = ViolationKind::kPhantomVersion;
    v.mode_permitted = r.weak && r.speculative;
    v.txns.push_back(g.txn(r.reader).id);
    v.keys.push_back(r.key);
    std::ostringstream os;
    os << "txn " << g.txn(r.reader).id << " observed key " << r.key << " @v"
       << r.version << ", which no committed write installed (dirty read)";
    if (v.mode_permitted) os << " under read-committed visibility";
    v.message = os.str();
    report.violations.push_back(std::move(v));
  }

  // Causal session guarantees: within one client session, reads of a key
  // must never go backwards past what the session already observed (reads
  // are monotonic) or past the session's own committed installs
  // (read-your-writes). Checked per (client, key) over read completion
  // times; a committed write raises the floor for reads after its decide.
  {
    struct SessionEvent {
      SimTime at = 0;
      bool is_read = false;
      Version version = 0;
      TxnId txn = kInvalidTxnId;
      Key key = 0;
    };
    std::map<NodeId, std::vector<SessionEvent>> sessions;
    for (const RecordedTxn& txn : history.txns()) {
      if (txn.isolation != IsolationLevel::kCausal) continue;
      if (txn.outcome != TxnOutcome::kCommitted) continue;
      if (txn.client_node == kInvalidNodeId) continue;
      auto& events = sessions[txn.client_node];
      for (const RecordedRead& r : txn.reads) {
        if (r.at == 0) continue;  // pre-mode history, no ordering info
        events.push_back(SessionEvent{r.at, true, r.version, txn.id, r.key});
      }
      for (const RecordedWrite& w : txn.writes) {
        if (w.kind != OptionKind::kPhysical) continue;
        events.push_back(
            SessionEvent{txn.decide, false, w.installed(), txn.id, w.key});
      }
    }
    for (auto& [client, events] : sessions) {
      std::stable_sort(events.begin(), events.end(),
                       [](const SessionEvent& a, const SessionEvent& b) {
                         return a.at < b.at;
                       });
      std::map<Key, std::pair<Version, TxnId>> floor;  // highest seen
      for (const SessionEvent& e : events) {
        auto it = floor.find(e.key);
        if (e.is_read && it != floor.end() && e.version < it->second.first) {
          Violation v;
          v.kind = ViolationKind::kSessionRegression;
          v.txns.push_back(e.txn);
          if (it->second.second != kInvalidTxnId) {
            v.txns.push_back(it->second.second);
          }
          v.keys.push_back(e.key);
          std::ostringstream os;
          os << "causal session (client " << client << ") read key " << e.key
             << " @v" << e.version << " in txn " << e.txn
             << " after observing v" << it->second.first;
          v.message = os.str();
          report.violations.push_back(std::move(v));
        }
        if (it == floor.end() || e.version > it->second.first) {
          floor[e.key] = {e.version, e.txn};
        }
      }
    }
  }

  // Cycle detection, witness only when needed. A cycle that survives in
  // the strong (validated-edges-only) subgraph is a protocol bug; an SCC
  // held together only by weak unvalidated reads is the write skew / long
  // fork its isolation mode permits.
  auto report_cycle = [&](const Adjacency& adj,
                          const std::vector<NodeIndex>& scc, bool permitted,
                          const char* tail) {
    Violation v;
    v.kind = ViolationKind::kCycle;
    v.mode_permitted = permitted;
    v.cycle = ShortestCycle(g, adj, scc);
    for (const WitnessEdge& e : v.cycle) {
      v.txns.push_back(e.from);
      v.keys.push_back(e.key);
    }
    std::ostringstream os;
    os << "serialization graph cycle of length " << v.cycle.size() << " ("
       << scc.size() << " txns entangled" << tail;
    v.message = os.str();
    report.violations.push_back(std::move(v));
  };
  std::vector<std::vector<NodeIndex>> full_sccs = NontrivialSccs(g.adj);
  if (full_sccs.empty() || !HasWeakEdge(g.adj)) {
    for (const auto& scc : full_sccs) report_cycle(g.adj, scc, false, ")");
    return report;
  }
  Adjacency strong = StrongSubgraph(g.adj);
  std::vector<int> in_strong_scc(g.nodes.size(), 0);
  for (const std::vector<NodeIndex>& scc : NontrivialSccs(strong)) {
    for (NodeIndex n : scc) in_strong_scc[static_cast<size_t>(n)] = 1;
    report_cycle(strong, scc, false, "; validated edges only)");
  }
  for (const std::vector<NodeIndex>& scc : full_sccs) {
    bool has_strong = false;
    for (NodeIndex n : scc) {
      if (in_strong_scc[static_cast<size_t>(n)]) has_strong = true;
    }
    if (has_strong) continue;  // already reported from the strong graph
    report_cycle(g.adj, scc, true,
                 ") through weak-isolation unvalidated reads");
  }
  return report;
}

}  // namespace planet
