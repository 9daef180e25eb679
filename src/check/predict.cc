#include "check/predict.h"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>

#include "check/dsg.h"

namespace planet {
namespace {

/// Upper bound on (reader, key) candidates examined before ranking; guards
/// the O(candidates * E) reachability pass on huge histories.
constexpr size_t kMaxCandidates = 4096;

}  // namespace

std::string DelayDirective::ToString() const {
  std::ostringstream os;
  os << "txn " << txn << " +" << delay << "us";
  return os.str();
}

std::string PredictedViolation::ToString() const {
  std::ostringstream os;
  os << "predicted: delay txn " << writer << " so txn " << reader
     << " reads key " << key << " @v" << predicted << " instead of @v"
     << observed << " (gap " << gap << "us)";
  for (const DelayDirective& d : directives) {
    os << "\n    delay " << d.ToString();
  }
  for (const WitnessEdge& e : cycle) os << "\n    " << e.ToString();
  return os.str();
}

std::vector<PredictedViolation> PredictReorderings(
    const History& history, const PredictOptions& options) {
  // The checker's graph under its default options: validated accesses plus
  // the unvalidated reads of weak-mode transactions, the edges a
  // reassignment can recombine into a cycle.
  const SerializationGraph g =
      BuildSerializationGraph(history, CheckerOptions{});

  // Candidate enumeration: for each weak-mode unvalidated read of (key, v)
  // with a foreign committed writer W of v and a realizable predecessor
  // version v-1, test whether reassigning the read to v-1 closes a cycle:
  //   removed:  wr W -> T (key@v),  rw T -> writer(v+1) (key@v)
  //   added:    wr writer(v-1) -> T,  rw T -> W (key@v-1)
  // The added rw edge makes the cycle condition "W reaches T in the
  // patched graph" — a plain BFS with the removed wr edge filtered out,
  // where reaching any writer of v-1 also reaches T (via the added wr).
  struct Candidate {
    NodeIndex reader = kNoNode;
    NodeIndex writer = kNoNode;
    Key key = 0;
    Version observed = 0;
    Duration gap = 0;
    Duration delay = 0;
    std::vector<WitnessEdge> cycle;
  };
  std::vector<Candidate> confirmed;
  std::set<std::pair<TxnId, Key>> dedup;
  size_t examined = 0;

  for (NodeIndex t = 0; t < static_cast<NodeIndex>(g.nodes.size()); ++t) {
    const RecordedTxn& reader = g.txn(t);
    if (reader.isolation == IsolationLevel::kSerializable) continue;
    if (reader.client_node == kInvalidNodeId) continue;
    for (const RecordedRead& r : reader.reads) {
      if (examined >= kMaxCandidates) break;
      if (r.at == 0) continue;  // pre-mode history: no ordering info
      if (r.version == 0) continue;
      if (WritesPhysically(reader, r.key)) continue;
      // Every key starts at version 0; any later predecessor must have
      // been installed for the reassigned read to be realizable.
      const ChainEntry* pred = g.Installed(r.key, r.version - 1);
      if (pred == nullptr && r.version != 1) continue;
      const ChainEntry* read = g.Installed(r.key, r.version);
      if (read == nullptr) continue;
      if (dedup.count({reader.id, r.key}) != 0) continue;
      for (NodeIndex w : read->committed) {
        const RecordedTxn& writer = g.txn(w);
        if (writer.client_node == reader.client_node) continue;  // session
        ++examined;

        // BFS from W toward T, skipping the reassigned wr edge.
        std::vector<BfsParent> parent(g.nodes.size());
        std::vector<int> seen(g.nodes.size(), 0);
        std::deque<NodeIndex> queue{w};
        seen[static_cast<size_t>(w)] = 1;
        NodeIndex hit = kNoNode;       // node whose expansion reached T
        bool via_added_wr = false;     // reached T through writer(v-1)
        while (!queue.empty() && hit == kNoNode) {
          NodeIndex u = queue.front();
          queue.pop_front();
          // Reaching a writer of v-1 reaches T via the added wr edge.
          if (pred != nullptr && u != w &&
              std::find(pred->committed.begin(), pred->committed.end(), u) !=
                  pred->committed.end()) {
            hit = u;
            via_added_wr = true;
            break;
          }
          for (const DsgEdge& e : g.adj[static_cast<size_t>(u)]) {
            if (u == w && e.to == t && e.kind == 'r' && e.key == r.key &&
                e.version == r.version) {
              continue;  // the wr edge the reassignment removes
            }
            if (e.to == t) {
              parent[static_cast<size_t>(t)] = {u, &e};
              hit = t;
              break;
            }
            if (!seen[static_cast<size_t>(e.to)]) {
              seen[static_cast<size_t>(e.to)] = 1;
              parent[static_cast<size_t>(e.to)] = {u, &e};
              queue.push_back(e.to);
            }
          }
        }
        if (hit == kNoNode) continue;

        Candidate c;
        c.reader = t;
        c.writer = w;
        c.key = r.key;
        c.observed = r.version;
        c.gap = r.at > writer.decide ? r.at - writer.decide
                                     : writer.decide - r.at;
        Duration lead = r.at > writer.begin ? r.at - writer.begin : 0;
        c.delay = lead + kPredictionDelayMargin;

        // Witness: W -> ... -> hit [-> T via added wr] and T -rw-> W.
        c.cycle = WitnessPath(g, parent, w, via_added_wr ? hit : t);
        if (via_added_wr) {
          c.cycle.push_back(
              WitnessEdge{g.txn(hit).id, reader.id, 'r', r.key, r.version - 1});
        }
        c.cycle.push_back(
            WitnessEdge{reader.id, writer.id, 'a', r.key, r.version - 1});
        confirmed.push_back(std::move(c));
        dedup.insert({reader.id, r.key});
        break;  // one candidate per (reader, key)
      }
    }
  }

  // Rank: closest gap first (ties broken by reader then key, so the order
  // is deterministic), then cap.
  std::stable_sort(confirmed.begin(), confirmed.end(),
                   [&](const Candidate& a, const Candidate& b) {
                     if (a.gap != b.gap) return a.gap < b.gap;
                     TxnId ra = g.txn(a.reader).id;
                     TxnId rb = g.txn(b.reader).id;
                     if (ra != rb) return ra < rb;
                     return a.key < b.key;
                   });
  if (confirmed.size() > options.max_predictions) {
    confirmed.resize(options.max_predictions);
  }

  std::vector<PredictedViolation> out;
  out.reserve(confirmed.size());
  for (Candidate& c : confirmed) {
    PredictedViolation p;
    p.reader = g.txn(c.reader).id;
    p.writer = g.txn(c.writer).id;
    p.key = c.key;
    p.observed = c.observed;
    p.predicted = c.observed - 1;
    p.gap = c.gap;
    p.directives.push_back(DelayDirective{p.writer, c.delay});
    p.cycle = std::move(c.cycle);
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace planet
