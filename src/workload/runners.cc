#include "workload/runners.h"

#include <memory>
#include <unordered_map>

#include "common/logging.h"

namespace planet {
namespace {

/// Shared mutable state of one runner instance (keys + rng live across
/// invocations; the lambda itself is copied into std::function).
struct RunnerCore {
  RunnerCore(const WorkloadConfig& config, Rng rng)
      : config(config), chooser(config), rng(rng) {}

  WorkloadConfig config;
  KeyChooser chooser;
  Rng rng;

  /// Draws the read set and the write subset for one transaction.
  void DrawKeys(std::vector<Key>* write_keys, std::vector<Key>* read_keys) {
    int total = config.reads_per_txn + config.writes_per_txn;
    std::vector<Key> keys = chooser.NextDistinct(rng, total);
    write_keys->assign(keys.begin(), keys.begin() + config.writes_per_txn);
    read_keys->assign(keys.begin() + config.writes_per_txn, keys.end());
  }
};

/// Per-transaction bookkeeping shared between the read callbacks and the
/// commit callbacks.
struct InFlight {
  std::vector<Key> write_keys;
  std::unordered_map<Key, Value> values;
  int reads_remaining = 0;
  bool failed = false;  ///< a read failed; the txn was abandoned
  SimTime begin = 0;
  std::function<void(TxnResult)> done;
  // What the PLANET user was told first (its Outcome); unset elsewhere.
  Duration user_latency = 0;
  bool speculative = false;
  bool early_abort = false;
  // PlanetRunnerPolicy instrumentation.
  std::vector<TxnProgress> trace;
  bool midflight_sampled = false;
  double midflight_likelihood = 0.0;

  /// The result of a transaction that ended at `now` with `status`.
  TxnResult Result(Status status, SimTime now) const {
    TxnResult result;
    result.status = std::move(status);
    result.latency = now - begin;
    result.user_latency = user_latency > 0 ? user_latency : result.latency;
    result.speculative = speculative;
    result.early_abort = early_abort;
    return result;
  }
};

Value ValueOf(const RecordView& v) { return v.value; }
Value ValueOf(Value v) { return v; }

/// Writes one write key back: Add(1) on a commutative workload when the
/// client has Add (MakeTpcRunner rejects commutative workloads), else the
/// value read plus one.
template <typename ClientT>
Status WriteBack(ClientT* client, TxnId txn, Key key, Value read,
                 bool commutative) {
  if constexpr (requires { client->Add(txn, key, Value{1}); }) {
    if (commutative) return client->Add(txn, key, 1);
  }
  return client->Write(txn, key, read + 1);
}

/// MDCC and 2PC: the coordinator reports the definitive outcome to the
/// commit callback.
template <typename ClientT>
struct CoordinatorSession {
  ClientT* client;
  Simulator* sim;

  TxnId Begin(const std::shared_ptr<InFlight>& /*fly*/) const {
    return client->Begin();
  }
  void Commit(TxnId txn, const std::shared_ptr<InFlight>& fly) const {
    client->Commit(txn, [fly, sim = sim](Status status) {
      fly->done(fly->Result(std::move(status), sim->Now()));
    });
  }
};

/// PLANET: Begin arms the policy hooks and the OnFinal callback, which
/// reports the definitive outcome; the commit callback only notes what the
/// user was told first.
struct PlanetSession {
  PlanetClient* client;
  Simulator* sim;
  std::shared_ptr<const PlanetRunnerPolicy> policy;

  TxnId Begin(const std::shared_ptr<InFlight>& fly) const {
    PlanetTransaction txn = client->Begin();
    if (policy->midflight_tracker != nullptr || policy->on_trace) {
      txn.OnProgress([fly, policy = policy](const TxnProgress& p) {
        if (policy->on_trace) fly->trace.push_back(p);
        if (policy->midflight_tracker != nullptr && !fly->midflight_sampled &&
            p.votes_total > 0 &&
            p.votes_received >=
                kMidflightVotesFraction * p.votes_total &&
            (p.stage == PlanetStage::kSubmitted ||
             p.stage == PlanetStage::kClassicFallback)) {
          fly->midflight_sampled = true;
          fly->midflight_likelihood = p.likelihood;
        }
      });
    }
    if (policy->speculation_deadline > 0) {
      txn.WithTimeout(policy->speculation_deadline,
                      [policy = policy](PlanetTransaction& t) {
                        if (policy->speculate_threshold < 0) return;
                        if (t.CommitLikelihood() >=
                            policy->speculate_threshold) {
                          t.Speculate();
                        } else if (policy->give_up_below) {
                          t.GiveUp();
                        }
                      });
    }
    txn.OnFinal([fly, sim = sim, policy = policy](Status status) {
      TxnResult result = fly->Result(std::move(status), sim->Now());
      if (policy->midflight_tracker != nullptr && fly->midflight_sampled &&
          !result.status.IsUnavailable()) {
        policy->midflight_tracker->Record(fly->midflight_likelihood,
                                          result.status.ok());
      }
      if (policy->on_trace) policy->on_trace(fly->trace, result);
      fly->done(result);
    });
    return txn.id();
  }
  void Commit(TxnId txn, const std::shared_ptr<InFlight>& fly) const {
    client->Commit(txn, [fly](const Outcome& outcome) {
      fly->user_latency = outcome.user_latency;
      fly->speculative = outcome.speculative;
      fly->early_abort = outcome.early_abort;
    });
  }
};

/// The read-modify-write transaction every stack runs: read every key,
/// write each write key back (see WriteBack), then commit. A failed read
/// (e.g. a timeout against a crashed local replica) abandons the
/// transaction and reports it, once, with the read's status.
template <typename Session>
TxnRunner MakeRmwRunner(Session session, const WorkloadConfig& config,
                        Rng rng) {
  auto core = std::make_shared<RunnerCore>(config, rng);
  return [session = std::move(session),
          core](std::function<void(TxnResult)> done) {
    std::vector<Key> write_keys, read_keys;
    core->DrawKeys(&write_keys, &read_keys);

    auto fly = std::make_shared<InFlight>();
    fly->write_keys = write_keys;
    fly->begin = session.sim->Now();
    fly->done = std::move(done);
    fly->reads_remaining =
        static_cast<int>(write_keys.size() + read_keys.size());

    TxnId txn = session.Begin(fly);
    auto commit_if_ready = [session, core, fly, txn] {
      if (fly->reads_remaining > 0) return;
      for (Key key : fly->write_keys) {
        Status st = WriteBack(session.client, txn, key, fly->values[key],
                              core->config.commutative);
        PLANET_CHECK_MSG(st.ok(), st.ToString());
      }
      session.Commit(txn, fly);
    };

    std::vector<Key> all_keys = write_keys;
    all_keys.insert(all_keys.end(), read_keys.begin(), read_keys.end());
    for (Key key : all_keys) {
      session.client->Read(
          txn, key,
          [client = session.client, sim = session.sim, fly, txn, key,
           commit_if_ready](Status status, const auto& v) {
            if (fly->failed) return;
            if (!status.ok()) {
              fly->failed = true;
              client->AbortEarly(txn);
              fly->done(fly->Result(std::move(status), sim->Now()));
              return;
            }
            fly->values[key] = ValueOf(v);
            --fly->reads_remaining;
            commit_if_ready();
          });
    }
  };
}

}  // namespace

TxnRunner MakePlanetRunner(PlanetClient* client, const WorkloadConfig& config,
                           Rng rng, PlanetRunnerPolicy policy) {
  return MakeRmwRunner(
      PlanetSession{client, client->db()->simulator(),
                    std::make_shared<const PlanetRunnerPolicy>(
                        std::move(policy))},
      config, rng);
}

TxnRunner MakeMdccRunner(Client* client, const WorkloadConfig& config,
                         Rng rng) {
  return MakeRmwRunner(CoordinatorSession<Client>{client, client->simulator()},
                       config, rng);
}

TxnRunner MakeTpcRunner(TpcClient* client, const WorkloadConfig& config,
                        Rng rng) {
  PLANET_CHECK_MSG(!config.commutative,
                   "the 2PC baseline supports physical writes only");
  return MakeRmwRunner(
      CoordinatorSession<TpcClient>{client, client->simulator()}, config,
      rng);
}

}  // namespace planet
