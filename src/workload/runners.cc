#include "workload/runners.h"

#include <memory>
#include <type_traits>
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
  Duration user_latency = 0;
  bool speculative = false;
  bool early_abort = false;
  std::function<void(TxnResult)> done;
  // Instrumentation (PLANET runner only).
  std::vector<TxnProgress> trace;
  bool midflight_sampled = false;
  double midflight_likelihood = 0.0;
};

/// The read-modify-write transaction both coordinator clients run: read
/// every key, then write each write key back incremented (or Add(1) when
/// the workload is commutative and the client supports it), then commit.
template <typename ClientT>
TxnRunner MakeRmwRunner(ClientT* client, const WorkloadConfig& config,
                        Rng rng) {
  auto core = std::make_shared<RunnerCore>(config, rng);
  Simulator* sim = client->simulator();
  return [client, core, sim](std::function<void(TxnResult)> done) {
    std::vector<Key> write_keys, read_keys;
    core->DrawKeys(&write_keys, &read_keys);

    auto fly = std::make_shared<InFlight>();
    fly->write_keys = write_keys;
    fly->begin = sim->Now();
    fly->done = std::move(done);
    fly->reads_remaining =
        static_cast<int>(write_keys.size() + read_keys.size());

    TxnId txn = client->Begin();
    auto commit_if_ready = [client, core, fly, txn, sim] {
      if (fly->reads_remaining > 0) return;
      for (Key key : fly->write_keys) {
        Status st;
        if constexpr (std::is_same_v<ClientT, Client>) {
          st = core->config.commutative
                   ? client->Add(txn, key, 1)
                   : client->Write(txn, key, fly->values[key] + 1);
        } else {
          st = client->Write(txn, key, fly->values[key] + 1);
        }
        PLANET_CHECK_MSG(st.ok(), st.ToString());
      }
      client->Commit(txn, [fly, sim](Status status) {
        TxnResult result;
        result.status = std::move(status);
        result.latency = sim->Now() - fly->begin;
        result.user_latency = result.latency;
        fly->done(result);
      });
    };

    std::vector<Key> all_keys = write_keys;
    all_keys.insert(all_keys.end(), read_keys.begin(), read_keys.end());
    for (Key key : all_keys) {
      client->Read(
          txn, key,
          [client, sim, fly, txn, key,
           commit_if_ready](Status status, RecordView v) {
            if (fly->failed) return;
            if (!status.ok()) {
              fly->failed = true;
              client->AbortEarly(txn);
              TxnResult result;
              result.status = std::move(status);
              result.latency = sim->Now() - fly->begin;
              result.user_latency = result.latency;
              fly->done(result);
              return;
            }
            fly->values[key] = v.value;
            --fly->reads_remaining;
            commit_if_ready();
          });
    }
  };
}

}  // namespace

TxnRunner MakePlanetRunner(PlanetClient* client, const WorkloadConfig& config,
                           Rng rng, PlanetRunnerPolicy policy) {
  auto core = std::make_shared<RunnerCore>(config, rng);
  Simulator* sim = client->db()->simulator();
  return [client, core, sim, policy](std::function<void(TxnResult)> done) {
    std::vector<Key> write_keys, read_keys;
    core->DrawKeys(&write_keys, &read_keys);

    auto fly = std::make_shared<InFlight>();
    fly->write_keys = write_keys;
    fly->begin = sim->Now();
    fly->done = std::move(done);
    fly->reads_remaining =
        static_cast<int>(write_keys.size() + read_keys.size());

    PlanetTransaction txn = client->Begin();
    if (policy.midflight_tracker != nullptr || policy.on_trace) {
      txn.OnProgress([fly, policy](const TxnProgress& p) {
        if (policy.on_trace) fly->trace.push_back(p);
        if (policy.midflight_tracker != nullptr && !fly->midflight_sampled &&
            p.votes_total > 0 &&
            p.votes_received >=
                policy.midflight_votes_fraction * p.votes_total &&
            (p.stage == PlanetStage::kSubmitted ||
             p.stage == PlanetStage::kClassicFallback)) {
          fly->midflight_sampled = true;
          fly->midflight_likelihood = p.likelihood;
        }
      });
    }
    if (policy.speculation_deadline > 0) {
      txn.WithTimeout(policy.speculation_deadline,
                      [policy](PlanetTransaction& t) {
                        if (policy.speculate_threshold < 0) return;
                        if (t.CommitLikelihood() >= policy.speculate_threshold) {
                          t.Speculate();
                        } else if (policy.give_up_below) {
                          t.GiveUp();
                        }
                      });
    }
    txn.OnFinal([fly, sim, policy](Status status) {
      TxnResult result;
      result.status = std::move(status);
      result.latency = sim->Now() - fly->begin;
      result.user_latency =
          fly->user_latency > 0 ? fly->user_latency : result.latency;
      result.speculative = fly->speculative;
      result.early_abort = fly->early_abort;
      if (policy.midflight_tracker != nullptr && fly->midflight_sampled &&
          !result.status.IsUnavailable()) {
        policy.midflight_tracker->Record(fly->midflight_likelihood,
                                         result.status.ok());
      }
      if (policy.on_trace) policy.on_trace(fly->trace, result);
      fly->done(result);
    });

    auto commit_if_ready = [client, core, fly](PlanetTransaction t) {
      if (fly->reads_remaining > 0) return;
      for (Key key : fly->write_keys) {
        Status st;
        if (core->config.commutative) {
          st = t.Add(key, 1);
        } else {
          st = t.Write(key, fly->values[key] + 1);
        }
        PLANET_CHECK_MSG(st.ok(), st.ToString());
      }
      t.Commit([fly](const Outcome& outcome) {
        fly->user_latency = outcome.user_latency;
        fly->speculative = outcome.speculative;
        fly->early_abort = outcome.early_abort;
      });
    };

    std::vector<Key> all_keys = write_keys;
    all_keys.insert(all_keys.end(), read_keys.begin(), read_keys.end());
    for (Key key : all_keys) {
      txn.Read(key, [client, sim, fly, key, txn,
                     commit_if_ready](Status status, Value v) {
        if (fly->failed) return;
        if (!status.ok()) {
          // Read timed out (e.g. the local replica is down): abandon the
          // transaction and report it, once, as unavailable.
          fly->failed = true;
          client->AbortEarly(txn.id());
          TxnResult result;
          result.status = std::move(status);
          result.latency = sim->Now() - fly->begin;
          result.user_latency = result.latency;
          fly->done(result);
          return;
        }
        fly->values[key] = v;
        --fly->reads_remaining;
        commit_if_ready(txn);
      });
    }
  };
}

TxnRunner MakeMdccRunner(Client* client, const WorkloadConfig& config,
                         Rng rng) {
  return MakeRmwRunner(client, config, rng);
}

TxnRunner MakeTpcRunner(TpcClient* client, const WorkloadConfig& config,
                        Rng rng) {
  PLANET_CHECK_MSG(!config.commutative,
                   "the 2PC baseline supports physical writes only");
  return MakeRmwRunner(client, config, rng);
}

}  // namespace planet
