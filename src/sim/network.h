// Wide-area network model with per-DC-pair latency injection.
//
// Latency model per (src DC, dst DC) link: one-way delay sampled as
//   max(min_latency, Lognormal(median, sigma)) + degradation(src) +
//   degradation(dst)
// plus optional message loss and full partitions. Lognormal jitter matches
// the heavy-tailed WAN RTT distributions PLANET's predictor must cope with;
// degradation injection reproduces the paper's "unpredictable environments"
// (load spikes, consolidation interference).
//
// Hot-path design (see docs/PERFORMANCE.md): link, partition, and
// degradation state live in dense num_dcs x num_dcs / num_dcs tables,
// resolved once at SetLink/SetDegradation time (lognormal draw arguments,
// retransmission timeout, partition flag). Send and SampleLatency index
// flat arrays and draw from the RNG in exactly the order the map-based
// implementation did, so every seed replays bit-identically.
#ifndef PLANET_SIM_NETWORK_H_
#define PLANET_SIM_NETWORK_H_

#include <type_traits>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/rng.h"
#include "common/thread_checker.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace planet {

/// Parameters of one directed DC-to-DC link.
///
/// Channels are reliable (the real system runs over TCP): packet loss does
/// not drop a message, it delays it by a retransmission timeout — which is
/// exactly the latency-spike behaviour PLANET's predictor must absorb.
/// Only partitions drop messages.
struct LinkParams {
  Duration median_one_way = Millis(1);  ///< median one-way delay
  double sigma = 0.1;                   ///< lognormal shape (jitter)
  Duration min_latency = Micros(50);    ///< physical floor
  double loss_prob = 0.0;               ///< per-message retransmission prob.
  Duration retransmit_timeout = 0;      ///< RTO; 0 means 4x median
};

/// Per-DC degradation used to inject latency spikes (experiment F8).
struct DcDegradation {
  Duration extra_median = 0;  ///< added one-way delay (median)
  double extra_sigma = 0.0;   ///< extra jitter while degraded
};

/// Protocol class of a message, for per-class accounting. Untagged sends
/// are kData; a tagged Send bumps the class counter and then takes the
/// exact same delivery path, so tagging never perturbs the schedule.
enum class MsgClass {
  kData = 0,         ///< default: all untagged protocol traffic
  kAbortNotice = 1,  ///< predictive early-abort broadcast (experiment F11)
};
inline constexpr int kNumMsgClasses = 2;

/// The message fabric. Nodes are registered with their data center; sends
/// are closures delivered on the destination's behalf after the sampled
/// one-way delay.
class Network {
 public:
  Network(Simulator* sim, Rng rng);

  /// Registers a node in a data center. NodeIds are dense from 0.
  void RegisterNode(NodeId node, DcId dc);

  /// DC of a registered node.
  DcId DcOf(NodeId node) const;
  int num_nodes() const { return static_cast<int>(node_dc_.size()); }

  /// Sets the (symmetric) link between two DCs. a == b sets intra-DC.
  void SetLink(DcId a, DcId b, const LinkParams& params);

  /// Directed override (for asymmetric routes).
  void SetDirectedLink(DcId src, DcId dst, const LinkParams& params);

  /// Starts/stops a partition between two DCs (messages silently dropped).
  void SetPartitioned(DcId a, DcId b, bool partitioned);

  /// Marks a node as powered off (crashed) or back up. Messages to or from
  /// a down node are dropped; messages already in flight toward it are
  /// discarded at delivery time, as if the NIC went dark mid-transfer.
  void SetNodeUp(NodeId node, bool up);
  bool NodeUp(NodeId node) const;

  /// Injects degradation (latency spike) on every link touching `dc`.
  void SetDegradation(DcId dc, const DcDegradation& degradation);
  void ClearDegradation(DcId dc);

  /// Sends `deliver` from `src` to `dst`; it runs after the sampled one-way
  /// delay unless the message is lost or the DCs are partitioned.
  /// Self-sends (src == dst node) are delivered after the intra-DC delay.
  ///
  /// Templated so the delivery closure rides inside the scheduled event
  /// without type erasure: the event captures {Network*, dst, deliver}
  /// directly, so `deliver` may capture up to
  /// Simulator::EventFn::inline_bytes() - 16 bytes (the largest MDCC
  /// round-trip closures are ~88B) before the event heap-allocates (see
  /// InlineFunctionHeapFallbacks).
  template <typename F>
  void Send(NodeId src, NodeId dst, F&& deliver) {
    PLANET_DCHECK_OWNED(thread_checker_);
    Duration delay;
    if (!PrepareSend(src, dst, &delay)) return;
    // Deliveries re-check liveness: a message in flight toward a node that
    // crashes before it lands is lost with the node's receive buffers.
    sim_->Schedule(delay, DeliveryEvent<std::decay_t<F>>{
                              this, dst, std::forward<F>(deliver)});
  }

  /// Tagged send: identical delivery semantics to the untagged overload,
  /// plus per-class accounting (class_sent). The default path stays free of
  /// the extra counter bump.
  template <typename F>
  void Send(NodeId src, NodeId dst, MsgClass cls, F&& deliver) {
    ++class_sent_[static_cast<size_t>(cls)];
    Send(src, dst, std::forward<F>(deliver));
  }

  /// Messages sent with the given tag (kData counts only tagged sends;
  /// untagged traffic is messages_sent() minus the tagged classes).
  uint64_t class_sent(MsgClass cls) const {
    return class_sent_[static_cast<size_t>(cls)];
  }

  /// Samples what the one-way latency would be right now (no send).
  Duration SampleLatency(DcId src, DcId dst);

  /// Releases single-owner thread affinity (ownership transfer); part of
  /// the Cluster::DetachFromThread hand-off of a sharded drain
  /// (harness/sharded_cluster.h).
  void DetachFromThread() { thread_checker_.DetachFromThread(); }

  /// Introspection for experiments.
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t messages_retransmitted() const { return messages_retransmitted_; }

 private:
  template <typename F>
  struct DeliveryEvent {
    Network* net;
    NodeId dst;
    F fn;
    void operator()() {
      if (!net->NodeUp(dst)) {
        ++net->messages_dropped_;
        return;
      }
      fn();
    }
  };

  /// Everything in Send up to scheduling: liveness/partition drops, latency
  /// sampling, loss retransmissions. Returns false when the message is
  /// dropped; otherwise *delay is the sampled one-way delivery delay.
  bool PrepareSend(NodeId src, NodeId dst, Duration* delay);

  /// One directed link, fully resolved: no map walk, no per-send branching
  /// on "was this link ever configured".
  struct LinkState {
    double median_draw;   ///< max(1.0, double(median_one_way)), Lognormal arg
    double sigma;
    Duration min_latency;
    double loss_prob;
    Duration rto;         ///< resolved: explicit RTO or 4x median
    bool partitioned = false;
  };
  struct DegradationState {
    bool active = false;  ///< set && extra_median > 0
    double extra_median = 0.0;
    double extra_sigma = 0.01;  ///< pre-clamped: max(0.01, extra_sigma)
  };

  static LinkState Resolve(const LinkParams& params);
  /// Grows the matrices to cover DCs [0, dc]. New cells get the default
  /// link; existing cells (including partition flags) are preserved.
  void EnsureDc(DcId dc);
  LinkState& Cell(DcId src, DcId dst) {
    return links_[static_cast<size_t>(src) * static_cast<size_t>(dim_) +
                  static_cast<size_t>(dst)];
  }
  Duration SampleCell(const LinkState& link, DcId src, DcId dst);

  /// Like Simulator/Store: a Network is single-owner state handed between
  /// threads only through DetachFromThread (asserted on the Send path).
  ThreadChecker thread_checker_;
  Simulator* sim_;
  Rng rng_;
  std::vector<DcId> node_dc_;
  std::vector<char> node_up_;
  /// dim_ x dim_ row-major directed-link matrix and per-DC degradation.
  DcId dim_ = 0;
  std::vector<LinkState> links_;
  std::vector<DegradationState> degradation_;
  LinkState default_cell_;
  uint64_t messages_sent_;
  uint64_t messages_dropped_;
  uint64_t messages_retransmitted_;
  uint64_t class_sent_[kNumMsgClasses] = {};
};

}  // namespace planet

#endif  // PLANET_SIM_NETWORK_H_
